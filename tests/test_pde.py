import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpde import diffop as do
from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde import series as se
from cfpde.words import DRIFT, Letter, Word, word
from conftest import ops_agree

THETA = ex.var("theta_1")
X1, X2 = Letter(1), Letter(2)
DYADIC = st.integers(-16, 16).map(lambda k: k / 8)  # multiples of 1/8
THETA_TERMS = st.sampled_from(["sin({}*theta_1)", "cos({}*theta_1)", "exp({}*theta_1)"])


class TestTransportSeries:
    def test_order_zero_terms(self):
        c = pde.transport_series(pde.TransportSpec(V=1.0, y0=ex.sin(THETA), N=0))
        assert set(c.coeffs) == {Word(), word("x1")}
        assert c.coefficient(Word()) == do.from_expr(ex.sin(THETA), 1)
        assert c.coefficient(word("x1")) == do.identity(1)

    def test_constant_velocity_squares(self):
        c = pde.transport_series(pde.TransportSpec(V=2.0, y0=0, N=2))
        assert c.coefficient(word("x0", "x0", "x1")) == do.monomial(
            ex.const(4.0), (2,))

    def test_closed_form_recurrence(self, rng):
        V = ex.add(1, ex.mul(0.5, ex.sin(THETA)))  # theta-dependent velocity
        c = pde.transport_series(pde.TransportSpec(V=V, y0=0, N=5))
        step = do.op_scale(ex.neg(V), do.partial(1))
        for k in range(5):
            lhs = c.coefficient(Word((DRIFT,) * (k + 1) + (X1,)))
            rhs = do.op_mul(step, c.coefficient(Word((DRIFT,) * k + (X1,))))
            assert ops_agree(lhs, rhs, rng, tol=1e-12)

    def test_two_term_recurrence_reading_for_constant_velocity(self, rng):
        # the expanded normal-ordered recurrence
        #   next = -V (coefficient derivative) - V (coefficient o d/dtheta)
        # agrees with the composed closed form when V is constant
        V = 1.5
        c = pde.transport_series(pde.TransportSpec(V=V, y0=0, N=5))
        for k in range(5):
            cur = c.coefficient(Word((DRIFT,) * k + (X1,)))
            nxt = c.coefficient(Word((DRIFT,) * (k + 1) + (X1,)))
            # the derivative acts on each coefficient, not through D
            cur_derivative = do.DiffOp(1, {alpha: coeff.derivative(0)
                                           for alpha, coeff in cur.terms.items()})
            two_term = do.op_add(
                do.op_scale(ex.const(-V), cur_derivative),
                do.op_mul(do.op_scale(ex.const(-V), cur), do.partial(1)))
            assert ops_agree(nxt, two_term, rng, tol=1e-12)

    def test_pde_residual(self):
        # dy/dt + V dy/dtheta = u on the interior, by finite differences
        grid = ii.Grid(((0.0, 2 * math.pi, 801),), 1.0, 801)
        V = 1.0
        c = pde.transport_series(pde.TransportSpec(V=V, y0=0, N=12))
        u_expr = ex.parse("t*sin(2*theta_1)", 1)
        u = ii.InputSignal.symbolic(u_expr)
        y = ii.evaluate_series(c, u, grid).values.real
        dt = grid.dt
        dth = grid.theta_spacing(0)
        yt = (y[:, 2:] - y[:, :-2]) / (2 * dt)
        yq = (y[2:, :] - y[:-2, :]) / (2 * dth)
        u_vals = u.derivative_values(grid, (0,)).real
        residual = yt[1:-1, :] + V * yq[:, 1:-1] - u_vals[1:-1, 1:-1]
        scale = 1.0 + np.abs(u_vals[1:-1, 1:-1])
        assert np.max(np.abs(residual) / scale) <= 1e-4

    def test_initial_condition_exact(self):
        grid = ii.Grid(((0.0, 2 * math.pi, 65),), 1.0, 65)
        y0 = ex.sin(THETA)
        c = pde.transport_series(pde.TransportSpec(V=1.0, y0=y0, N=6))
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
        y = ii.evaluate_series(c, u, grid)
        expected = np.sin(grid.theta_points(0))
        assert np.max(np.abs(y.values[:, 0] - expected)) <= 1e-15


class TestFirstOrderInverse:
    def test_truncation_zero_is_unit(self):
        assert pde.first_order_inverse(2.0, 0).coeffs == se.one_series(1).coeffs

    def test_first_correction_term(self):
        inv = pde.first_order_inverse(1.5, 3)
        assert inv.coefficient(word("x1")) == do.monomial(ex.const(-1.5), (1,))

    def test_geometric_cancellation_constant_beta(self):
        beta = 0.75
        inv = pde.first_order_inverse(beta, 8)
        fwd = se.series_from_coeffs(1, {
            Word(): do.identity(1),
            word("x1"): do.monomial(ex.const(beta), (1,))})
        got = se.truncate(se.compose(inv, fwd, unital=True), 8)
        assert got.coeffs == se.one_series(1).coeffs

    def test_geometric_cancellation_symbolic_beta(self):
        # cancellation survives a theta-dependent factor: the canonical
        # Poly form collects equal monomials, so the terms cancel exactly
        beta = ex.add(1, ex.mul(0.25, ex.sin(THETA)))
        inv = pde.first_order_inverse(beta, 5)
        fwd = se.series_from_coeffs(1, {
            Word(): do.identity(1),
            word("x1"): do.monomial(beta, (1,))})
        got = se.truncate(se.compose(inv, fwd, unital=True), 5)
        assert got.coeffs == se.one_series(1).coeffs


    @settings(max_examples=40, deadline=None)
    @given(DYADIC, st.lists(st.tuples(DYADIC.filter(bool), THETA_TERMS, DYADIC.filter(bool)),
                            min_size=1, max_size=3), st.integers(1, 5))
    def test_geometric_cancellation_property(self, constant, terms, n):
        """The unital product of the inverse with the forward series is
        exactly 1*empty-word for beta = constant + sum c*f(a*theta_1).

        Coefficients and arguments are multiples of 1/8, so every product
        and sum formed on the way is a dyadic rational that a double holds
        exactly, and the cancellation is exact.  With other coefficients,
        rounding can leave residues of about 1e-17 that do not cancel."""
        beta = ex.parse(" + ".join([repr(constant)] + [
            f"{c!r}*{form.format(repr(a))}" for c, form, a in terms]), 1)
        fwd = se.series_from_coeffs(1, {
            Word(): do.identity(1),
            word("x1"): do.monomial(beta, (1,))})
        got = se.truncate(se.compose(pde.first_order_inverse(beta, n), fwd,
                                     unital=True), n)
        assert got.coeffs == se.one_series(1).coeffs


class TestSecondOrder:
    def test_wave_direct_words(self):
        c = pde.wave_series(7)
        assert set(c.coeffs) == {
            Word((DRIFT,) * (2 * k + 1) + (X1,)) for k in range(4)}
        for k in range(4):
            got = c.coefficient(Word((DRIFT,) * (2 * k + 1) + (X1,)))
            assert got == (do.identity(1) if k == 0
                           else do.monomial(ex.ONE, (2 * k,)))

    def test_wave_even_drift_coefficients_vanish(self):
        c = pde.wave_series(7)
        assert c.coefficient(word("x0", "x0", "x1")).is_zero()

    def test_wave_partial_fraction_half_weights(self, rng):
        c = pde.second_order_series(pde.SecondOrderSpec(
            0, -1, 0, 0, 6, pde.SecondOrderForm.PARTIAL_FRACTION))
        for k in range(6):
            expected = do.op_add(
                do.op_scale(ex.const(0.5),
                            do.op_pow(do.op_scale(ex.const(-1), do.partial(1)), k)),
                do.op_scale(ex.const(0.5), do.op_pow(do.partial(1), k)))
            got = c.coefficient(Word((DRIFT,) * (k + 1) + (X1,)))
            assert ops_agree(got, expected, rng, tol=1e-12)

    def test_degenerate_double_integrator(self):
        y0 = ex.sin(THETA)
        c = pde.second_order_series(pde.SecondOrderSpec(
            0, 0, y0, ex.cos(THETA), 4, pde.SecondOrderForm.CASCADE))
        assert c.coefficient(Word()) == do.from_expr(y0, 1)
        assert c.coefficient(word("x0")) == do.from_expr(ex.cos(THETA), 1)
        assert c.coefficient(word("x0", "x1")) == do.identity(1)
        # no higher-order corrections: both roots are zero
        assert set(c.coeffs) == {Word(), word("x0"), word("x0", "x1")}

    def test_form_agreement_with_initial_data(self, rng):
        y0 = ex.sin(THETA)
        built = [pde.second_order_series(pde.SecondOrderSpec(3, 2, y0, 1, 5, f))
                 for f in pde.SecondOrderForm]
        words_union = set()
        for s in built:
            words_union |= set(s.coeffs)
        for other in built[1:]:
            for w in words_union:
                assert ops_agree(built[0].coefficient(w), other.coefficient(w),
                                 rng, tol=1e-9)

    def test_cascade_equals_composition_of_transports(self, rng):
        # zero-data cascade = composition of the two first-order solution
        # series, word for word
        alpha1, alpha2 = 3.0, 2.0  # factors beta1 = 2, beta2 = 1
        n = 6
        casc = pde.second_order_series(pde.SecondOrderSpec(
            alpha1, alpha2, 0, 0, n, pde.SecondOrderForm.CASCADE))
        outer = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=n))
        inner = se.relabel_letters(
            pde.transport_series(pde.TransportSpec(V=2.0, y0=0, N=n)), {X1: X2})
        comp = se.relabel_letters(se.compose(outer, inner), {X2: X1})
        for w in set(casc.coeffs) | {ww for ww in comp.coeffs if len(ww) <= n + 1}:
            assert ops_agree(casc.coefficient(w), comp.coefficient(w), rng,
                             tol=1e-9)

    def test_repeated_root_rejected(self):
        with pytest.raises(pde.RepeatedRoot):
            pde.second_order_series(pde.SecondOrderSpec(
                2, 1, 0, 0, 4, pde.SecondOrderForm.PARTIAL_FRACTION))

    def test_symbolic_coefficients_need_factored_entry(self):
        with pytest.raises(pde.NonConstantCoefficients):
            pde.SecondOrderSpec(THETA, -1, 0, 0, 4)

    def test_factored_entry_matches_constant_path(self, rng):
        casc = pde.second_order_series(pde.SecondOrderSpec(
            3, 2, ex.sin(THETA), 0, 5, pde.SecondOrderForm.CASCADE))
        fact = pde.second_order_series_factored(
            ex.const(2), ex.const(1), ex.sin(THETA), 0, 5)
        for w in set(casc.coeffs) | set(fact.coeffs):
            assert ops_agree(casc.coefficient(w), fact.coefficient(w), rng,
                             tol=1e-9)

    def test_root_ordering(self):
        c = pde.second_order_series(pde.SecondOrderSpec(
            0, -1, 0, 0, 2, pde.SecondOrderForm.PARTIAL_FRACTION))
        # beta1 = 1, beta2 = -1: weights are exactly one half each, so the
        # k = 1 coefficient on x0^2 x1 vanishes
        assert c.coefficient(word("x0", "x0", "x1")).is_zero()


class TestWaveEvaluation:
    def test_wave_matches_separated_solution(self):
        grid = ii.Grid(((0.0, 2 * math.pi, 129),), 1.0, 513)
        c = pde.wave_series(11)
        u = ii.InputSignal.symbolic(ex.sin(THETA))
        y = ii.evaluate_series(c, u, grid)
        th = grid.theta_points(0)[:, None]
        t = grid.t_points[None, :]
        assert np.max(np.abs(y.values - np.sin(th) * (1 - np.cos(t)))) <= 1e-5


class TestSolveKernel:
    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("form", list(pde.SecondOrderForm))
    def test_every_form_is_exact_through_n(self, form, n):
        c = pde.second_order_series(pde.SecondOrderSpec(3, 2, ex.sin(THETA), 1, n, form))
        assert (c.exact_len, c.max_len) == (n, n + 1)

    @pytest.mark.parametrize("n", [1, 7])
    def test_wave_and_factored_entry_are_exact_through_n(self, n):
        assert pde.wave_series(n).exact_len == n
        fact = pde.second_order_series_factored(ex.add(1, THETA), ex.const(1), 0, 0, n)
        assert fact.exact_len == n

    def test_tiny_distinct_roots_take_partial_fractions(self):
        # roots +-1e-13: the x0^3 x1 coefficient is (beta1^2 + beta1 beta2
        # + beta2^2) d^2 = 1e-26 d^2 in both forms
        built = [pde.second_order_series(pde.SecondOrderSpec(0, -1e-26, 0, 0, 4, f))
                 for f in (pde.SecondOrderForm.PARTIAL_FRACTION,
                           pde.SecondOrderForm.CASCADE)]
        for c in built:
            got = c.coefficient(word("x0", "x0", "x0", "x1")).terms[(2,)].constant()
            assert got == pytest.approx(1e-26, rel=1e-12)

    def test_rounded_double_root_rejected(self):
        # (mu - 0.1)^2: the discriminant 0.2^2 - 4*0.01 rounds to 6.9e-18
        with pytest.raises(pde.RepeatedRoot):
            pde.second_order_series(pde.SecondOrderSpec(
                0.2, 0.01, 0, 0, 4, pde.SecondOrderForm.PARTIAL_FRACTION))
