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

    def test_closed_form_recurrence(self):
        V = ex.add(1, ex.mul(0.5, ex.sin(THETA)))  # theta-dependent velocity
        c = pde.transport_series(pde.TransportSpec(V=V, y0=0, N=5))
        step = do.op_scale(ex.neg(V), do.partial(1))
        for k in range(5):
            lhs = c.coefficient(Word((DRIFT,) * (k + 1) + (X1,)))
            rhs = do.op_mul(step, c.coefficient(Word((DRIFT,) * k + (X1,))))
            assert lhs == rhs

    def test_two_term_recurrence_reading_for_constant_velocity(self):
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
            assert nxt == two_term

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
        assert pde.first_order_residual(0.75, 8).is_zero()

    def test_geometric_cancellation_symbolic_beta(self):
        # cancellation survives a theta-dependent factor: the canonical
        # Poly form collects equal monomials, so the terms cancel exactly
        assert pde.first_order_residual(ex.add(1, ex.mul(0.25, ex.sin(THETA))), 5).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(DYADIC, st.lists(st.tuples(DYADIC.filter(bool), THETA_TERMS, DYADIC.filter(bool)),
                            min_size=1, max_size=3), st.integers(1, 5))
    def test_geometric_cancellation_property(self, constant, terms, n):
        """R + F + R o F is exactly the zero series for
        beta = constant + sum c*f(a*theta_1).

        Coefficients and arguments are multiples of 1/8, so every product
        and sum formed on the way is a dyadic rational that a double holds
        exactly, and the cancellation is exact.  With other coefficients,
        rounding can leave residues of about 1e-17 that do not cancel."""
        beta = ex.parse(" + ".join([repr(constant)] + [
            f"{c!r}*{form.format(repr(a))}" for c, form, a in terms]), 1)
        assert pde.first_order_residual(beta, n).is_zero()


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

    def test_wave_partial_fraction_half_weights(self):
        c = pde.second_order_series(pde.SecondOrderSpec(
            0, -1, 0, 0, 6, pde.SecondOrderForm.PARTIAL_FRACTION))
        for k in range(6):
            expected = do.op_add(
                do.op_scale(ex.const(0.5),
                            do.op_pow(do.op_scale(ex.const(-1), do.partial(1)), k)),
                do.op_scale(ex.const(0.5), do.op_pow(do.partial(1), k)))
            got = c.coefficient(Word((DRIFT,) * (k + 1) + (X1,)))
            assert got == expected

    def test_degenerate_double_integrator(self):
        y0 = ex.sin(THETA)
        c = pde.second_order_series(pde.SecondOrderSpec(
            0, 0, y0, ex.cos(THETA), 4, pde.SecondOrderForm.CASCADE))
        assert c.coefficient(Word()) == do.from_expr(y0, 1)
        assert c.coefficient(word("x0")) == do.from_expr(ex.cos(THETA), 1)
        assert c.coefficient(word("x0", "x1")) == do.identity(1)
        # no higher-order corrections: both roots are zero
        assert set(c.coeffs) == {Word(), word("x0"), word("x0", "x1")}

    def test_form_by_value(self):
        """The form may be given by its value, as the cli passes it; an
        unknown value is a SeriesError, not a silent direct form."""
        by_value = pde.SecondOrderSpec(3, 2, ex.sin(THETA), 1, 5, "cascade")
        assert by_value.form is pde.SecondOrderForm.CASCADE
        assert pde.second_order_series(by_value) == pde.second_order_series(
            pde.SecondOrderSpec(3, 2, ex.sin(THETA), 1, 5, pde.SecondOrderForm.CASCADE))
        with pytest.raises(se.SeriesError, match="bogus"):
            pde.SecondOrderSpec(3, 2, form="bogus")

    def test_form_agreement_with_initial_data(self):
        y0 = ex.sin(THETA)
        built = [pde.second_order_series(pde.SecondOrderSpec(3, 2, y0, 1, 5, f))
                 for f in pde.SecondOrderForm]
        words_union = set()
        for s in built:
            words_union |= set(s.coeffs)
        for other in built[1:]:
            for w in words_union:
                assert built[0].coefficient(w) == other.coefficient(w)

    def test_cascade_equals_composition_of_transports(self):
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
            assert casc.coefficient(w) == comp.coefficient(w)

    def test_repeated_root_rejected(self):
        with pytest.raises(pde.RepeatedRoot):
            pde.second_order_series(pde.SecondOrderSpec(
                2, 1, 0, 0, 4, pde.SecondOrderForm.PARTIAL_FRACTION))

    def test_symbolic_coefficients_need_factored_entry(self):
        # the direct form builds with a theta-dependent alpha; the cascade
        # and partial-fraction forms need the roots of constant ones
        direct = pde.second_order_series(pde.SecondOrderSpec(THETA, -1, 0, 0, 4))
        assert direct.coefficient(word("x0", "x0", "x1")) == do.monomial(ex.neg(THETA), (1,))
        for form in ("cascade", "partial-fraction"):
            with pytest.raises(se.SeriesError, match="use second_order_series_factored$"):
                pde.second_order_series(pde.SecondOrderSpec(THETA, -1, 0, 0, 4, form))

    def test_factored_entry_matches_constant_path(self):
        casc = pde.second_order_series(pde.SecondOrderSpec(
            3, 2, ex.sin(THETA), 0, 5, pde.SecondOrderForm.CASCADE))
        fact = pde.second_order_series_factored(
            ex.const(2), ex.const(1), ex.sin(THETA), 0, 5)
        for w in set(casc.coeffs) | set(fact.coeffs):
            assert casc.coefficient(w) == fact.coefficient(w)

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

    @pytest.mark.parametrize("n", [0, 1, 8])
    def test_inverses_and_their_rest_are_exact_through_n(self, n):
        # before _triangular_truncate: an inverse claims exactly what it holds
        a1, a2 = do.monomial(1.0, (1,)), do.monomial(-2.0, (2,))
        for inverse in (pde.first_order_inverse(1.5, n), pde._inverse(a1, a2, n),
                        pde._cascade_inverse(2.0, -1.0, n)):
            assert (inverse.exact_len, inverse.max_len) == (n, n)
            assert pde._rest(inverse).exact_len == n
        short = pde._inverse(a1, a2, n + 2)
        assert pde._rest(se.GenSeries(1, short.coeffs, n + 2, exact_len=n)).exact_len == n

    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("alpha1, alpha2", [(0.75, -1.25), (0.3 + 0.2j, 0.125),
                                                (1.0117, -2.0338)])
    def test_second_order_inverse_identity(self, alpha1, alpha2, n):
        # with A2 != 0, (I + R)(I + A) = I reads R + A + R o A = 0 through n
        a1, a2 = do.monomial(alpha1, (1,)), do.monomial(alpha2, (2,))
        rest = pde._rest(pde._inverse(a1, a2, n))
        fwd = se.GenSeries(1, {word("x1"): a1, word("x0", "x1"): a2}, 2)
        residual = se.parallel_sum(se.parallel_sum(rest, fwd), se.compose(rest, fwd))
        assert se.truncate(residual, n).is_zero()

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


def _zero_input(dim):
    return ii.InputSignal.symbolic(ex.parse("0", dim))


class TestOperatorCoefficients:
    """The first-order solution of y_t + A y = u for an operator A of any
    dim and order, and the direct second-order form with theta-dependent
    alphas, against closed forms."""

    HEAT = do.monomial(-0.5, (2,))  # y_t = kappa y_thetatheta + u, kappa = 0.5

    def heat_grid(self):
        grid = ii.Grid(((0.0, 2 * math.pi, 129),), 1.0, 257)
        return grid, grid.theta_points(0)[:, None], grid.t_points[None, :]

    def test_heat_initial_condition_decays(self):
        grid, th, t = self.heat_grid()
        c = pde._first_order_series(self.HEAT, ex.sin(THETA), 12)
        y = ii.evaluate_series(c, _zero_input(1), grid).values
        assert np.max(np.abs(y - np.exp(-0.5 * t) * np.sin(th))) <= 2e-7

    def test_heat_forced_from_rest(self):
        grid, th, t = self.heat_grid()
        kappa = 0.5
        c = pde._first_order_series(self.HEAT, ex.ZERO, 16)
        y = ii.evaluate_series(c, ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 1)),
                               grid).values
        exact = np.sin(th) * (t / kappa - (1 - np.exp(-kappa * t)) / kappa ** 2)
        assert np.max(np.abs(y - exact)) <= 1e-6

    def test_transport_in_two_thetas(self):
        # A = d1 + 0.5 d2 carries y0 along (1, 0.5)
        a = do.op_add(do.monomial(1.0, (1, 0)), do.monomial(0.5, (0, 1)))
        grid = ii.Grid(((0.0, 1.0, 33), (0.0, 1.0, 33)), 1.0, 65)
        c = pde._first_order_series(a, ex.parse("sin(theta_1 + 2*theta_2)", 2), 16)
        y = ii.evaluate_series(c, _zero_input(2), grid).values
        th1 = grid.theta_points(0)[:, None, None]
        th2 = grid.theta_points(1)[None, :, None]
        t = grid.t_points[None, None, :]
        assert np.max(np.abs(y - np.sin(th1 + 2 * th2 - 2 * t))) <= 3e-4

    def test_theta_dependent_direct_form_residual(self):
        # y_tt + (1 + 0.5 sin theta) y_ttheta - y_thetatheta = sin 2 theta
        alpha1 = ex.parse("1 + 0.5*sin(theta_1)", 1)
        c = pde.second_order_series(pde.SecondOrderSpec(alpha1, -1, ex.sin(THETA), 0, 16))
        grid = ii.Grid(((0.0, 2 * math.pi, 401),), 0.5, 401)
        u = ii.InputSignal.symbolic(ex.parse("sin(2*theta_1)", 1))
        y = ii.evaluate_series(c, u, grid).values.real
        dt, dth = grid.dt, grid.theta_spacing(0)
        ytt = (y[1:-1, 2:] - 2 * y[1:-1, 1:-1] + y[1:-1, :-2]) / dt ** 2
        yqq = (y[2:, 1:-1] - 2 * y[1:-1, 1:-1] + y[:-2, 1:-1]) / dth ** 2
        ytq = (y[2:, 2:] - y[2:, :-2] - y[:-2, 2:] + y[:-2, :-2]) / (4 * dt * dth)
        th = grid.theta_points(0)[1:-1, None]
        residual = ytt + (1 + 0.5 * np.sin(th)) * ytq - yqq - np.sin(2 * th)
        assert np.max(np.abs(residual)) <= 1e-3
        assert np.array_equal(y[:, 0], np.sin(grid.theta_points(0)))

    @pytest.mark.parametrize("n", [4, 6])
    def test_direct_inverse_of_the_factored_operator_is_the_cascade(self, n):
        # (I + B1 E_x1)(I + B2 E_x1) = I + (B1 + B2) E_x1 + B1 o B2 E_x0x1
        b1, b2 = ex.add(1, ex.mul(0.5, ex.sin(THETA))), THETA
        op1, op2 = do.monomial(b1, (1,)), do.monomial(b2, (1,))
        a1 = do.op_add(op1, op2)
        rhs = pde._rhs_series(ex.sin(THETA), ex.ONE, a1)
        direct = pde._solve(pde._inverse(a1, do.op_mul(op1, op2), n), rhs)
        assert pde._triangular_truncate(direct, n) == pde.second_order_series_factored(
            b1, b2, ex.sin(THETA), 1, n)


NON_FINITE = [math.nan, math.inf, complex(1, math.inf)]
BUILDER_INPUTS = {  # each builder input, and the name its error gives it
    "V": (lambda v: pde.TransportSpec(v), "the velocity"),
    "transport y0": (lambda v: pde.TransportSpec(1, v), "the initial condition"),
    "alpha1": (lambda v: pde.SecondOrderSpec(v, -1), "alpha1"),
    "alpha2": (lambda v: pde.SecondOrderSpec(0, v), "alpha2"),
    "y0": (lambda v: pde.SecondOrderSpec(0, -1, v), "y0"),
    "y1": (lambda v: pde.SecondOrderSpec(0, -1, 0, v), "y1"),
    "beta": (lambda v: pde.first_order_inverse(v, 3), "beta"),
    "residual beta": (lambda v: pde.first_order_residual(v, 3), "beta"),
    "beta1": (lambda v: pde.second_order_series_factored(v, 1), "beta1"),
    "beta2": (lambda v: pde.second_order_series_factored(1, v), "beta2"),
    "factored y0": (lambda v: pde.second_order_series_factored(1, 1, v), "y0"),
    "factored y1": (lambda v: pde.second_order_series_factored(1, 1, 0, v), "y1"),
}


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("which", list(BUILDER_INPUTS))
def test_non_finite_builder_input_is_refused(which, value):
    """Each of these once built a series with NaN coefficients."""
    build, what = BUILDER_INPUTS[which]
    with pytest.raises(se.SeriesError, match=f"^{what} must be finite$"):
        build(value)
