import math
import tracemalloc

import numpy as np
import pytest

from cfpde import bounds as bd
from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde.words import word

THETA = ex.var("theta_1")


def transport_growth(V=1.0, omega=2.0, T=1.0, length=2 * math.pi, s=0.0):
    return bd.GrowthData(K_alpha=1.0, M=abs(V), K_u=T ** 2 * length / 2,
                         R=abs(omega), s=s, T=T, length=length)


class TestHolderBound:
    def test_degenerate_indices_return_the_norm(self):
        assert bd.holder_bound(0, 0, 1.0, 3.5) == 3.5

    def test_one_one_quarter(self):
        assert bd.holder_bound(1, 1, 1.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_symmetry(self):
        for i in range(5):
            for j in range(5):
                assert bd.holder_bound(i, j, 0.7, 2.0) == pytest.approx(
                    bd.holder_bound(j, i, 0.7, 2.0), rel=1e-14)

    def test_dominates_direct_quadrature(self, rng):
        # oracle: direct quadrature of both the iterated integral and the
        # L1 norm, for inputs whose per-theta profile stays near its
        # theta average (the regime the pointwise estimate addresses)
        grid = ii.Grid(((0.0, 1.0, 129),), 1.0, 257)
        for _ in range(5):
            base = rng.uniform(0.7, 1.0)
            a = rng.uniform(0.0, 0.2) * base
            w = rng.uniform(0.5, 3.0)
            c0, c1 = rng.uniform(0.3, 1.0, size=2)
            u_expr = ex.mul(
                ex.add(ex.const(base),
                       ex.mul(ex.const(a), ex.sin(ex.mul(ex.const(w), THETA)))),
                ex.add(ex.const(c0), ex.mul(ex.const(c1), ex.var("t"))))
            u = ii.InputSignal.symbolic(u_expr)
            field = ii.iterated_integral(word("x0", "x1", "x0"), u, grid)
            norm = bd.input_l1_norm(u, grid)
            assert field.max_abs() <= bd.holder_bound(1, 1, 1.0, norm)


class TestStirlingConstant:
    def test_degree_zero(self):
        assert bd.stirling_KE(0) == 1.0

    def test_degree_two_exhaustive(self):
        # oracle: evaluate the maximand i^i j^j (i+j)!/(i! j! (i+j)^(i+j))
        # over every split with i+j <= 2
        def maximand(i, j):
            def p(n):
                return n ** n if n else 1
            return (p(i) * p(j) * math.factorial(i + j)
                    / (math.factorial(i) * math.factorial(j) * p(i + j)))

        best = max(maximand(i, n - i) for n in range(3) for i in range(n + 1))
        assert best == 1.0
        assert bd.stirling_KE(2) == pytest.approx(best, rel=1e-12)

    def test_monotone_in_degree(self):
        values = [bd.stirling_KE(n) for n in range(51)]
        for a, b in zip(values, values[1:]):
            assert b >= a

    def test_certificate_detail(self):
        detail = bd.stirling_KE(50, detail=True)
        assert detail.value == 1.0
        assert detail.certified_through >= 100
        assert float(detail) == detail.value

    def test_matches_per_pair_reference(self):
        """The k log k - lgamma(k + 1) table gives the floats of one
        _log_prefactor and lgamma per (i, j) pair, bit for bit."""
        def maximand(i, j):
            return math.exp(bd._log_prefactor(i, j) + math.lgamma(i + j + 1))

        per_degree = [[maximand(i, n - i) for i in range(n + 1)] for n in range(83)]
        for d in range(41):
            best = max(max(row) for row in per_degree[:d + 1])
            arg = next(n for n, row in enumerate(per_degree) if max(row) == best)
            i_best = per_degree[arg].index(best)
            detail = bd.stirling_KE(d, detail=True)
            assert (detail.value, detail.argmax) == (best, (i_best, arg - i_best))
            assert detail.certified_through == max(2 * d, arg + 2, 2)


class TestTimeIntegrals:
    def test_match_cumulative_trapezoid(self):
        """A real running sum of the same trapezoid steps over the full-grid
        derivative samples, bit for bit, whether the symbolic input is
        evaluated in one block of theta rows or in several."""
        for theta_axes, n_t, text in [
            (((0.0, 1.0, 33),), 129, "t*cos(3*theta_1) + exp(theta_1*t)"),  # one block
            (((0.0, 1.0, 300),), 129, "t*cos(3*theta_1) + exp(theta_1*t)"),  # three
            (((0.0, 1.0, 5),), 40_000, "t*cos(3*theta_1) + exp(theta_1*t)"),  # a row each
            (((0.0, 1.0, 150), (-1.0, 0.5, 3)), 65, "t*sin(theta_1)*theta_2 + 2"),
        ]:
            grid = ii.Grid(theta_axes, 0.7, n_t)
            u = ii.InputSignal.symbolic(ex.parse(text, grid.dim))
            for order in range(4):
                values = np.abs(np.moveaxis(u.derivative_values(grid, (order,)), -1, 0))
                reference = ii.cumulative_trapezoid(values, grid.dt)[-1].real
                assert np.array_equal(bd._time_integrals(u, grid, order), reference)

    def test_sampled_input_matches_cumulative_trapezoid(self):
        grid = ii.Grid(((0.0, 1.0, 300),), 0.7, 129)
        symbolic = ii.InputSignal.symbolic(ex.parse("t*cos(3*theta_1)", 1))
        u = ii.InputSignal.sampled(ii.GridField(grid, symbolic.derivative_values(grid, (0,))))
        for order in range(3):
            values = np.abs(np.moveaxis(u.derivative_values(grid, (order,)), -1, 0))
            reference = ii.cumulative_trapezoid(values, grid.dt)[-1].real
            assert np.array_equal(bd._time_integrals(u, grid, order), reference)

    def test_fit_holds_less_than_half_a_full_grid_array(self):
        """The growth fit of a symbolic input evaluates it in blocks of
        theta rows, so its peak allocation stays below half of one complex
        array on the full grid."""
        grid = ii.Grid(((0.0, 2 * math.pi, 257),), 1.0, 513)
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2.027661*theta_1)", 1))
        bd.estimate_growth(u, grid, 8)  # memoized derivatives
        tracemalloc.start()
        try:
            bd.estimate_growth(u, grid, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < math.prod(grid.shape) * 16 / 2


class TestGeometricBound:
    def test_half_rate_gives_four(self):
        res = bd.geometric_bound(bd.GrowthData(1, 1, 1, 0.5, 1, 1, 1))
        assert res.converges and res.bound == 4.0

    def test_boundary_diverges(self):
        res = bd.geometric_bound(bd.GrowthData(1, 1, 1, 1.0, 1, 1, 1))
        assert not res.converges and res.bound == math.inf

    def test_theta_independent_input(self):
        res = bd.geometric_bound(bd.GrowthData(2.0, 3.0, 5.0, 0.0, 1, 1, 1))
        assert res.converges and res.bound == pytest.approx(10.0, rel=1e-12)

    def test_requires_factorial_regime(self):
        with pytest.raises(ValueError):
            bd.geometric_bound(bd.GrowthData(1, 1, 1, 1, 0.5, 1, 1))

    def test_dominates_transport_evaluation(self):
        # shrink the horizon so MRT = 0.8 < 1, then the uniform bound must
        # dominate the evaluated magnitude
        T = 0.4
        g = transport_growth(V=1.0, omega=2.0, T=T, s=1.0)
        res = bd.geometric_bound(g)
        assert res.converges
        grid = ii.Grid(((0.0, 2 * math.pi, 129),), T, 257)
        c = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=12))
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
        y = ii.evaluate_series(c, u, grid)
        assert y.max_abs() <= res.bound


class TestGevreyTail:
    def test_full_sum_closed_form(self):
        # oracle: partial sums of sum (k+1)/k! = 2e
        total, fact = 0.0, 1.0
        for k in range(60):
            total += (k + 1) / fact
            fact *= k + 1
        assert abs(total - 2 * math.e) < 1e-12
        g = bd.GrowthData(1, 1, 1, 1, 0, 1, 1)
        assert bd.gevrey_tail(g, -1) == pytest.approx(total, abs=1e-12)

    def test_tail_monotone(self):
        g = transport_growth()
        tails = [bd.gevrey_tail(g, n) for n in range(12)]
        for a, b in zip(tails, tails[1:]):
            assert b <= a

    def test_transport_constants_accepted(self):
        g = transport_growth(V=1.0, omega=2.0)
        assert math.isfinite(bd.gevrey_tail(g, 4))

    def test_requires_subfactorial_regime(self):
        with pytest.raises(ValueError):
            bd.gevrey_tail(bd.GrowthData(1, 1, 1, 1, 1.0, 1, 1), 4)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_truncation_certificate(self, n):
        # |F - F_n| on the grid is dominated by the tail at the measured
        # constants, pointwise
        grid = ii.Grid(((0.0, 2 * math.pi, 129),), 1.0, 513)
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
        cn = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=n))
        yn = ii.evaluate_series(cn, u, grid).values
        th = grid.theta_points(0)[:, None]
        t = grid.t_points[None, :]
        exact = (np.sin(2 * (t - th)) + np.sin(2 * th)
                 - 2 * t * np.cos(2 * th)) / 4.0
        tail = bd.gevrey_tail(transport_growth(), n)
        assert np.max(np.abs(yn - exact)) <= tail


class TestEstimateGrowth:
    def test_input_fit_recovers_transport_constants(self):
        grid = ii.Grid(((0.0, 2 * math.pi, 257),), 1.0, 513)
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
        fit = bd.estimate_growth(u, grid, k_max=8)
        assert fit.data.R == pytest.approx(2.0, rel=0.05)
        assert fit.data.K_u == pytest.approx(math.pi, rel=0.05)
        assert fit.residual < 0.05

    def test_theta_independent_input_flagged(self):
        grid = ii.Grid(((0.0, 1.0, 33),), 1.0, 65)
        fit = bd.estimate_growth(ii.InputSignal.symbolic(ex.parse("t^2", 1)),
                                 grid, k_max=4)
        assert fit.theta_independent
        assert fit.data.R == 0.0

    def test_coefficient_fit_recovers_velocity(self):
        # oracle: exact sup norms |V|^k for constant V
        grid = ii.Grid(((0.0, 2 * math.pi, 65),), 1.0, 65)
        c = pde.transport_series(pde.TransportSpec(V=2.0, y0=0, N=8))
        fit = bd.estimate_growth(c, grid, k_max=8)
        assert fit.data.M == pytest.approx(2.0, rel=1e-6)
        assert fit.data.K_alpha == pytest.approx(1.0, rel=1e-6)
        assert fit.data.s <= 1e-9
        assert fit.residual < 1e-9

    def test_norm_sequence_accepted(self):
        grid = ii.Grid(((0.0, 1.0, 33),), 1.0, 65)
        norms = [3.0 ** k for k in range(6)]
        fit = bd.estimate_growth(norms, grid, k_max=5)
        assert fit.data.M == pytest.approx(3.0, rel=1e-9)

    def test_too_few_norms_rejected(self):
        grid = ii.Grid(((0.0, 1.0, 33),), 1.0, 65)
        with pytest.raises(ValueError, match="at least 3"):
            bd.estimate_growth([1.0, 0.0, 0.0, 0.0], grid, k_max=3)
