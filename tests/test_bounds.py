import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpde import bounds as bd
from cfpde import cli
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
        assert bd.stirling_KE(0).value == 1.0

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
        assert bd.stirling_KE(2).value == pytest.approx(best, rel=1e-12)

    def test_monotone_in_degree(self):
        values = [bd.stirling_KE(n).value for n in range(51)]
        for a, b in zip(values, values[1:]):
            assert b >= a

    def test_certificate_detail(self):
        detail = bd.stirling_KE(50)
        assert detail.value == 1.0
        assert detail.certified_through >= 100

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
            detail = bd.stirling_KE(d)
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
        norms = [3.0 ** k for k in range(6)]
        fit = bd._fit_coefficients(norms, 1.0, 1.0)
        assert fit.data.M == pytest.approx(3.0, rel=1e-9)

    def test_too_few_norms_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            bd._fit_coefficients([1.0, 0.0, 0.0, 0.0], 1.0, 1.0)

    @pytest.mark.parametrize("target", [
        ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 2)),
        pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=4)),
    ])
    def test_more_than_one_theta_axis_rejected(self, target):
        grid = ii.Grid.from_spec("0:1:9,0:1:9,0:1:9")
        with pytest.raises(ValueError, match="one-parameter grids"):
            bd.estimate_growth(target, grid)


def lstsq_fit(columns, logs):
    """The growth fits' least-squares problem as np.linalg.lstsq solves
    it: the coefficients and the rms residual."""
    design = np.stack([np.ones(len(logs))] + [np.asarray(c, dtype=float) for c in columns],
                      axis=1)
    sol, *_ = np.linalg.lstsq(design, logs, rcond=None)
    return sol, float(np.sqrt(np.mean((logs - design @ sol) ** 2)))


def assert_matches_lstsq(fit, columns, logs):
    """K = exp(c0) and the rate exp(c1) to 1e-12 relative, and the
    remaining coefficient and the residual to 1e-12 of the data's size."""
    sol, residual = lstsq_fit(columns, np.asarray(logs))
    scale = 1 + max(map(abs, logs))
    if len(columns) == 1:  # an input fit: K_u, R
        constants = (fit.data.K_u, fit.data.R)
    else:
        constants = (fit.data.K_alpha, fit.data.M)
        assert fit.data.s == pytest.approx(min(max(sol[2], 0.0), 1.0), abs=1e-12 * scale)
    assert constants == pytest.approx(tuple(np.exp(sol[:2])), rel=1e-12)
    assert fit.residual == pytest.approx(residual, abs=1e-12 * scale)


class TestPlainFits:
    """The two growth fits solve their small least-squares problems in
    plain Python; they agree with np.linalg.lstsq."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-60, 60), min_size=3, max_size=9))
    def test_coefficient_fit_matches_lstsq(self, logs):
        fit = bd._fit_coefficients([math.exp(v) for v in logs], 1.0, 1.0)
        ks = list(range(len(logs)))
        assert_matches_lstsq(fit, [ks, [math.lgamma(k + 1) for k in ks]], fit.log_norms)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-60, 60), min_size=2, max_size=9))
    def test_line_fit_matches_lstsq(self, logs):
        (c0, c1), residual = bd._least_squares([range(len(logs))], logs)
        sol, want = lstsq_fit([range(len(logs))], np.asarray(logs))
        scale = 1 + max(map(abs, logs))
        assert (c0, c1) == pytest.approx(tuple(sol), abs=1e-12 * scale)
        assert residual == pytest.approx(want, abs=1e-12 * scale)

    # the benchmark workloads' inputs and series, at the middle of the
    # ranges their seeds draw from
    WORKLOAD_INPUTS = [
        ("t*sin(2.05*theta_1)", "0:6.283185307179586:257,0:1:513"),
        ("t*cos(1.03*theta_1)", "-0.5:0.5:65,0:0.1:129"),
        ("sin(1.015*theta_1)", "0:6.283185307179586:129,0:1:513"),
        ("t*sin(1.03*theta_1)", "0:1:17,0:1:17,0:1:65"),
    ]

    @pytest.mark.parametrize("text, spec", WORKLOAD_INPUTS)
    def test_workload_input_fits_match_lstsq(self, text, spec):
        grid = ii.Grid.from_spec(spec)
        u = ii.InputSignal.symbolic(ex.parse(text, grid.dim))
        # the fit itself: estimate_growth refuses the two-theta grid
        fit = bd._fit_input(u, grid, 8)
        assert not fit.theta_independent
        assert_matches_lstsq(fit, [range(9)], fit.log_norms)

    @pytest.mark.parametrize("V, y0, N, spec", [
        ("1.03", "sin(theta_1)", 24, "0:6.283185307179586:257,0:1:513"),
        ("1.004*(1+theta_1^2)", "sin(1.004*theta_1)", 7, "-0.5:0.5:65,0:0.1:129"),
    ])
    def test_workload_coefficient_fits_match_lstsq(self, V, y0, N, spec):
        grid = ii.Grid.from_spec(spec)
        c = pde.transport_series(pde.TransportSpec(ex.parse(V, 1), ex.parse(y0, 1), N))
        fit = bd.estimate_growth(c, grid, k_max=min(N, 8))
        ks = list(range(len(fit.log_norms)))
        assert_matches_lstsq(fit, [ks, [math.lgamma(k + 1) for k in ks]], fit.log_norms)

    def test_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg in a growth fit")
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        grid = ii.Grid(((0.0, 2 * math.pi, 33),), 1.0, 33)
        bd.estimate_growth(ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1)), grid)
        bd.estimate_growth(pde.transport_series(pde.TransportSpec(1.5, 0, 8)), grid)


class TestScaleFreeFit:
    """Multiplying the input by c scales K_u and the tail bound by |c|
    and leaves R and s alone: no absolute cut decides that an input is
    theta-independent."""

    GRID = "0:6.283185307179586:33,0:1:33"

    def fit_and_tail(self, c, tmp_path):
        u = f"{c!r}*t*sin(2.05*theta_1)"
        grid = ii.Grid.from_spec(self.GRID)
        fit = bd.estimate_growth(ii.InputSignal.symbolic(ex.parse(u, 1)), grid, k_max=6)
        out = tmp_path / f"y{c!r}.csv"
        assert cli.main(["solve", "transport", "--V", "1", "--y0", "sin(theta_1)",
                         "--u", u, "--N", "6", "--grid", self.GRID, "--out", str(out)]) == 0
        with open(f"{out}.report.json") as fh:
            bound = json.load(fh)["bound"]
        return fit, bound

    def test_scaled_inputs_give_scaled_constants(self, tmp_path):
        base_fit, base_bound = self.fit_and_tail(1.0, tmp_path)
        assert base_fit.data.R == pytest.approx(2.05, rel=1e-9)
        assert base_bound["tail"] > 0
        for c in (1e-20, 1e20):
            fit, bound = self.fit_and_tail(c, tmp_path)
            assert not fit.theta_independent
            assert fit.data.R == pytest.approx(base_fit.data.R, rel=1e-12)
            assert fit.data.s == base_fit.data.s
            assert fit.data.K_u == pytest.approx(c * base_fit.data.K_u, rel=1e-12)
            for name in ("R", "s"):
                assert bound["constants"][name] == pytest.approx(
                    base_bound["constants"][name], rel=1e-12)
            assert bound["constants"]["K_u"] == pytest.approx(
                c * base_bound["constants"]["K_u"], rel=1e-12)
            assert bound["tail"] == pytest.approx(c * base_bound["tail"], rel=1e-12)

    def test_zero_input_is_theta_independent(self):
        grid = ii.Grid.from_spec(self.GRID)
        fit = bd.estimate_growth(ii.InputSignal.symbolic(ex.ZERO), grid, k_max=4)
        assert fit.theta_independent and fit.data.R == 0.0
