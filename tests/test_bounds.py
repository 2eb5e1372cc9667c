import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfpde import bounds as bd
from cfpde import cli
from cfpde import diffop as do
from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde import series as se
from cfpde.words import word

THETA = ex.var("theta_1")


def transport_growth(V=1.0, omega=2.0, T=1.0, length=2 * math.pi, s=0.0):
    """The constants of y_t + V y_theta = t sin(omega theta) on a theta
    interval of the given length."""
    return bd.GrowthData(K_alpha=1.0, M=abs(V), K_u=T ** 2 * length / 2,
                         R=abs(omega), s=s, T=T)


def transport_error(grid, n):
    """|F - F_n| on the grid for V = 1, y0 = 0, u = t sin(2 theta), against
    the exact solution."""
    cn = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=n))
    u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
    yn = ii.evaluate_series(cn, u, grid).values
    th = grid.theta_points(0)[:, None]
    t = grid.t_points[None, :]
    exact = (np.sin(2 * (t - th)) + np.sin(2 * th) - 2 * t * np.cos(2 * th)) / 4.0
    return np.max(np.abs(yn - exact))


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


class TestBinomialConstant:
    """K_E = 1: the Hoelder prefactor i^i j^j / (i! j! n^n), n = i + j,
    times n! is the binomial probability C(n, i) p^i (1-p)^j at p = i/n."""

    def test_exact_integer_inequality_through_degree_100(self):
        fact = [math.factorial(k) for k in range(101)]
        for n in range(101):
            for i in range(n + 1):
                lhs = i ** i * (n - i) ** (n - i) * fact[n]
                rhs = fact[i] * fact[n - i] * n ** n
                if i in (0, n):
                    assert lhs == rhs
                else:
                    assert lhs < rhs, (i, n - i)

    def test_holder_prefactor_times_factorial_at_most_one(self):
        peak = 0.0
        for n in range(171):
            for i in range(n + 1):
                scaled = bd.holder_bound(i, n - i, 1.0, 1.0) * math.factorial(n)
                assert scaled <= 1 + 1e-12, (i, n - i)
                peak = max(peak, scaled)
        assert peak == pytest.approx(1.0, abs=1e-12)

    def test_matches_the_binomial_probability(self):
        for n in range(1, 40):
            for i in range(n + 1):
                p = i / n
                want = math.comb(n, i) * p ** i * (1 - p) ** (n - i)
                assert bd.holder_bound(i, n - i, 1.0, 1.0) * math.factorial(n) == \
                    pytest.approx(want, rel=1e-12)


class TestTimeIntegrals:
    def test_match_cumulative_trapezoid(self):
        """A real running sum of the same trapezoid steps over the full-grid
        derivative samples, bit for bit, on grids with few and many theta
        rows, short and long time axes, and two theta axes."""
        for theta_axes, n_t, text in [
            (((0.0, 1.0, 33),), 129, "t*cos(3*theta_1) + exp(theta_1*t)"),
            (((0.0, 1.0, 300),), 129, "t*cos(3*theta_1) + exp(theta_1*t)"),
            (((0.0, 1.0, 5),), 40_000, "t*cos(3*theta_1) + exp(theta_1*t)"),
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

    def test_mixed_input_fit_peaks_below_2_3_grid_arrays(self):
        """An input whose atom mixes theta and t does not split, so its
        growth fit integrates each derivative on the full grid: the complex
        samples, their magnitudes and the running integral of those, real
        as the magnitudes are.  The fit through order 8 peaks below 2.3
        complex arrays on the full grid."""
        grid = ii.Grid(((0.0, 2 * math.pi, 257),), 1.0, 513)
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2.05*theta_1 - t)", 1))
        assert ii._split(u, grid.dim) is None
        bd.estimate_growth(u, grid, 8)  # memoized derivatives
        tracemalloc.start()
        try:
            bd.estimate_growth(u, grid, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < math.prod(grid.shape) * 16 * 2.3

    def test_split_input_fit_holds_no_grid_sized_array(self):
        """The transport-grid input splits as sin(2.05 theta) * t, so its
        norms come from 1-D samples of the two factors: the fit through
        the certificate's order 24 peaks below 1/16 of one complex array
        on the full grid."""
        grid = ii.Grid.from_spec("0:6.283185307179586:257,0:1:513")
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2.05*theta_1)", 1))
        bd.estimate_growth(u, grid, 24)
        tracemalloc.start()
        try:
            bd.estimate_growth(u, grid, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < math.prod(grid.shape) * 16 / 16


class TestSplitNormSurrogate:
    """A split input's norm stand-in reads its factors: with one time
    group it is the full-grid stand-in up to rounding, with more it is
    the triangle-inequality bound, never below it."""

    GRID = ii.Grid(((-1.0, 2.0, 33),), 0.8, 65)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-3, 3).filter(lambda v: abs(v) > 0.1),
           b=st.floats(0.1, 4), p=st.integers(0, 3),
           c=st.floats(-3, 3).filter(lambda v: abs(v) > 0.1),
           d=st.floats(0.1, 4), q=st.integers(0, 3), order=st.integers(0, 3))
    def test_matches_or_dominates_the_full_grid_stand_in(self, a, b, p, c, d, q, order):
        u = ii.InputSignal.symbolic(ex.parse(
            f"{a!r}*t^{p}*sin({b!r}*theta_1) + {c!r}*t^{q}*cos({d!r}*theta_1)", 1))
        grid = self.GRID
        split = ii._split(u, 1)
        assert len(split) == (1 if p == q else 2)
        lo, hi, _ = grid.theta_axes[0]
        full = (hi - lo) * float(np.max(bd._time_integrals(u, grid, order)))
        surrogate = bd._input_norm_surrogate(u, split, grid, order)
        if len(split) == 1:
            assert surrogate == pytest.approx(full, rel=1e-12)
        else:  # up to the rounding of the full grid's own sums
            assert surrogate >= full * (1 - 1e-12)


class TestGeometricBound:
    """The factorial regime s = 1: the full-series tail (n = -1) is the
    geometric bound K_alpha K_u / (1 - MRT)^2."""

    def test_half_rate_gives_four(self):
        assert bd.gevrey_tail(bd.GrowthData(1, 1, 1, 0.5, 1, 1), -1) == 4.0

    def test_boundary_diverges(self):
        assert bd.gevrey_tail(bd.GrowthData(1, 1, 1, 1.0, 1, 1), -1) == math.inf

    def test_theta_independent_input(self):
        g = bd.GrowthData(2.0, 3.0, 5.0, 0.0, 1, 1)
        assert bd.gevrey_tail(g, -1) == pytest.approx(10.0, rel=1e-12)
        assert bd.gevrey_tail(g, 0) == 0.0

    def test_dominates_transport_evaluation(self):
        # shrink the horizon so MRT = 0.8 < 1, then the uniform bound must
        # dominate the evaluated magnitude
        T = 0.4
        g = transport_growth(V=1.0, omega=2.0, T=T, s=1.0)
        bound = bd.gevrey_tail(g, -1)
        assert math.isfinite(bound)
        grid = ii.Grid(((0.0, 2 * math.pi, 129),), T, 257)
        c = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=12))
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
        y = ii.evaluate_series(c, u, grid)
        assert y.max_abs() <= bound

    @pytest.mark.parametrize("n", [4, 8])
    def test_tail_dominates_truncation_error(self, n):
        # the same case, MRT = 0.8: the tail past n bounds |F - F_n|
        T = 0.4
        grid = ii.Grid(((0.0, 2 * math.pi, 129),), T, 257)
        tail = bd.gevrey_tail(transport_growth(V=1.0, omega=2.0, T=T, s=1.0), n)
        assert transport_error(grid, n) <= tail < bd.gevrey_tail(
            transport_growth(V=1.0, omega=2.0, T=T, s=1.0), -1)

    @pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.9, 0.999])
    def test_closed_form_matches_the_sum(self, x):
        # oracle: math.fsum of (k+1) x^k over k > n, out to where the
        # terms fall below 1e-20 of the smallest tail, which exceeds x^21
        terms = [1.0]
        while x and terms[-1] > 1e-20 * x ** 21:
            terms.append((len(terms) + 1) * x ** len(terms))
        g = bd.GrowthData(1, 1, 1, x, 1, 1)
        for n in range(-1, 21):
            assert math.isclose(bd.gevrey_tail(g, n), math.fsum(terms[n + 1:]),
                                rel_tol=1e-12)

    def test_scales_with_the_constants(self):
        g = bd.GrowthData(1, 0.5, 1, 1.5, 1, 0.8)  # MRT = 0.6
        h = dataclasses.replace(g, K_alpha=3.0, K_u=0.25)
        for n in (-1, 2, 7):
            assert bd.gevrey_tail(h, n) == pytest.approx(0.75 * bd.gevrey_tail(g, n),
                                                         rel=1e-15)

    @pytest.mark.parametrize("n", [-1, 3, 10])
    def test_limit_of_the_subfactorial_sum(self, n):
        # the term-by-term sum at s just below 1 approaches the closed form
        g = bd.GrowthData(1, 1, 1, 0.5, 1, 1)
        assert bd.gevrey_tail(dataclasses.replace(g, s=1 - 1e-12), n) == pytest.approx(
            bd.gevrey_tail(g, n), rel=1e-9)


class TestGevreyTail:
    def test_full_sum_closed_form(self):
        # oracle: partial sums of sum (k+1)/k! = 2e
        total, fact = 0.0, 1.0
        for k in range(60):
            total += (k + 1) / fact
            fact *= k + 1
        assert abs(total - 2 * math.e) < 1e-12
        g = bd.GrowthData(1, 1, 1, 1, 0, 1)
        assert bd.gevrey_tail(g, -1) == pytest.approx(total, abs=1e-12)

    def test_tail_monotone(self):
        g = transport_growth()
        tails = [bd.gevrey_tail(g, n) for n in range(12)]
        for a, b in zip(tails, tails[1:]):
            assert b <= a

    def test_transport_constants_accepted(self):
        g = transport_growth(V=1.0, omega=2.0)
        assert math.isfinite(bd.gevrey_tail(g, 4))

    def test_factorial_regime_accepted(self):
        g = bd.GrowthData(1, 1, 1, 0.5, 1.0, 1)
        assert bd.gevrey_tail(g, 4) == 0.5 ** 5 * (6 - 5 * 0.5) * 4
        for rate in (1.0, 1.5, 1e300):
            assert bd.gevrey_tail(dataclasses.replace(g, R=rate), 4) == math.inf

    def test_sum_past_the_term_guard_ends_in_the_factorial_tail(self):
        g = bd.GrowthData(1, 1, 1, 0.9999, 0.9999, 1)
        head = math.fsum(math.exp(math.log(k + 1) + k * math.log(g.mrt)
                                  + (g.s - 1) * math.lgamma(k + 1)) for k in range(1000))
        tail = bd.gevrey_tail(g, -1)
        assert head <= tail <= bd.gevrey_tail(dataclasses.replace(g, s=1.0), -1)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_truncation_below_minus_one_rejected(self, s):
        with pytest.raises(ValueError, match="at least -1"):
            bd.gevrey_tail(bd.GrowthData(1, 1, 1, 0.5, s, 1), -2)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_truncation_certificate(self, n):
        # |F - F_n| on the grid is dominated by the tail at the measured
        # constants, pointwise
        grid = ii.Grid(((0.0, 2 * math.pi, 129),), 1.0, 513)
        assert transport_error(grid, n) <= bd.gevrey_tail(transport_growth(), n)


class TestEstimateGrowth:
    def test_input_fit_recovers_transport_constants(self):
        grid = ii.Grid(((0.0, 2 * math.pi, 257),), 1.0, 513)
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
        fit = bd.estimate_growth(u, grid, k_max=8)
        assert fit.data.R == pytest.approx(2.0, rel=0.05)
        assert fit.data.K_u == pytest.approx(math.pi, rel=0.05)
        assert fit.residual < 0.05

    @pytest.mark.parametrize("k_max", [1, do.MAX_TERM_DEGREE + 1, 100_000])
    def test_k_max_outside_its_range_is_refused_before_sampling(self, monkeypatch, k_max):
        """No series carries an operator term past MAX_TERM_DEGREE, so no
        certificate reads a fit past it; each order re-walks the
        derivative chain, so k_max 100,000 once ran for minutes."""
        def sampled(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(bd, "_input_norm_surrogate", sampled)
        grid = ii.Grid(((0.0, 1.0, 5),), 1.0, 5)
        u = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 1))
        with pytest.raises(ValueError, match=f"k_max must be in 2..{do.MAX_TERM_DEGREE}"):
            bd.estimate_growth(u, grid, k_max=k_max)

    def test_k_max_at_the_cap_fits(self):
        grid = ii.Grid(((0.0, 1.0, 5),), 1.0, 5)
        u = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 1))
        fit = bd.estimate_growth(u, grid, k_max=do.MAX_TERM_DEGREE)
        assert len(fit.log_norms) == do.MAX_TERM_DEGREE + 1

    def test_theta_independent_input_flagged(self):
        """t^2 has theta-degree 0: one norm, which K_u is, and R = 0."""
        grid = ii.Grid(((0.0, 1.0, 33),), 1.0, 65)
        u = ii.InputSignal.symbolic(ex.parse("t^2", 1))
        fit = bd.estimate_growth(u, grid, k_max=4)
        assert fit.data.R == 0.0
        assert fit.data.K_u == bd._input_norm_surrogate(u, bd._split(u, 1), grid, 0)
        assert len(fit.log_norms) == 1 and fit.residual == 0.0

    def test_theta_degree_is_read_by_axis(self):
        """A Poly over t alone and the parsed t^3, whose first axis is
        theta_1, are one input of theta-degree 0 and get one fit; the
        t-only Poly was once read as theta-degree 3."""
        grid = ii.Grid(((0.0, 1.0, 33),), 1.0, 65)
        fits = [bd.estimate_growth(ii.InputSignal.symbolic(e), grid)
                for e in (ex.intpow(ex.var("t"), 3), ex.parse("t^3", 1))]
        assert fits[0] == fits[1]
        assert len(fits[0].log_norms) == 1 and fits[0].data.R == 0.0

    def test_sampled_input_refused(self):
        """A growth fit reads the input's expression; samples have none."""
        grid = ii.Grid(((0.0, 1.0, 9),), 1.0, 9)
        u = ii.InputSignal.sampled(ii.GridField(grid, np.ones(grid.shape)))
        with pytest.raises(ValueError, match="sampled"):
            bd.estimate_growth(u, grid)

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
        fit = bd._fit_coefficients(norms, 1.0)
        assert fit.data.M == pytest.approx(3.0, rel=1e-9)

    def test_too_few_norms_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            bd._fit_coefficients([1.0, 0.0, 0.0, 0.0], 1.0)

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
        fit = bd._fit_coefficients([math.exp(v) for v in logs], 1.0)
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
        assert fit.data.R > 0
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


class TestCertificateDominatesItsData:
    """tail_certificate raises K_alpha and K_u until K_alpha M^k (k!)^s is
    at least every coefficient sup norm and K_u R^k every input norm it
    was fitted to, k = 0..N (to rounding), however uneven the data.  No
    input is exempt: one whose theta-derivatives are tiny, or cancel
    exactly, is fitted like any other."""

    GRID = ii.Grid.from_spec("0:1:17,0:1:17")

    # {w} is the angular frequency; 1e-15 * sin once passed a 1e-14 test
    # for theta-independence, which set R = 0 under norms of 1e-15
    INPUTS = st.sampled_from(["t*sin({w}*theta_1)",
                              "t*sin({w}*theta_1)^2 + t*cos({w}*theta_1)^2"]
                             + [f"t*(1 + {eps!r}*sin({{w}}*theta_1))"
                                for eps in (1e-20, 1e-15, 1e-12)])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 10).flatmap(lambda n: st.lists(
               st.integers(1, 64).map(lambda j: j / 8), min_size=n + 1, max_size=n + 1)),
           st.sampled_from([0.5, 0.75, 1.0, 1.25, 1.5, 2.0]), st.floats(0.5, 3.0), INPUTS)
    def test_constants_dominate_the_fitted_norms(self, mantissas, r, w, text):
        """alpha_k is a dyadic value in [1/8, 8] times r^k, k = 0..N."""
        alphas = [m * r ** k for k, m in enumerate(mantissas)]
        c = se.series_from_coeffs(1, {word(*["x0"] * k, "x1"): do.monomial(ex.const(a), (k,))
                                      for k, a in enumerate(alphas)})
        u = ii.InputSignal.symbolic(ex.parse(text.format(w=repr(w)), 1))
        cert = bd.tail_certificate(c, u, self.GRID)
        assume(cert is not None)  # a factorial model with M R T >= 1 has no finite tail
        g = cert["constants"]
        for k, a in enumerate(bd._coefficient_sup_norms(c, self.GRID)):
            assert g["K_alpha"] * g["M"] ** k * math.factorial(k) ** g["s"] >= a * (1 - 1e-12)
        split = bd._split(u, 1)
        for k in range(len(alphas)):
            norm = bd._input_norm_surrogate(u, split, self.GRID, k)
            assert g["K_u"] * g["R"] ** k >= norm * (1 - 1e-12)


class TestScaleFreeFit:
    """Multiplying the input by c scales K_u and the tail bound by |c|
    and leaves R and s alone: the expression, not a cut on the norms,
    decides that an input is theta-free."""

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
            assert fit.data.R > 0
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
        assert fit.data.R == 0.0
