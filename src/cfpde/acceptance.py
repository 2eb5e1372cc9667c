"""Acceptance checks: one callable per criterion, each returning a result
with the measured value and its tolerance.  ``cf verify`` prints one line
per criterion; the test suite asserts each result."""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import bounds as bd
from . import diffop as do
from . import expr as ex
from . import iterint as ii
from . import pde
from . import series as se
from . import words as wd
from .words import DRIFT, Letter, Word, word

X1, X2 = Letter(1), Letter(2)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    description: str
    passed: bool
    measured: float
    tolerance: float
    runtime_s: float = 0.0
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{status} criterion {self.number}: {self.description} "
                f"(measured={self.measured:.3e}, tol={self.tolerance:.3e}, "
                f"{self.runtime_s:.1f}s){extra}")


def _standard_grid() -> ii.Grid:
    return ii.Grid(((0.0, 2 * math.pi, 257),), 1.0, 513)


def _transport_exact(th: np.ndarray, t: np.ndarray, V: float, omega: float
                     ) -> np.ndarray:
    return (np.sin(omega * (V * t - th)) + np.sin(omega * th)
            - V * omega * t * np.cos(omega * th)) / (V * omega) ** 2


def criterion_1() -> CriterionResult:
    """Transport solution against its closed form."""
    start = time.monotonic()
    grid = _standard_grid()
    c = pde.transport_series(pde.TransportSpec(V=1, y0=0, N=16))
    u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
    y = ii.evaluate_series(c, u, grid)
    th = grid.theta_points(0)[:, None]
    t = grid.t_points[None, :]
    err = float(np.max(np.abs(y.values - _transport_exact(th, t, 1.0, 2.0))))
    elapsed = time.monotonic() - start
    passed = err <= 1e-5 and elapsed <= 30.0
    return CriterionResult(1, "transport closed form (N=16, 257x513)",
                           passed, err, 1e-5, elapsed,
                           detail=f"runtime limit 30s")


def criterion_2() -> CriterionResult:
    """Pure initial-condition transport: the drift words carry an exact
    Taylor shift of y0."""
    start = time.monotonic()
    grid = _standard_grid()
    c = pde.transport_series(pde.TransportSpec(V=1, y0=ex.parse("sin(theta_1)", 1),
                                               N=20))
    y = ii.evaluate_series(c, ii.InputSignal.zero(), grid)
    th = grid.theta_points(0)[:, None]
    t = grid.t_points[None, :]
    shifted = th - t
    mask = (shifted >= 0.0) & (shifted <= 2 * math.pi)
    err = float(np.max(np.abs((y.values - np.sin(shifted))[mask])))
    return CriterionResult(2, "initial-condition transport vs y0(theta - V t)",
                           err <= 1e-6, err, 1e-6, time.monotonic() - start)


def criterion_3() -> CriterionResult:
    """Wave equation with a time-constant input."""
    start = time.monotonic()
    grid = ii.Grid(((0.0, 2 * math.pi, 257),), 1.0, 1025)
    c = pde.wave_series(15)
    u = ii.InputSignal.symbolic(ex.parse("sin(theta_1)", 1))
    y = ii.evaluate_series(c, u, grid)
    th = grid.theta_points(0)[:, None]
    t = grid.t_points[None, :]
    # independent oracle: sum (-1)^k t^(2k+2) / (2k+2)!
    series_t = np.zeros_like(t)
    for k in range(40):
        term = (-1) ** k * t ** (2 * k + 2) / math.factorial(2 * k + 2)
        series_t = series_t + term
        if np.max(np.abs(term)) < 1e-18:
            break
    oracle = np.sin(th) * series_t
    assert np.max(np.abs(oracle - np.sin(th) * (1 - np.cos(t)))) < 1e-12
    err = float(np.max(np.abs(y.values - oracle)))

    # residual check d2y/dt2 - d2y/dtheta2 = u by finite differences
    vals = y.values.real
    dt, dth = grid.dt, grid.theta_spacing(0)
    ytt = (vals[:, 2:] - 2 * vals[:, 1:-1] + vals[:, :-2]) / dt ** 2
    yqq = (vals[2:, :] - 2 * vals[1:-1, :] + vals[:-2, :]) / dth ** 2
    residual = ytt[1:-1, :] - yqq[:, 1:-1] - np.sin(th[1:-1])
    res = float(np.max(np.abs(residual)))
    passed = err <= 1e-6 and res <= 1e-3
    return CriterionResult(3, "wave equation vs sin(theta)(1 - cos t)",
                           passed, err, 1e-6, time.monotonic() - start,
                           detail=f"pde residual {res:.2e} <= 1e-3")


def criterion_4() -> CriterionResult:
    """Truncation certificate: the measured N=8 vs N=16 difference is
    dominated by the Gevrey tail at the fitted constants."""
    start = time.monotonic()
    grid = _standard_grid()
    u_expr = ex.parse("t*sin(2*theta_1)", 1)
    u = ii.InputSignal.symbolic(u_expr)
    c16 = pde.transport_series(pde.TransportSpec(V=1, y0=0, N=16))
    c8 = pde.transport_series(pde.TransportSpec(V=1, y0=0, N=8))
    f16 = ii.evaluate_series(c16, u, grid)
    f8 = ii.evaluate_series(c8, u, grid)
    diff = float(np.max(np.abs(f16.values - f8.values)))

    # the certificate cf solve and cf eval report for the N = 8 series
    cert = bd.tail_certificate(c8, u, grid)
    g = cert["constants"] if cert else {}
    expected = {"K_alpha": 1.0, "M": 1.0, "K_u": math.pi, "R": 2.0}
    fit_ok = (cert is not None
              and all(abs(g[k] - v) <= 0.05 * v for k, v in expected.items())
              and g["s"] <= 0.05)
    tail = cert["tail"] if cert else math.inf
    passed = fit_ok and diff <= tail
    detail = (f"fitted K_a={g['K_alpha']:.3f} M={g['M']:.3f} K_u={g['K_u']:.3f} "
              f"R={g['R']:.3f} s={g['s']:.3f}" if cert else "no certificate")
    return CriterionResult(4, "Gevrey tail dominates |F_16 - F_8|",
                           passed, diff, tail, time.monotonic() - start,
                           detail=detail)


def criterion_5() -> CriterionResult:
    """Exhaustive shuffle combinatorics on a two-letter alphabet."""
    start = time.monotonic()
    letters = (DRIFT, X1)

    def words_of_len(n: int) -> list[Word]:
        out = [Word()]
        for _ in range(n):
            out = [Word((l,) + w.letters) for w in out for l in letters]
        return out

    all_words = {n: words_of_len(n) for n in range(9)}
    worst = 0.0
    for n1 in range(9):
        for n2 in range(9 - n1):
            for w1 in all_words[n1]:
                for w2 in all_words[n2]:
                    counts = wd.shuffle_words(w1, w2)
                    target = math.comb(n1 + n2, n1)
                    worst = max(worst, abs(sum(counts.values()) - target))
                    if counts != wd.shuffle_words(w2, w1):
                        worst = max(worst, 1.0)
    # associativity on all triples of length <= 3
    small = [w for n in range(4) for w in all_words[n]]

    def extend(counts: dict[Word, int], shuffle) -> Counter:
        """The sum over w of counts[w] * shuffle(w)."""
        out = Counter()
        for w, m in counts.items():
            for v, n in shuffle(w).items():
                out[v] += m * n
        return out

    for a in small:
        for b in small:
            ab = wd.shuffle_words(a, b)
            for c in small:
                left = extend(ab, lambda w: wd.shuffle_words(w, c))
                right = extend(wd.shuffle_words(b, c), lambda w: wd.shuffle_words(a, w))
                if left != right:
                    worst = max(worst, 1.0)
    elapsed = time.monotonic() - start
    passed = worst == 0.0 and elapsed <= 5.0
    return CriterionResult(5, "shuffle multiplicities, commutativity, associativity",
                           passed, worst, 0.0, elapsed,
                           detail="runtime limit 5s")


def _random_gentle_input(rng: np.random.Generator, axis: int) -> ex.Poly:
    amp = rng.uniform(0.1, 0.2)
    freq = rng.uniform(0.3, 0.6)
    base = rng.uniform(0.4, 0.8)
    slope = rng.uniform(0.1, 0.3)
    theta = ex.var(f"theta_{axis}")
    return ex.mul(ex.const(amp), ex.sin(ex.mul(ex.const(freq), theta)),
                  ex.add(ex.const(base), ex.mul(ex.const(slope), ex.var("t"))))


def criterion_6() -> CriterionResult:
    """Parallel product: shuffle on disjoint parameters matches the
    pointwise product; the overlapping case errors and the naive result
    demonstrably differs."""
    start = time.monotonic()
    rng = np.random.default_rng(20240917)
    c = se.series_from_coeffs(2, {word("x1"): do.monomial(ex.ONE, (1, 0))})
    d = se.series_from_coeffs(2, {word("x2"): do.monomial(ex.ONE, (0, 1))})
    sh = se.shuffle_series(c, d)
    grid = ii.Grid(((0.0, 1.0, 65), (0.0, 1.0, 65)), 1.0, 129)
    u1 = ii.InputSignal.symbolic(_random_gentle_input(rng, 1))
    u2 = ii.InputSignal.symbolic(_random_gentle_input(rng, 2))
    binding = {1: u1, 2: u2}
    left = ii.evaluate_series(sh, binding, grid)
    right = (ii.evaluate_series(c, binding, grid).values
             * ii.evaluate_series(d, binding, grid).values)
    err = float(np.max(np.abs(left.values - right)))

    # same-parameter case: precondition fires ...
    c1 = se.series_from_coeffs(1, {word("x1"): do.monomial(ex.ONE, (1,))})
    raised = False
    try:
        se.shuffle_series(c1, c1)
    except se.OverlappingSupport:
        raised = True
    # ... and the naive expansion really is wrong somewhere
    naive = se._shuffle_series_raw(c1, c1)
    g1 = ii.Grid(((0.0, 2 * math.pi, 129),), 1.0, 257)
    u = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 1))
    naive_vals = ii.evaluate_series(naive, u, g1).values
    true_vals = ii.evaluate_series(c1, u, g1).values ** 2
    gap = float(np.max(np.abs(naive_vals - true_vals)))
    passed = err <= 1e-6 and raised and gap > 1e-2
    return CriterionResult(6, "parallel product morphism on disjoint parameters",
                           passed, err, 1e-6, time.monotonic() - start,
                           detail=f"overlap raised={raised}, naive gap {gap:.3f} > 1e-2")


def criterion_7() -> CriterionResult:
    """Series product: word algebra, the operator product of the simple
    linear cascade, exactly, and the numeric cascade oracle."""
    start = time.monotonic()
    theta = ex.var("theta_1")
    A = do.monomial(theta, (1,))
    B = do.monomial(ex.intpow(theta, 2), (1,))
    AB = do.op_mul(A, B)
    ok_words = ops_equal = True
    for k in range(9):
        for l in range(9 - k):
            ck = se.series_from_coeffs(1, {Word((DRIFT,) * k + (X1,)): A})
            dl = se.series_from_coeffs(1, {Word((DRIFT,) * l + (X2,)): B})
            comp = se.compose(ck, dl)
            target = Word((DRIFT,) * (k + l + 1) + (X2,))
            if set(comp.coeffs) != {target}:
                ok_words = False
                continue
            ops_equal = ops_equal and comp.coefficient(target) == AB

    # numeric cascade oracle
    c = se.series_from_coeffs(1, {word("x1"): A})
    d = se.series_from_coeffs(1, {word("x2"): B})
    cd = se.compose(c, d)
    grid = ii.Grid(((0.2, 1.2, 201),), 1.0, 201)
    u = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 1))
    direct = ii.evaluate_series(cd, {2: u}, grid)
    inner = ii.evaluate_series(d, {2: u}, grid)
    outer = ii.evaluate_series(c, {1: ii.InputSignal.sampled(inner)}, grid)
    cascade_err = float(np.max(np.abs(direct.values - outer.values)))
    passed = ok_words and ops_equal and cascade_err <= 1e-4
    return CriterionResult(7, "series product algebra and cascade oracle",
                           passed, cascade_err, 1e-4, time.monotonic() - start,
                           detail=f"operators equal={ops_equal}, words ok={ok_words}")


def criterion_8() -> CriterionResult:
    """The geometric inverse I + R of the first-order integral operator
    I + F: (I + R)(I + F) = I, that is R + F + R o F vanishes through
    length 8, exactly; the number of its nonzero words."""
    start = time.monotonic()
    nonzero = len(pde.first_order_residual(1.5, 8).coeffs)
    return CriterionResult(8, "first-order inverse cancels the forward series",
                           nonzero == 0, nonzero, 0.0, time.monotonic() - start)


def criterion_9() -> CriterionResult:
    """The three second-order representations agree coefficient by
    coefficient, exactly, including the explicit half-weight partial
    fraction form of the wave series: the number of unequal pairs."""
    start = time.monotonic()
    n = 10
    forms = {}
    for form in pde.SecondOrderForm:
        forms[form] = pde.second_order_series(
            pde.SecondOrderSpec(0, -1, 0, 0, n, form))
    words_union = set()
    for s in forms.values():
        words_union |= set(s.coeffs)
    unequal = 0
    base = forms[pde.SecondOrderForm.DIRECT]
    for other in (pde.SecondOrderForm.CASCADE, pde.SecondOrderForm.PARTIAL_FRACTION):
        for w in words_union:
            if len(w) > n:
                continue
            unequal += base.coefficient(w) != forms[other].coefficient(w)
    # explicit half weights: 1/2 (-d)^k + 1/2 d^k on x0^(k+1) x1
    half = ex.const(0.5)
    for k in range(n):
        target = Word((DRIFT,) * (k + 1) + (X1,))
        expected = do.op_add(
            do.op_scale(half, do.op_pow(do.op_scale(ex.const(-1), do.partial(1)), k)),
            do.op_scale(half, do.op_pow(do.partial(1), k)))
        unequal += forms[pde.SecondOrderForm.PARTIAL_FRACTION].coefficient(target) != expected
    # a non-wave instance with symbolic initial data
    y0 = ex.sin(ex.var("theta_1"))
    specs = [pde.second_order_series(pde.SecondOrderSpec(3, 2, y0, 1, 6, f))
             for f in pde.SecondOrderForm]
    for s_other in specs[1:]:
        for w in set(specs[0].coeffs) | set(s_other.coeffs):
            unequal += specs[0].coefficient(w) != s_other.coefficient(w)
    return CriterionResult(9, "second-order forms agree coefficient-wise",
                           unequal == 0, float(unequal), 0.0, time.monotonic() - start)


def criterion_10() -> CriterionResult:
    """Bounds suite: Hoelder dominance, the exact geometric bound (the
    full-series tail at s = 1), K_E = 1 through degree 100 in exact
    integers, and the closed-form Gevrey sum."""
    start = time.monotonic()
    rng = np.random.default_rng(10)
    grid = ii.Grid(((0.0, 1.0, 129),), 1.0, 257)
    worst_violation = -math.inf
    for _ in range(20):
        # The estimate compares a pointwise value against a norm that
        # integrates over theta, so it only dominates inputs whose
        # per-theta time-L1 profile stays near its theta average; sample
        # a dominant theta-constant component plus a gentle ripple.
        base = rng.uniform(0.7, 1.0)
        a = rng.uniform(0.0, 0.25) * base
        w1 = rng.uniform(0.5, 3.0)
        c0, c1, c2 = rng.uniform(0.3, 1.0, size=3)
        u_expr = ex.mul(
            ex.add(ex.const(base),
                   ex.mul(ex.const(a), ex.sin(ex.mul(ex.const(w1), ex.var("theta_1"))))),
            ex.add(ex.const(c0), ex.mul(ex.const(c1), ex.var("t")),
                   ex.mul(ex.const(c2), ex.intpow(ex.var("t"), 2))))
        u = ii.InputSignal.symbolic(u_expr)
        field = ii.iterated_integral(word("x0", "x1", "x0"), u, grid)
        norm = bd.input_l1_norm(u, grid)
        bound = bd.holder_bound(1, 1, 1.0, norm)
        worst_violation = max(worst_violation, field.max_abs() - bound)
    holder_ok = worst_violation <= 0.0

    geo = bd.gevrey_tail(bd.GrowthData(1, 1, 1, 0.5, 1, 1), -1)
    geo_ok = geo == 4.0

    # the Hoelder prefactor times n! is a binomial probability, so
    # i^i j^j n! <= i! j! n^n for i + j = n (K_E = 1), equal only at the ends
    f = [math.factorial(k) for k in range(101)]
    sides = ((i ** i * (n - i) ** (n - i) * f[n], f[i] * f[n - i] * n ** n, i in (0, n))
             for n in range(101) for i in range(n + 1))
    ke_ok = all(lhs == rhs if end else lhs < rhs for lhs, rhs, end in sides)

    g0 = bd.GrowthData(1, 1, 1, 1, 0, 1)
    gevrey_err = abs(bd.gevrey_tail(g0, -1) - 2 * math.e)
    gevrey_ok = gevrey_err <= 1e-12

    passed = holder_ok and geo_ok and ke_ok and gevrey_ok
    return CriterionResult(
        10, "bounds suite", passed, gevrey_err, 1e-12,
        time.monotonic() - start,
        detail=(f"holder slack {-worst_violation:.2e} >= 0, bound(1/2)={geo}, "
                f"K_E=1 {'checked' if ke_ok else 'FAILED'} in integers to degree 100"))


CRITERIA: Sequence[Callable[[], CriterionResult]] = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
)


def run(only: Iterable[int] | None = None, log=None) -> list[CriterionResult]:
    selected = set(only) if only else set(range(1, len(CRITERIA) + 1))
    results = []
    for number in sorted(selected):
        if not 1 <= number <= len(CRITERIA):
            raise ValueError(f"no criterion {number}")
        result = CRITERIA[number - 1]()
        results.append(result)
        if log is not None:
            log(result.line())
    return results
