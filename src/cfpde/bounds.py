"""Convergence machinery for linear one-parameter series.

Everything here quantifies the absolute size of the terms
alpha_{i+j}(theta) d^{i+j}/dtheta^{i+j} E_{x0^i x1 x0^j}[u]:

* ``holder_bound``    - the Hoelder estimate on a single linear-word
  integral, i^i j^j T^(i+j) / (i! j! (i+j)^(i+j)) times the L1 norm of
  the differentiated input.
* ``stirling_KE``     - the least constant folding that estimate into
  K_E T^(i+j)/(i+j)!, computed by scanning degrees and certifying that
  the maximand keeps decreasing well past the argmax.
* ``geometric_bound`` - factorial coefficient growth: the series
  converges when M*R*T < 1 with bound K_alpha K_E K_u / (1 - MRT)^2.
* ``gevrey_tail``     - sub-factorial growth (k!)^s with s < 1: the tail
  sum K_alpha K_E K_u sum_{k>N} (k+1) (MRT)^k (k!)^(s-1), finite for any
  horizon, usable as a truncation certificate.
* ``estimate_growth`` - least-squares fits of the growth constants from a
  symbolic input or from a series' coefficient functions.

Only series supported on pure-drift and single-input words are covered;
evaluation of nonlinear series carries no certificate.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from . import expr as ex
from ._record import record
# cumulative_trapezoid is not called here; perfbench/tracing.py wraps it
# under this module's name too
from .iterint import Grid, InputSignal, cumulative_trapezoid  # noqa: F401
from .series import GenSeries

__all__ = [
    "GrowthData", "GeometricBound", "StirlingConstant", "GrowthFit",
    "holder_bound", "stirling_KE", "geometric_bound", "gevrey_tail",
    "estimate_growth", "input_l1_norm",
]

_TINY_TERM = 1e-300


@record
class GrowthData:
    """Growth constants: sup-norm of the degree-k coefficient bounded by
    K_alpha * M^k * (k!)^s and the L1 norm of the k-th input derivative by
    K_u * R^k, on a theta interval of the given length and horizon T."""

    K_alpha: float
    M: float
    K_u: float
    R: float
    s: float
    T: float
    length: float

    def __post_init__(self):
        values = (self.K_alpha, self.M, self.K_u, self.R, self.s, self.T, self.length)
        if not all(map(math.isfinite, values)):  # nan passes every comparison below
            raise ValueError("growth constants must be finite")
        if min(self.K_alpha, self.M, self.K_u, self.T, self.length) <= 0:
            raise ValueError("growth constants must be positive")
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        if not 0 <= self.s <= 1:
            raise ValueError("s must lie in [0, 1]")

    @property
    def mrt(self) -> float:
        return self.M * self.R * self.T


def holder_bound(i: int, j: int, T: float, norm1: float) -> float:
    """Bound on |E_{x0^i x1 x0^j}[v]| over the domain given the L1 norm of
    v, with the 0^0 = 1 convention so boundary indices degenerate."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    if T < 0 or norm1 < 0:
        raise ValueError("T and the norm must be nonnegative")
    n = i + j
    if n == 0:
        return norm1
    if T == 0 or norm1 == 0:
        return 0.0
    return math.exp(_log_prefactor(i, j) + n * math.log(T)) * norm1


def _log_prefactor(i: int, j: int) -> float:
    """log of i^i j^j / (i! j! (i+j)^(i+j)) with 0^0 = 1."""
    out = 0.0
    if i > 0:
        out += i * math.log(i) - math.lgamma(i + 1)
    if j > 0:
        out += j * math.log(j) - math.lgamma(j + 1)
    n = i + j
    if n > 0:
        out -= n * math.log(n)
    return out


@record
class StirlingConstant:
    value: float
    argmax: tuple[int, int]
    scanned_degree: int
    certified_through: int

    def __float__(self):
        return self.value


def _ke_degree_maxima(last: int) -> list[tuple[float, int]]:
    """For each degree n <= last, the largest maximand
    i^i j^j n! / (i! j! n^n) over i + j = n, and the first i attaining it.

    The log of a maximand is the sum _log_prefactor forms, in the same
    order, plus lgamma(n + 1); k log k - lgamma(k + 1) comes from one table
    (0 for k = 0, the 0^0 = 1 convention), one lgamma per integer."""
    part = [0.0] + [k * math.log(k) - math.lgamma(k + 1) for k in range(1, last + 1)]
    out = []
    for n in range(last + 1):
        log_nn = n * math.log(n) if n > 0 else 0.0
        log_fact = math.lgamma(n + 1)
        values = [math.exp(((part[i] + part[n - i]) - log_nn) + log_fact)
                  for i in range(n + 1)]
        best = max(values)
        out.append((best, values.index(best)))
    return out


def stirling_KE(max_degree: int, detail: bool = False
                ) -> Union[float, StirlingConstant]:
    """The least K_E with the Hoelder prefactor <= K_E / (i+j)! for all
    i+j <= max_degree, plus a certificate that the per-degree maximum is
    non-increasing over a 2x window past the argmax."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    # the certificate window ends at most at max(2 max_degree, argmax + 2)
    maxima = _ke_degree_maxima(max(2 * max_degree, max_degree + 2))
    arg = max(range(max_degree + 1), key=lambda n: maxima[n][0])  # the first
    best, i_best = maxima[arg]
    window_end = max(2 * max_degree, arg + 2, 2)
    prev = best
    for n in range(arg + 1, window_end + 1):
        m = maxima[n][0]
        if m > prev * (1 + 1e-12):
            raise ArithmeticError(
                f"maximand increased at degree {n}; boundedness certificate failed")
        prev = m
    result = StirlingConstant(best, (i_best, arg - i_best), max_degree, window_end)
    return result if detail else result.value


@record
class GeometricBound:
    converges: bool
    bound: float


def geometric_bound(g: GrowthData, K_E: float | None = None) -> GeometricBound:
    """Factorial-growth regime (s = 1): convergent iff M*R*T < 1, with the
    uniform bound K_alpha K_E K_u / (1 - MRT)^2."""
    if g.s != 1:
        raise ValueError("geometric_bound applies to the s = 1 regime")
    if K_E is None:
        K_E = stirling_KE(50)
    mrt = g.mrt
    if mrt >= 1:
        return GeometricBound(False, math.inf)
    return GeometricBound(True, g.K_alpha * K_E * g.K_u * (1 - mrt) ** -2)


def gevrey_tail(g: GrowthData, n: int, K_E: float | None = None) -> float:
    """Tail bound past truncation n for sub-factorial growth (s < 1):
    K_alpha K_E K_u * sum_{k>n} (k+1) (MRT)^k (k!)^(s-1).  n = -1 gives
    the full-series bound.  A sum past the largest float is math.inf."""
    if not 0 <= g.s < 1:
        raise ValueError("gevrey_tail applies to the 0 <= s < 1 regime")
    if K_E is None:
        K_E = stirling_KE(50)
    mrt = g.mrt
    if mrt == math.inf:  # M*R*T itself is past the largest float
        return math.inf
    total = 0.0
    k = n + 1 if n >= 0 else 0
    log_mrt = math.log(mrt) if mrt > 0 else -math.inf
    while True:
        if mrt == 0:
            term = (k + 1.0) if k == 0 else 0.0
        else:
            try:
                term = math.exp(math.log(k + 1.0) + k * log_mrt
                                + (g.s - 1) * math.lgamma(k + 1))
            except OverflowError:
                return math.inf
        total += term
        if total == math.inf:
            return math.inf
        if term < _TINY_TERM and k > n + 2:
            break
        k += 1
        if k > 100000:
            raise ArithmeticError("tail summation failed to converge")
    return g.K_alpha * K_E * g.K_u * total


# ---------------------------------------------------------------------------
# numeric estimation of growth constants

@record
class GrowthFit:
    data: GrowthData
    log_norms: tuple[float, ...]
    residual: float
    theta_independent: bool = False


_FIT_BLOCK = 16384  # grid points per block of the growth fit


def _time_integrals(u: InputSignal, grid: Grid, order: int) -> np.ndarray:
    """Per-theta trapezoid integral over [0, T] of the magnitude of the
    order-th theta-derivative.

    A symbolic input is evaluated on blocks of theta_1 rows, each a slice
    of grid.meshes(), so every sample goes through the arithmetic of a
    full-grid evaluation.  A block holds _FIT_BLOCK grid points, or one
    row when a row alone holds more, and is reduced to its time integrals
    before the next one is formed: the fit never holds a full-grid array,
    only a few arrays of one block.  A sampled input is differentiated on
    the full grid."""
    if not u.is_symbolic:
        return _row_integrals(u.derivative_values(grid, (order,)), grid.dt)
    e = ex.differentiate(u.expr, "theta_1", order) if order else u.expr
    meshes = grid.meshes()
    theta_1 = meshes["theta_1"]
    n = len(theta_1)
    rows = max(1, _FIT_BLOCK // math.prod(grid.shape[1:]))
    out = np.empty(grid.shape[:-1])
    for r0 in range(0, n, rows):
        meshes["theta_1"] = theta_1[r0:r0 + rows]
        values = np.asarray(ex.evaluate(e, meshes), dtype=np.complex128)
        shape = (min(rows, n - r0),) + grid.shape[1:]
        out[r0:r0 + rows] = _row_integrals(np.broadcast_to(values, shape), grid.dt)
    return out


def _row_integrals(values: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid integral of |values| over the time axis, the last one."""
    values = np.abs(np.moveaxis(values, -1, 0))
    # the steps and running sum of cumulative_trapezoid, on real numbers;
    # cumsum adds in time order, where np.sum would add pairwise
    steps = values[:-1] + values[1:]
    steps *= 0.5 * dt
    return np.cumsum(steps, axis=0)[-1]


def input_l1_norm(u: InputSignal, grid: Grid, order: int = 0) -> float:
    """Tensor-trapezoid L1 norm of the order-th theta-derivative over the
    full (theta, t) domain (one-parameter grids)."""
    if grid.dim != 1:
        raise ValueError("L1 norms are defined for one-parameter grids here")
    return float(np.trapezoid(_time_integrals(u, grid, order),
                              dx=grid.theta_spacing(0)))


def _input_norm_surrogate(u: InputSignal, grid: Grid, order: int) -> float:
    """Conservative stand-in for the L1 norm: interval length times the
    largest per-theta time integral.  Always >= the tensor-trapezoid L1
    norm, so certificates computed from it remain valid."""
    a, b, _ = grid.theta_axes[0]
    return float((b - a) * np.max(_time_integrals(u, grid, order)))


def _fit_input(u: InputSignal, grid: Grid, k_max: int) -> GrowthFit:
    norms = [_input_norm_surrogate(u, grid, k) for k in range(k_max + 1)]
    a, b, _ = grid.theta_axes[0]
    base = GrowthData(K_alpha=1.0, M=1.0, K_u=max(norms[0], _TINY_TERM),
                      R=0.0, s=0.0, T=grid.t_end, length=b - a)
    if all(n < 1e-14 * max(norms[0], 1.0) for n in norms[1:]):
        return GrowthFit(base, tuple(math.log(max(n, _TINY_TERM)) for n in norms),
                         0.0, theta_independent=True)
    ks = np.arange(k_max + 1, dtype=float)
    logs = np.log(np.maximum(norms, _TINY_TERM))
    design = np.stack([np.ones_like(ks), ks], axis=1)
    sol, *_ = np.linalg.lstsq(design, logs, rcond=None)
    fitted = design @ sol
    residual = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    data = base.replace(K_u=math.exp(sol[0]), R=math.exp(sol[1]))
    return GrowthFit(data, tuple(logs), residual)


def _coefficient_sup_norms(c: GenSeries, grid: Grid) -> list[float]:
    """Per-degree sup norms of the coefficient functions of the linear
    input words, sampled on the theta grid.  The word x0^i x1 x0^j is read
    as alpha_{i+j} d^{i+j}, so the norm at degree k is the largest
    magnitude of the D^k coefficient among words with k drift letters."""
    if c.dim != 1:
        raise ValueError("coefficient fits are defined for one-parameter series")
    theta = {"theta_1": grid.theta_points(0)}
    by_degree: dict[int, float] = {}
    for w, op in c.coeffs.items():
        if w.input_letter_count() != 1:
            continue
        k = len(w) - 1
        coeff = op.terms.get((k,))
        if coeff is None:
            continue
        sup = float(np.max(np.abs(np.asarray(ex.evaluate(coeff, theta)))))
        by_degree[k] = max(by_degree.get(k, 0.0), sup)
    if not by_degree:
        raise ValueError("no linear input words with matching-degree terms")
    return [by_degree.get(k, 0.0) for k in range(max(by_degree) + 1)]


def _fit_coefficients(norms: Sequence[float], T: float, length: float) -> GrowthFit:
    usable = [(k, n) for k, n in enumerate(norms) if n > 0]
    if len(usable) < 3:
        raise ValueError("need at least 3 nonzero norms to fit growth constants")
    ks = np.array([k for k, _ in usable], dtype=float)
    logs = np.log([n for _, n in usable])
    log_fact = np.array([math.lgamma(k + 1) for k in ks])
    design = np.stack([np.ones_like(ks), ks, log_fact], axis=1)
    sol, *_ = np.linalg.lstsq(design, logs, rcond=None)
    fitted = design @ sol
    residual = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    s = min(max(sol[2], 0.0), 1.0)
    data = GrowthData(K_alpha=math.exp(sol[0]), M=math.exp(sol[1]),
                      K_u=1.0, R=1.0, s=s, T=T, length=length)
    return GrowthFit(data, tuple(logs), residual)


def estimate_growth(target: Union[InputSignal, GenSeries, Sequence[float]],
                    grid: Grid, k_max: int = 8) -> GrowthFit:
    """Fit growth constants from data.

    * InputSignal: fits K_u, R from the derivative norms (conservative
      interval-length * sup-theta surrogate of the L1 norm); flags the
      theta-independent R = 0 regime.
    * GenSeries or a plain norm sequence: fits K_alpha, M, s from the
      coefficient sup norms.

    The residual (rms log-misfit) is reported so hypothesis quality can be
    judged before trusting a certificate built from the fit.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    a, b, _ = grid.theta_axes[0]
    if isinstance(target, InputSignal):
        return _fit_input(target, grid, k_max)
    if isinstance(target, GenSeries):
        norms = _coefficient_sup_norms(target, grid)[:k_max + 1]
    else:
        norms = list(target)[:k_max + 1]
    return _fit_coefficients(norms, grid.t_end, b - a)
