"""Convergence machinery for linear one-parameter series.

Everything here quantifies the absolute size of the terms
alpha_{i+j}(theta) d^{i+j}/dtheta^{i+j} E_{x0^i x1 x0^j}[u]:

* ``holder_bound``    - the Hoelder estimate on a single linear-word
  integral, i^i j^j T^(i+j) / (i! j! (i+j)^(i+j)) times the L1 norm of
  the differentiated input.  It is at most T^(i+j)/(i+j)! times that
  norm: the constant K_E folding it into that form is exactly 1.
* ``gevrey_tail``     - the bound past a truncation N for coefficient
  growth (k!)^s, 0 <= s <= 1: K_alpha K_u sum_{k>N} (k+1) (MRT)^k
  (k!)^(s-1).  For s < 1 it is finite for any horizon; the factorial
  case s = 1 sums in closed form and converges when M*R*T < 1, and its
  N = -1 value is the geometric bound K_alpha K_u / (1 - MRT)^2.
* ``estimate_growth`` - least-squares fits of the growth constants from a
  symbolic input (a separable one read from its split's factors) or
  from a series' coefficient functions.
* ``tail_certificate`` - the two fits spliced into one set of constants
  and the bound they give past the series' truncation N, as ``cf solve``
  and ``cf eval`` report it: the input model dominates the norms it was
  fitted to through order N, and past N it is an extrapolation.

Only series of the constant-velocity transport shape are certified
(``series.linear_degree``); any other series carries no certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

from . import expr as ex
from .diffop import MAX_TERM_DEGREE
# iterint before numpy, so that it is compiled before numpy is imported
# (see cli._evaluation_errors)
from .iterint import Grid, InputSignal, _as_binding, _sample_split, _split, cumulative_trapezoid
from .series import GenSeries, linear_degree

import numpy as np  # noqa: E402

__all__ = [
    "GrowthData", "GrowthFit", "holder_bound", "gevrey_tail",
    "estimate_growth", "input_l1_norm", "tail_certificate",
]

_TINY_TERM = 1e-300


@dataclass(frozen=True)
class GrowthData:
    """Growth constants: sup-norm of the degree-k coefficient bounded by
    K_alpha * M^k * (k!)^s and the L1 norm of the k-th input derivative by
    K_u * R^k, over the horizon T."""

    K_alpha: float
    M: float
    K_u: float
    R: float
    s: float
    T: float

    def __post_init__(self):
        values = (self.K_alpha, self.M, self.K_u, self.R, self.s, self.T)
        if not all(map(math.isfinite, values)):  # nan passes every comparison below
            raise ValueError("growth constants must be finite")
        if min(self.K_alpha, self.M, self.K_u, self.T) <= 0:
            raise ValueError("growth constants must be positive")
        if self.R < 0:
            raise ValueError("R must be nonnegative")
        if not 0 <= self.s <= 1:
            raise ValueError("s must lie in [0, 1]")

    @property
    def mrt(self) -> float:
        return self.M * self.R * self.T

    def as_dict(self) -> dict[str, float]:
        """The constants by name, as reports print them."""
        return {name: getattr(self, name) for name in self.__match_args__}


def holder_bound(i: int, j: int, T: float, norm1: float) -> float:
    """Bound on |E_{x0^i x1 x0^j}[v]| over the domain given the L1 norm of
    v, with the 0^0 = 1 convention so boundary indices degenerate.

    The prefactor i^i j^j / (i! j! n^n), n = i + j, is at most 1/n!: times
    n! it is the binomial probability C(n, i) p^i (1-p)^j at p = i/n,
    which is at most 1, with equality at i = 0 or j = 0.  So the bound
    is at most T^n/n! times the norm, the K_E = 1 of the tail sums."""
    if i < 0 or j < 0:
        raise ValueError("indices must be nonnegative")
    if T < 0 or norm1 < 0:
        raise ValueError("T and the norm must be nonnegative")
    n = i + j
    if n == 0:
        return norm1
    if T == 0 or norm1 == 0:
        return 0.0
    log_prefactor = 0.0  # k^k / k! is 1 at k = 0
    for k in (i, j):
        if k:
            log_prefactor += k * math.log(k) - math.lgamma(k + 1)
    return math.exp(log_prefactor - n * math.log(n) + n * math.log(T)) * norm1


def gevrey_tail(g: GrowthData, n: int) -> float:
    """Bound on the tail past truncation n, K_alpha K_u sum_{k>n} (k+1)
    x^k (k!)^(s-1) with x = M*R*T; n = -1 gives the full-series bound.

    Factorial growth (s = 1) sums in closed form, K_alpha K_u x^(n+1)
    ((n+2) - (n+1) x) / (1 - x)^2, and diverges (math.inf) when x >= 1;
    at n = -1 this is the geometric bound K_alpha K_u / (1 - x)^2.
    Sub-factorial growth (s < 1) converges for every x, and is summed
    term by term; a sum past the largest float is math.inf.  A sum still
    running after 100,000 terms with x < 1 ends in the s = 1 tail past
    its last term."""
    if n < -1:
        raise ValueError("the truncation n must be at least -1")
    mrt = g.mrt
    if g.s == 1:
        if mrt >= 1:
            return math.inf
        return (g.K_alpha * g.K_u * mrt ** (n + 1) * ((n + 2) - (n + 1) * mrt)
                * (1 - mrt) ** -2)
    total = 0.0
    log_mrt = math.log(mrt) if mrt > 0 else -math.inf
    for k in range(n + 1, n + 100001):  # at most 100,000 terms
        try:  # k * log_mrt is nan at k = 0 when M*R*T is 0 or inf
            term = math.exp(math.log(k + 1.0) + (k * log_mrt if k else 0.0)
                            + (g.s - 1) * math.lgamma(k + 1))
        except OverflowError:
            return math.inf
        total += term
        if total == math.inf:
            return math.inf
        if term < _TINY_TERM and k > n + 2:
            return g.K_alpha * g.K_u * total
    if mrt >= 1:
        raise ArithmeticError("tail summation failed to converge")
    # each term is at most its s = 1 term, as (k!)^(s-1) <= 1
    return g.K_alpha * g.K_u * total + gevrey_tail(replace(g, s=1.0), k)


# ---------------------------------------------------------------------------
# numeric estimation of growth constants

@dataclass(frozen=True)
class GrowthFit:
    data: GrowthData
    log_norms: tuple[float, ...]
    residual: float


def _time_integrals(u: InputSignal, grid: Grid, order: int) -> np.ndarray:
    """Per-theta trapezoid integral over [0, T] of the magnitude of the
    order-th theta-derivative, from its samples on the full grid."""
    return _row_integrals(u.derivative_values(grid, (order,)), grid.dt)


def _row_integrals(values: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid integral of |values| over the time axis, the last one."""
    return cumulative_trapezoid(np.abs(np.moveaxis(values, -1, 0)), dt)[-1]


def input_l1_norm(u: InputSignal, grid: Grid) -> float:
    """Tensor-trapezoid L1 norm of u over the full (theta, t) domain
    (one-parameter grids)."""
    if grid.dim != 1:
        raise ValueError("L1 norms are defined for one-parameter grids here")
    return float(np.trapezoid(_time_integrals(u, grid, 0),
                              dx=grid.theta_spacing(0)))


def _input_norm_surrogate(u: InputSignal, split: list | None, grid: Grid,
                          order: int) -> float:
    """Conservative stand-in for the L1 norm of the order-th
    theta-derivative: interval length times the largest per-theta time
    integral, always >= the tensor-trapezoid L1 norm.  A split input
    (iterint._split) bounds that integral from 1-D samples of its
    factors by sum_g |d^k F_g(theta)| int |G_g| dt, equal to it for one
    group; any other input is integrated on the full grid."""
    a, b, _ = grid.theta_axes[0]
    if split is None:
        per_theta = _time_integrals(u, grid, order)
    else:
        per_theta = sum((np.abs(f) * _row_integrals(g, grid.dt)
                         for _, f, g in _sample_split(split, (order,), grid)), 0.0)
    return float((b - a) * np.max(per_theta))


def _least_squares(columns: Sequence[Sequence[float]], y: Sequence[float]
                   ) -> tuple[list[float], float]:
    """Least-squares fit y ~ c_0 + sum_i c_i columns[i], in plain Python
    for the few points and columns of a growth fit: [c_0, c_1, ...] and
    the rms residual.  Centring the columns and y takes c_0 out; the
    centred columns are orthogonalised in turn (modified Gram-Schmidt),
    each taken out of y as it is formed, and c_1.. follow by back
    substitution.  Every sum is math.fsum, correctly rounded."""
    n = len(y)
    means = [math.fsum(c) / n for c in columns]
    y_mean = math.fsum(y) / n
    q = [[v - m for v in c] for c, m in zip(columns, means)]
    rest = [v - y_mean for v in y]
    k = len(q)
    r = [[0.0] * k for _ in range(k)]  # q_j = sum_i r[i][j] Q_i, r[j][j] = 1
    z = [0.0] * k
    for i in range(k):
        norm2 = math.fsum(a * a for a in q[i])
        for j in range(i + 1, k):
            r[i][j] = math.fsum(a * b for a, b in zip(q[i], q[j])) / norm2
            q[j] = [b - r[i][j] * a for a, b in zip(q[i], q[j])]
        z[i] = math.fsum(a * b for a, b in zip(q[i], rest)) / norm2
        rest = [b - z[i] * a for a, b in zip(q[i], rest)]
    coef = [0.0] * k
    for i in reversed(range(k)):
        coef[i] = z[i] - math.fsum(r[i][j] * coef[j] for j in range(i + 1, k))
    c0 = y_mean - math.fsum(c * m for c, m in zip(coef, means))
    return [c0] + coef, math.sqrt(math.fsum(v * v for v in rest) / n)


def _theta_degree(u: InputSignal) -> float:
    """The theta-degree of the symbolic u, its largest theta_1 power on
    the axes (theta_1, t), or math.inf when a power is negative or an atom
    involves theta_1: no derivative order makes such a term vanish."""
    return max((math.inf if e[0] < 0 or any(ex.depends_on(arg, "theta_1")
                                            for _, arg, _ in atoms) else e[0]
                for e, atoms in u.expr.embed(1).terms), default=0)


def _fit_input(u: InputSignal, grid: Grid, k_max: int) -> GrowthFit:
    """Fit log ||d^k u|| ~ log K_u + k log R over k = 0..k_max, or through
    the theta-degree d of u when d < k_max: the norms past d are exactly
    0, and their clamped logs would drag the fit down.  At d = 0, u is
    theta-free: K_u is its one norm and R = 0."""
    k_max = min(k_max, _theta_degree(u))
    split = _split(u, grid.dim)  # once, so each derivative chain is built once
    norms = [_input_norm_surrogate(u, split, grid, k) for k in range(k_max + 1)]
    base = GrowthData(K_alpha=1.0, M=1.0, K_u=max(norms[0], _TINY_TERM),
                      R=0.0, s=0.0, T=grid.t_end)
    logs = [math.log(max(n, _TINY_TERM)) for n in norms]
    if k_max == 0:
        return GrowthFit(base, tuple(logs), 0.0)
    (log_k, log_r), residual = _least_squares([range(k_max + 1)], logs)
    data = replace(base, K_u=math.exp(log_k), R=math.exp(log_r))
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


def _fit_coefficients(norms: Sequence[float], T: float) -> GrowthFit:
    """Fit log ||alpha_k|| ~ log K_alpha + k log M + s log k! over the
    nonzero norms; s is clipped to [0, 1].  The log norms are kept for
    every order k, a zero norm clamped as in the input fit."""
    usable = [(k, n) for k, n in enumerate(norms) if n > 0]
    if len(usable) < 3:
        raise ValueError("need at least 3 nonzero norms to fit growth constants")
    ks = [k for k, _ in usable]
    (log_k, log_m, s), residual = _least_squares(
        [ks, [math.lgamma(k + 1) for k in ks]], [math.log(n) for _, n in usable])
    data = GrowthData(K_alpha=math.exp(log_k), M=math.exp(log_m),
                      K_u=1.0, R=1.0, s=min(max(s, 0.0), 1.0), T=T)
    return GrowthFit(data, tuple(math.log(max(n, _TINY_TERM)) for n in norms), residual)


def estimate_growth(target: Union[InputSignal, GenSeries], grid: Grid,
                    k_max: int = 8) -> GrowthFit:
    """Fit growth constants from data on a one-parameter grid.

    * InputSignal: fits K_u, R from the derivative norms (conservative
      interval-length * sup-theta surrogate of the L1 norm) through its
      theta-degree; a theta-free input has R = 0.  A sampled one has no
      expression to read: ValueError.
    * GenSeries: fits K_alpha, M, s from the coefficient sup norms.

    k_max is 2..MAX_TERM_DEGREE, the cap on a series' operator term
    degree, past which no certificate reads a fit.  The residual (rms
    log-misfit) is reported so hypothesis quality can be judged before
    trusting a certificate built from the fit.
    """
    if not 2 <= k_max <= MAX_TERM_DEGREE:
        raise ValueError(f"k_max must be in 2..{MAX_TERM_DEGREE}")
    if grid.dim != 1:
        raise ValueError("growth fits are defined for one-parameter grids")
    if isinstance(target, InputSignal):
        if not target.is_symbolic:
            raise ValueError("growth fits read a symbolic input; this one is sampled")
        return _fit_input(target, grid, k_max)
    norms = _coefficient_sup_norms(target, grid)[:k_max + 1]
    return _fit_coefficients(norms, grid.t_end)


def _dominating(K: float, log_norms: Sequence[float], log_model) -> float:
    """K raised until K times the model, log_model(k) at K = 1, is at
    least every norm of the fit, log_norms[k] at order k."""
    return max(K, math.exp(max(v - log_model(k) for k, v in enumerate(log_norms))))


def tail_certificate(series: GenSeries, u, grid: Grid) -> dict | None:
    """The bound on the tail of F_series[u] past the truncation n that
    ``linear_degree`` reads off the series, from constants fitted to its
    coefficients (K_alpha, M, s) and to the input (K_u, R), with the fits'
    residuals: ``kind`` names the regime, a Gevrey tail when the growth
    is sub-factorial (s < 1), else geometric.  It covers the input words
    only.  Both fits run through order n, and K_alpha and K_u are raised
    until each model dominates every norm of its fit; past n the models
    are still an extrapolation.  An input of theta-degree d <= n is
    fitted through d, and its tail is exactly 0 (kind "exact"): every
    truncated input word differentiates it more than d times.  u is a
    signal or a binding, read as ``evaluate_series`` reads it.  None when
    the series has no linear degree, the grid is not one-parameter, the
    signal on the series' input letter is not symbolic, a fit fails, or
    the bound is not finite."""
    n = linear_degree(series)
    if n is None:
        return None
    letter = next(l for w in series.coeffs for l in w if not l.is_drift)
    u = _as_binding(u, series.alphabet).get(letter.index)
    if u is None or not u.is_symbolic:
        return None
    exact = _theta_degree(u) <= n
    try:
        coeff_fit = estimate_growth(series, grid, k_max=n)
        input_fit = _fit_input(u, grid, n)
        g, K_u, R = coeff_fit.data, input_fit.data.K_u, input_fit.data.R
        log_m = math.log(g.M)
        K_alpha = _dominating(g.K_alpha, coeff_fit.log_norms,
                              lambda k: k * log_m + g.s * math.lgamma(k + 1))
        if R:  # R = 0 is a theta-free input: one norm, which K_u is
            K_u = _dominating(K_u, input_fit.log_norms, lambda k: k * math.log(R))
        g = replace(g, K_alpha=K_alpha, K_u=K_u, R=R)
        tail = 0.0 if exact else gevrey_tail(g, n)
    except (ValueError, ArithmeticError):
        return None
    if not math.isfinite(tail):
        return None
    return {
        "kind": "exact" if exact else "gevrey_tail" if g.s < 1 else "geometric",
        "constants": g.as_dict(),
        "fit_residual": {"coefficients": coeff_fit.residual,
                         "input": input_fit.residual},
        "tail": tail,
    }
