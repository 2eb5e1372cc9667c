"""Generating-series builders for Cauchy problems with operator coefficients:

* first order:  dy/dt + A y = u,  y(theta, 0) = y0(theta), for an operator
  A of any dim and order; transport is A = V d/dtheta;
* second order:  d2y/dt2 + a1 d2y/dtdtheta + a2 d2y/dtheta2 = u with
  y(theta, 0) = y0, dy/dt(theta, 0) = y1 and a1, a2 functions of theta;
  the wave equation is a1 = 0, a2 = -1.

Integrated in time, each problem reads (I + A) y = rhs, with
A = A1 E_{x1} + A2 E_{x0 x1} for differential operators A1 and A2.
Every builder forms the inverse series I + R of I + A and passes it to
one kernel, ``_solve``, which forms rhs + R o rhs.  ``_inverse`` is the
one expansion that forms operator powers: the first-order solution is
its A2 = 0 case and the direct second-order form its A2 != 0 case.  The
cascade form is the series interconnection I + R1 + R2 + R2 o R1 of two
first-order inverses; the partial-fraction form is the parallel
interconnection of two first-order solutions; both need the roots of
constant a1, a2 (``second_order_series_factored`` takes theta-dependent
factors).

Words x0^k carry the initial-condition data; words x0^k x1 carry the
input.  Evaluating with the input signal and the implicit constant drift
signal handles both parts uniformly.
"""

from __future__ import annotations

import cmath
import enum
import sys
from dataclasses import dataclass

from . import diffop as do
from . import expr as ex
from . import series as se
from .diffop import DiffOp
from .series import GenSeries
from .words import DRIFT, EMPTY_WORD, Letter, Word

__all__ = [
    "TransportSpec", "SecondOrderSpec", "SecondOrderForm", "RepeatedRoot",
    "transport_series", "first_order_inverse", "first_order_residual",
    "second_order_series", "second_order_series_factored", "wave_series",
]

X1 = Letter(1)


class RepeatedRoot(se.SeriesError):
    pass


def _theta_only(e, what: str) -> ex.Poly:
    e = ex.simplify(e)
    if ex.depends_on(e, "t"):
        raise se.SeriesError(f"{what} may depend on theta only, not on t")
    if not all(map(cmath.isfinite, e.terms.values())):
        raise se.SeriesError(f"{what} must be finite")
    return e


@dataclass(frozen=True)
class TransportSpec:
    V: object
    y0: object = 0
    N: int = 8

    def __post_init__(self):
        object.__setattr__(self, "V", _theta_only(self.V, "the velocity"))
        object.__setattr__(self, "y0", _theta_only(self.y0, "the initial condition"))
        if self.N < 0:
            raise se.SeriesError("truncation N must be nonnegative")


def _rest(inverse: GenSeries) -> GenSeries:
    """R of an inverse series I + R: every word but the identity empty word."""
    return GenSeries(inverse.dim, {w: op for w, op in inverse.coeffs.items()
                                   if w != EMPTY_WORD}, inverse.max_len,
                     exact_len=inverse.exact_len)


def _solve(inverse: GenSeries, rhs: GenSeries) -> GenSeries:
    """The solution series of (I + A) y = rhs, given the inverse series
    I + R of I + A: the identity passes rhs through, and R reads rhs as
    its input (a series interconnection)."""
    return se.parallel_sum(rhs, se.compose(_rest(inverse), rhs))


def _first_order_series(a: DiffOp, y0: ex.Poly, n: int) -> GenSeries:
    """Series solution of y_t + A y = u, y(theta, 0) = y0, truncated at
    drift power n: (-A)^k y0 on x0^k and (-A)^k on x0^k x1."""
    dim = a.dim
    rhs = GenSeries(dim, {EMPTY_WORD: do.from_expr(y0, dim),
                          Word((X1,)): do.identity(dim)}, 1, {DRIFT, X1})
    return _triangular_truncate(_solve(_inverse(a, do.zero(dim), n), rhs), n)


def transport_series(spec: TransportSpec) -> GenSeries:
    """The first-order solution with A = V d/dtheta.  For non-constant V
    the powers (-V d/dtheta)^k expand by the Leibniz rule, which reproduces
    the two-term normal-ordered recurrence between consecutive
    coefficients."""
    return _first_order_series(do.monomial(spec.V, (1,)), spec.y0, spec.N)


def _inverse(a1: DiffOp, a2: DiffOp, n: int) -> GenSeries:
    """The geometric inverse I + R of I + a1 E_{x1} + a2 E_{x0 x1}: the
    sum of the powers of -(a1 on x1 + a2 on x0 x1), cut at length n and
    exact through it, since the k-th power has no word shorter than k."""
    dim = a1.dim
    neg_a = se.truncate(GenSeries(dim, {Word((X1,)): do.op_neg(a1),
                                        Word((DRIFT, X1)): do.op_neg(a2)}, 2), n)
    total, power = se.one_series(dim), neg_a
    while not power.is_zero():
        total = se.parallel_sum(total, power)
        power = se.compose(neg_a, power, max_len=n)
    return GenSeries(dim, total.coeffs, n, {DRIFT, X1}, exact_len=n)


def first_order_inverse(beta, n: int) -> GenSeries:
    """The geometric inverse of I + beta d/dtheta E_{x1}: empty-word
    coefficient 1 and (-beta d/dtheta)^k on x0^(k-1) x1 for 1 <= k <= n.

    The empty-word term is the identity part I.  With R the other words
    and F the forward series beta d/dtheta on x1, (I + R)(I + F) = I
    reads R + F + R o F = 0, and it holds through length n.
    """
    return _inverse(do.monomial(_theta_only(beta, "beta"), (1,)), do.zero(1), n)


def first_order_residual(beta, n: int) -> GenSeries:
    """R + F + R o F through length n, for the inverse I + R of
    I + F = I + beta d/dtheta E_{x1}: (I + R)(I + F) = I holds through
    length n exactly when this is the zero series."""
    rest = _rest(first_order_inverse(beta, n))
    fwd = GenSeries(1, {Word((X1,)): do.monomial(_theta_only(beta, "beta"), (1,))}, 1)
    return se.truncate(se.parallel_sum(se.parallel_sum(rest, fwd),
                                       se.compose(rest, fwd)), n)


class SecondOrderForm(enum.Enum):
    DIRECT = "direct"
    CASCADE = "cascade"
    PARTIAL_FRACTION = "partial-fraction"


@dataclass(frozen=True)
class SecondOrderSpec:
    alpha1: object
    alpha2: object
    y0: object = 0
    y1: object = 0
    N: int = 8
    form: SecondOrderForm = SecondOrderForm.DIRECT

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "y0", "y1"):
            object.__setattr__(self, name, _theta_only(getattr(self, name), name))
        if self.N < 0:
            raise se.SeriesError("truncation N must be nonnegative")
        try:
            object.__setattr__(self, "form", SecondOrderForm(self.form))
        except ValueError:
            raise se.SeriesError(f"unknown second-order form {self.form!r}") from None


def _roots(alpha1: complex, alpha2: complex) -> tuple[complex, complex]:
    """beta1, beta2 with beta1+beta2 = alpha1 and beta1*beta2 = alpha2;
    beta1 is the root with larger real part (ties: larger imaginary)."""
    disc = cmath.sqrt(alpha1 * alpha1 - 4 * alpha2)
    r1 = (alpha1 + disc) / 2
    r2 = (alpha1 - disc) / 2
    if (r1.real, r1.imag) < (r2.real, r2.imag):
        r1, r2 = r2, r1
    return r1, r2


def _repeated_root(alpha1: complex, alpha2: complex) -> bool:
    """The discriminant alpha1^2 - 4 alpha2 is zero to within the rounding
    of its two terms, whatever their scale."""
    eps = sys.float_info.epsilon
    return (abs(alpha1 * alpha1 - 4 * alpha2)
            <= 8 * eps * (abs(alpha1) ** 2 + 4 * abs(alpha2)))


def _rhs_series(y0: ex.Poly, y1: ex.Poly, a1: DiffOp) -> GenSeries:
    """The doubly-integrated right-hand side: y0 on the empty word,
    y1 + a1 y0 on x0, and 1 on x0 x1."""
    dim = a1.dim
    drift_coeff = ex.add(y1, do.op_apply(a1, y0))
    return GenSeries(dim, {EMPTY_WORD: do.from_expr(y0, dim),
                           Word((DRIFT,)): do.from_expr(drift_coeff, dim),
                           Word((DRIFT, X1)): do.identity(dim)}, 2, {DRIFT, X1})


def _triangular_truncate(c: GenSeries, n: int) -> GenSeries:
    """Keep initial-condition words x0^k with k <= n and input words of
    length <= n+1; this is the shape every builder shares, exact through
    length n."""
    kept = {w: op for w, op in c.coeffs.items()
            if len(w) <= n + (w.input_letter_count() > 0)}
    return GenSeries(c.dim, kept, n + 1, c.alphabet, exact_len=n)


def _cascade_inverse(beta1, beta2, n: int) -> GenSeries:
    """The inverse of (I + beta1 d E_{x1})(I + beta2 d E_{x1}) as the series
    interconnection (I + R2)(I + R1) = I + R1 + R2 + R2 o R1 of the two
    first-order inverses, cut at length n."""
    inverse1 = first_order_inverse(beta1, n)
    r2 = _rest(first_order_inverse(beta2, n))
    return se.parallel_sum(se.parallel_sum(inverse1, r2),
                           se.compose(r2, _rest(inverse1), max_len=n))


def second_order_series(spec: SecondOrderSpec) -> GenSeries:
    """Series solution of the second-order problem in the requested form.
    The direct form takes theta-dependent alphas, the other two need the
    roots of constant ones; the forms agree on their common truncation."""
    a1 = do.monomial(spec.alpha1, (1,))
    rhs = _rhs_series(spec.y0, spec.y1, a1)
    n = spec.N
    if spec.form is SecondOrderForm.DIRECT:
        out = _solve(_inverse(a1, do.monomial(spec.alpha2, (2,)), n), rhs)
        return _triangular_truncate(out, n)
    alpha1, alpha2 = spec.alpha1.constant(), spec.alpha2.constant()
    if alpha1 is None or alpha2 is None:
        raise se.SeriesError(
            f"the {spec.form.value} form needs constant alpha1 and alpha2; "
            "for theta-dependent factors use second_order_series_factored")
    beta1, beta2 = _roots(alpha1, alpha2)
    if spec.form is SecondOrderForm.CASCADE:
        out = _solve(_cascade_inverse(beta1, beta2, n), rhs)
    else:
        if _repeated_root(alpha1, alpha2):
            raise RepeatedRoot("partial fractions need distinct factor roots")
        w1 = beta1 / (beta1 - beta2)
        w2 = beta2 / (beta2 - beta1)
        out = se.parallel_sum(
            se.series_scale(w1, _solve(first_order_inverse(beta1, n), rhs)),
            se.series_scale(w2, _solve(first_order_inverse(beta2, n), rhs)))
    return _triangular_truncate(out, n)


def second_order_series_factored(beta1, beta2, y0=0, y1=0, n: int = 8) -> GenSeries:
    """Entry point for theta-dependent factors: the caller asserts that
    the operator factors as (I + beta1 d)(I + beta2 d), and the series is
    built in the cascade form."""
    beta1 = _theta_only(beta1, "beta1")
    beta2 = _theta_only(beta2, "beta2")
    rhs = _rhs_series(_theta_only(y0, "y0"), _theta_only(y1, "y1"),
                      do.monomial(ex.add(beta1, beta2), (1,)))
    return _triangular_truncate(_solve(_cascade_inverse(beta1, beta2, n), rhs), n)


def wave_series(n: int) -> GenSeries:
    """Zero-data wave equation: the direct form reduces to even-order
    derivatives on odd drift powers, d^(2k) on x0^(2k+1) x1."""
    return second_order_series(SecondOrderSpec(0, -1, 0, 0, n,
                                               SecondOrderForm.DIRECT))
