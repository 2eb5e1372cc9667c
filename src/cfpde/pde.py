"""Generating-series builders for Cauchy problems on one parameter:

* transport:  dy/dt + V dy/dtheta = u,   y(theta, 0) = y0(theta)
* second order:  d2y/dt2 + a1 d2y/dtdtheta + a2 d2y/dtheta2 = u with
  y(theta, 0) = y0 and dy/dt(theta, 0) = y1; the wave equation is
  a1 = 0, a2 = -1.

Integrated in time, each problem reads (I + A) y = rhs.  Every builder
forms the inverse series of I + A and passes it to one kernel, ``_solve``,
which composes it with rhs.  The second-order inverse has three routes:
the direct geometric expansion, the series interconnection (cascade) of
two first-order inverses, and the parallel interconnection (partial
fractions) of two first-order solutions.  Only ``first_order_inverse``
forms operator powers.

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
    "TransportSpec", "SecondOrderSpec", "SecondOrderForm",
    "RepeatedRoot", "NonConstantCoefficients",
    "transport_series", "first_order_inverse",
    "second_order_series", "second_order_series_factored", "wave_series",
]

X1 = Letter(1)


class RepeatedRoot(se.SeriesError):
    pass


class NonConstantCoefficients(se.SeriesError):
    pass


def _theta_only(e, what: str) -> ex.Expr:
    e = ex.simplify(ex.as_expr(e))
    if ex.depends_on(e, "t"):
        raise se.SeriesError(f"{what} may depend on theta only, not on t")
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


def _solve(inverse: GenSeries, rhs: GenSeries) -> GenSeries:
    """The solution series of (I + A) y = rhs, given the inverse series of
    I + A: its identity empty word passes rhs through, and every other
    word reads rhs as its input (a series interconnection)."""
    rest = GenSeries(inverse.dim, {w: op for w, op in inverse.coeffs.items()
                                   if w != EMPTY_WORD}, inverse.max_len)
    return se.parallel_sum(rhs, se.compose(rest, rhs))


def transport_series(spec: TransportSpec) -> GenSeries:
    """Series solution of the transport problem, truncated at drift power N.

    The coefficient on x0^k is (-V d/dtheta)^k applied to y0; the
    coefficient on x0^k x1 is the composed operator (-V d/dtheta)^k
    itself.  For non-constant V the operator power expands by the Leibniz
    rule, which reproduces the two-term normal-ordered recurrence between
    consecutive coefficients.
    """
    rhs = GenSeries(1, {EMPTY_WORD: do.from_expr(spec.y0, 1),
                        Word((X1,)): do.identity(1)}, 1, {DRIFT, X1})
    return _triangular_truncate(
        _solve(first_order_inverse(spec.V, spec.N), rhs), spec.N)


def first_order_inverse(beta, n: int) -> GenSeries:
    """The geometric inverse of I + beta d/dtheta E_{x1}: empty-word
    coefficient 1 and (-beta d/dtheta)^k on x0^(k-1) x1 for 1 <= k <= n.

    The empty-word term is the identity part: composing with the forward
    series under the unital product cancels to 1*empty-word.
    """
    step = do.op_scale(ex.neg(_theta_only(beta, "beta")), do.partial(1))
    coeffs: dict[Word, DiffOp] = {EMPTY_WORD: do.identity(1)}
    power = do.identity(1)
    for k in range(1, n + 1):
        power = do.op_mul(step, power)
        coeffs[Word((DRIFT,) * (k - 1) + (X1,))] = power
    return GenSeries(1, coeffs, max(n, 0), {DRIFT, X1}, exact_len=max(n, 0))


class SecondOrderForm(enum.Enum):
    DIRECT = "direct"
    CASCADE = "cascade"
    PARTIAL_FRACTION = "partial-fraction"


@dataclass(frozen=True)
class SecondOrderSpec:
    alpha1: complex
    alpha2: complex
    y0: object = 0
    y1: object = 0
    N: int = 8
    form: SecondOrderForm = SecondOrderForm.DIRECT

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not isinstance(v, (int, float, complex)):
                raise NonConstantCoefficients(
                    "symbolic coefficients need an explicit factorization; "
                    "use second_order_series_factored")
            object.__setattr__(self, name, complex(v))
        object.__setattr__(self, "y0", _theta_only(self.y0, "y0"))
        object.__setattr__(self, "y1", _theta_only(self.y1, "y1"))
        if self.N < 0:
            raise se.SeriesError("truncation N must be nonnegative")


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


def _rhs_series(y0: ex.Expr, y1: ex.Expr, alpha1) -> GenSeries:
    """The doubly-integrated right-hand side: y0 on the empty word,
    y1 + alpha1*y0' on x0, and 1 on x0 x1."""
    drift_coeff = ex.add(y1, ex.mul(alpha1, ex.differentiate(y0, "theta_1")))
    return GenSeries(1, {EMPTY_WORD: do.from_expr(y0, 1),
                         Word((DRIFT,)): do.from_expr(drift_coeff, 1),
                         Word((DRIFT, X1)): do.identity(1)}, 2, {DRIFT, X1})


def _triangular_truncate(c: GenSeries, n: int) -> GenSeries:
    """Keep initial-condition words x0^k with k <= n and input words of
    length <= n+1; this is the shape every builder shares, exact through
    length n."""
    kept = {w: op for w, op in c.coeffs.items()
            if len(w) <= n + (w.input_letter_count() > 0)}
    return GenSeries(c.dim, kept, n + 1, c.alphabet, c.param_support, n)


def _cascade_inverse(beta1, beta2, n: int) -> GenSeries:
    """The inverse of (I + beta1 d E_{x1})(I + beta2 d E_{x1}) as the series
    interconnection of the two first-order inverses, cut at length n."""
    return se.truncate(se.compose(first_order_inverse(beta2, n),
                                  first_order_inverse(beta1, n), unital=True), n)


def _direct_inverse(alpha1, alpha2, n: int) -> GenSeries:
    """Geometric expansion of the inverse of
    I + alpha1 d E_{x1} + alpha2 d^2 E_{x0 x1}, cut at length n."""
    neg_a = se.truncate(GenSeries(1, {
        Word((X1,)): do.monomial(ex.const(-alpha1), (1,)),
        Word((DRIFT, X1)): do.monomial(ex.const(-alpha2), (2,))}, 2, {DRIFT, X1}), n)
    total, power = se.one_series(1, {DRIFT, X1}), neg_a
    while not power.is_zero():
        total = se.parallel_sum(total, power)
        power = se.truncate(se.compose(neg_a, power), n)
    return total


def second_order_series(spec: SecondOrderSpec) -> GenSeries:
    """Series solution of the constant-coefficient second-order problem in
    the requested representation.  All three forms agree coefficient-wise
    on their common truncation."""
    beta1, beta2 = _roots(spec.alpha1, spec.alpha2)
    rhs = _rhs_series(spec.y0, spec.y1, ex.const(spec.alpha1))
    n = spec.N
    if spec.form is SecondOrderForm.CASCADE:
        out = _solve(_cascade_inverse(beta1, beta2, n), rhs)
    elif spec.form is SecondOrderForm.PARTIAL_FRACTION:
        if _repeated_root(spec.alpha1, spec.alpha2):
            raise RepeatedRoot(
                "partial fractions need distinct factor roots")
        w1 = beta1 / (beta1 - beta2)
        w2 = beta2 / (beta2 - beta1)
        out = se.parallel_sum(
            se.series_scale(w1, _solve(first_order_inverse(beta1, n), rhs)),
            se.series_scale(w2, _solve(first_order_inverse(beta2, n), rhs)))
    else:
        out = _solve(_direct_inverse(spec.alpha1, spec.alpha2, n), rhs)
    return _triangular_truncate(out, n)


def second_order_series_factored(beta1, beta2, y0=0, y1=0, n: int = 8,
                                 form: SecondOrderForm = SecondOrderForm.CASCADE
                                 ) -> GenSeries:
    """Entry point for theta-dependent factors: the caller asserts that
    the operator factors as (I + beta1 d)(I + beta2 d).  Only the cascade
    form is built from the factors; the direct and partial-fraction forms
    need constant coefficients and are rejected here."""
    if form is not SecondOrderForm.CASCADE:
        raise NonConstantCoefficients(
            f"the {form.value} form requires constant coefficients; "
            "factored entry builds the cascade form only")
    beta1 = _theta_only(beta1, "beta1")
    beta2 = _theta_only(beta2, "beta2")
    rhs = _rhs_series(_theta_only(y0, "y0"), _theta_only(y1, "y1"),
                      ex.add(beta1, beta2))
    return _triangular_truncate(_solve(_cascade_inverse(beta1, beta2, n), rhs), n)


def wave_series(n: int) -> GenSeries:
    """Zero-data wave equation: the direct form reduces to even-order
    derivatives on odd drift powers, d^(2k) on x0^(2k+1) x1."""
    return second_order_series(SecondOrderSpec(0, -1, 0, 0, n,
                                               SecondOrderForm.DIRECT))
