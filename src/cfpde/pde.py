"""Generating-series builders for Cauchy problems.

Each builder returns the truncated series of the input-output map of a
first- or second-order evolution problem on one parameter:

* transport:  dy/dt + V dy/dtheta = u,   y(theta, 0) = y0(theta)
* second order:  d2y/dt2 + a1 d2y/dtdtheta + a2 d2y/dtheta2 = u with
  y(theta, 0) = y0 and dy/dt(theta, 0) = y1, through three equivalent
  representations (direct geometric expansion, cascade of two first-order
  factors, partial fractions), and the wave equation as the special case
  a1 = 0, a2 = -1.

Words x0^k carry the initial-condition data; words x0^k x1 carry the
input.  Evaluating with the input signal and the implicit constant drift
signal handles both parts uniformly.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

from . import diffop as do
from . import expr as ex
from . import series as se
from .diffop import DiffOp
from .series import GenSeries
from .words import DRIFT, Letter, Word

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


def _step(beta) -> DiffOp:
    """The first-order factor -beta d/dtheta."""
    return do.op_scale(ex.neg(ex.as_expr(beta)), do.partial(1))


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


def transport_series(spec: TransportSpec) -> GenSeries:
    """Series solution of the transport problem, truncated at drift power N.

    The coefficient on x0^k is (-V d/dtheta)^k applied to y0; the
    coefficient on x0^k x1 is the composed operator (-V d/dtheta)^k
    itself.  For non-constant V the operator power expands by the Leibniz
    rule, which reproduces the two-term normal-ordered recurrence between
    consecutive coefficients.
    """
    step = _step(spec.V)
    coeffs: dict[Word, DiffOp] = {}
    power = do.identity(1)
    for k in range(spec.N + 1):
        ic_coeff = do.op_apply(power, spec.y0)
        if not (isinstance(ic_coeff, ex.Const) and ic_coeff.value == 0):
            coeffs[Word((DRIFT,) * k)] = do.from_expr(ic_coeff, 1)
        coeffs[Word((DRIFT,) * k + (X1,))] = power
        power = do.op_mul(step, power)
    return GenSeries(1, coeffs, spec.N + 1, {DRIFT, X1}, exact_len=spec.N)


def first_order_inverse(beta, n: int) -> GenSeries:
    """The geometric inverse of I + beta d/dtheta E_{x1}: empty-word
    coefficient 1 and (-beta d/dtheta)^k on x0^(k-1) x1 for 1 <= k <= n.

    The empty-word term is the identity part: composing with the forward
    series under the unital product cancels to 1*empty-word.
    """
    step = _step(_theta_only(beta, "beta"))
    coeffs: dict[Word, DiffOp] = {Word(): do.identity(1)}
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


def _rhs_series(y0: ex.Expr, y1: ex.Expr, alpha1) -> GenSeries:
    """The doubly-integrated right-hand side: y0 on the empty word,
    y1 + alpha1*y0' on x0, and 1 on x0 x1."""
    drift_coeff = ex.add(y1, ex.mul(alpha1, ex.differentiate(y0, "theta_1")))
    coeffs = {
        Word(): do.from_expr(y0, 1),
        Word((DRIFT,)): do.from_expr(drift_coeff, 1),
        Word((DRIFT, X1)): do.identity(1),
    }
    return GenSeries(1, {w: op for w, op in coeffs.items() if not op.is_zero()},
                     2, {DRIFT, X1})


def _triangular_truncate(c: GenSeries, n: int) -> GenSeries:
    """Keep initial-condition words x0^k with k <= n and input words of
    length <= n+1; this is the shape every form shares."""
    kept = {}
    for w, op in c.coeffs.items():
        if w.input_letter_count() == 0:
            if len(w) <= n:
                kept[w] = op
        elif len(w) <= n + 1:
            kept[w] = op
    return GenSeries(c.dim, kept, n + 1, c.alphabet, c.param_support,
                     min(c.exact_len, n))


def _add_applied(coeffs: dict, k: int, op: DiffOp, rhs: GenSeries) -> None:
    """Add op times every right-hand-side coefficient, on its word prefixed
    by k drift letters; pure-drift words keep op applied to the function."""
    for w, rhs_op in rhs.coeffs.items():
        target = Word((DRIFT,) * k + w.letters)
        if target.input_letter_count() == 0:
            piece = do.from_expr(do.op_apply(op, rhs_op.constant_part()), 1)
        else:
            piece = do.op_mul(op, rhs_op)
        if not piece.is_zero():
            coeffs[target] = (do.op_add(coeffs[target], piece)
                              if target in coeffs else piece)


def _cascade_series(beta1, beta2, rhs: GenSeries, n: int) -> GenSeries:
    """sum over k, l of (-b2 d)^k (-b1 d)^l prefixed by k+l drift letters,
    applied to the doubly-integrated right-hand side."""
    b1, b2 = _step(beta1), _step(beta2)
    pow1 = [do.identity(1)]
    pow2 = [do.identity(1)]
    for _ in range(n):
        pow1.append(do.op_mul(b1, pow1[-1]))
        pow2.append(do.op_mul(b2, pow2[-1]))
    coeffs: dict[Word, DiffOp] = {}
    for m in range(n + 1):
        op_m = do.zero(1)
        for k in range(m + 1):
            op_m = do.op_add(op_m, do.op_mul(pow2[k], pow1[m - k]))
        _add_applied(coeffs, m, op_m, rhs)
    return GenSeries(1, coeffs, n + 2, {DRIFT, X1}, exact_len=n)


def _branch_series(beta, rhs: GenSeries, n: int) -> GenSeries:
    """One partial-fraction branch: sum of (-beta d)^k over k words of
    drift prefix, applied to the right-hand side."""
    b = _step(beta)
    coeffs: dict[Word, DiffOp] = {}
    power = do.identity(1)
    for k in range(n + 1):
        _add_applied(coeffs, k, power, rhs)
        power = do.op_mul(b, power)
    return GenSeries(1, coeffs, n + 2, {DRIFT, X1}, exact_len=n)


def _direct_series(alpha1, alpha2, rhs: GenSeries, n: int) -> GenSeries:
    """Geometric expansion of the inverse of
    I + alpha1 d E_{x1} + alpha2 d^2 E_{x0 x1},
    composed with the right-hand side series."""
    a_coeffs = {}
    if alpha1 != 0:
        a_coeffs[Word((X1,))] = do.monomial(ex.const(alpha1), (1,))
    if alpha2 != 0:
        a_coeffs[Word((DRIFT, X1))] = do.monomial(ex.const(alpha2), (2,))
    out = rhs
    if a_coeffs:
        neg_a = se.series_scale(-1, GenSeries(1, a_coeffs, 2, {DRIFT, X1}))
        # compose is linear in its left factor: sum the powers, then
        # compose the sum with the right-hand side once
        power = total = neg_a
        while True:
            power = se.compose(neg_a, power)
            power = se.truncate(power, min(power.max_len, n + 2))
            if power.min_word_len() > n + 1 or power.is_zero():
                break
            total = se.parallel_sum(total, power)
        out = se.parallel_sum(out, se.compose(total, rhs))
    return out


def second_order_series(spec: SecondOrderSpec) -> GenSeries:
    """Series solution of the constant-coefficient second-order problem in
    the requested representation.  All three forms agree coefficient-wise
    on their common truncation."""
    beta1, beta2 = _roots(spec.alpha1, spec.alpha2)
    rhs = _rhs_series(spec.y0, spec.y1, ex.const(spec.alpha1))
    if spec.form is SecondOrderForm.CASCADE:
        out = _cascade_series(beta1, beta2, rhs, spec.N)
    elif spec.form is SecondOrderForm.PARTIAL_FRACTION:
        if abs(beta1 - beta2) < 1e-12:
            raise RepeatedRoot(
                "partial fractions need distinct factor roots")
        w1 = beta1 / (beta1 - beta2)
        w2 = beta2 / (beta2 - beta1)
        out = se.parallel_sum(
            se.series_scale(w1, _branch_series(beta1, rhs, spec.N)),
            se.series_scale(w2, _branch_series(beta2, rhs, spec.N)))
    else:
        out = _direct_series(spec.alpha1, spec.alpha2, rhs, spec.N)
    return _triangular_truncate(out, spec.N)


def second_order_series_factored(beta1, beta2, y0=0, y1=0, n: int = 8,
                                 form: SecondOrderForm = SecondOrderForm.CASCADE
                                 ) -> GenSeries:
    """Entry point for theta-dependent factors: the caller asserts that
    the operator factors as (I + beta1 d)(I + beta2 d).  Partial fractions
    are only valid for constant factors and are rejected here."""
    beta1 = _theta_only(beta1, "beta1")
    beta2 = _theta_only(beta2, "beta2")
    if form is SecondOrderForm.PARTIAL_FRACTION:
        raise NonConstantCoefficients(
            "partial fractions require constant coefficients")
    rhs = _rhs_series(_theta_only(y0, "y0"), _theta_only(y1, "y1"),
                      ex.add(beta1, beta2))
    out = _cascade_series(beta1, beta2, rhs, n)
    return _triangular_truncate(out, n)


def wave_series(n: int) -> GenSeries:
    """Zero-data wave equation: the direct form reduces to even-order
    derivatives on odd drift powers, d^(2k) on x0^(2k+1) x1."""
    return second_order_series(SecondOrderSpec(0, -1, 0, 0, n,
                                               SecondOrderForm.DIRECT))
