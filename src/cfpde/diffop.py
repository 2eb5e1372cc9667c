"""Multivariate differential operators with symbolic coefficients.

A DiffOp is a finite sum of terms a_alpha(theta) * D^alpha, kept in normal
order: the coefficient always acts by pointwise multiplication to the left
of the partial derivatives.  The noncommutative product expands D^alpha
through a coefficient with the Leibniz rule, so
op_apply(op_mul(A, B), f) == op_apply(A, op_apply(B, f)).

Coefficients depend on the theta variables only, never on t.  They are
``expr.Poly`` values without a t slot: an expression is converted once
when it enters a DiffOp (a t slot it carries is dropped, and t itself is
refused), every operation below works on the monomial dicts, and a term
is zero exactly when its coefficient's dict is empty.
"""

from __future__ import annotations

import math
from typing import Mapping

from . import expr as ex

__all__ = [
    "MultiIndex", "DiffOp", "DiffOpError", "DimensionMismatch",
    "mi_zero", "mi_abs", "mi_add",
    "identity", "zero", "from_expr", "partial", "monomial",
    "op_apply", "op_mul", "op_add", "op_scale", "op_neg", "op_pow",
]

MultiIndex = tuple[int, ...]

MAX_TERM_DEGREE = 64


class DiffOpError(Exception):
    pass


class DimensionMismatch(DiffOpError):
    pass


def mi_zero(dim: int) -> MultiIndex:
    return (0,) * dim


def mi_abs(alpha: MultiIndex) -> int:
    return sum(alpha)


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def _mi_binomial(alpha: MultiIndex, gamma: MultiIndex) -> int:
    out = 1
    for a, g in zip(alpha, gamma):
        out *= math.comb(a, g)
    return out


def _sub_indices(alpha: MultiIndex):
    """All gamma with 0 <= gamma <= alpha componentwise."""
    if not alpha:
        yield ()
        return
    head, tail = alpha[0], alpha[1:]
    for rest in _sub_indices(tail):
        for g in range(head + 1):
            yield (g,) + rest


class DiffOp:
    """Normal-ordered sum of coefficient * D^alpha terms.

    ``terms`` maps a multi-index to a nonzero ``expr.Poly`` coefficient.
    Any expression or number is accepted on construction and converted
    once; ``_trusted`` skips that for coefficients already converted."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, object] | None = None,
                 _trusted: bool = False):
        if dim < 1:
            raise DiffOpError("dim must be a positive integer")
        object.__setattr__(self, "dim", dim)
        cleaned: dict[MultiIndex, ex.Poly] = {}
        for alpha, coeff in (terms or {}).items():
            if not _trusted:
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != dim or any(a < 0 for a in alpha):
                    raise DiffOpError(f"bad multi-index {alpha} for dim {dim}")
                coeff = _to_poly(coeff, dim, "coefficient", DiffOpError)
            if mi_abs(alpha) > MAX_TERM_DEGREE:
                raise DiffOpError(
                    f"term degree {mi_abs(alpha)} exceeds the cap {MAX_TERM_DEGREE}")
            if coeff.terms:
                cleaned[alpha] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *args):
        raise AttributeError("DiffOp is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def max_order(self) -> int:
        return max((mi_abs(a) for a in self.terms), default=0)

    def theta_indices(self) -> set[int]:
        out: set[int] = set()
        for alpha, coeff in self.terms.items():
            out |= ex.theta_indices(coeff)
            out |= {i + 1 for i, a in enumerate(alpha) if a > 0}
        return out

    def constant_part(self) -> ex.Poly:
        """Coefficient of D^0; this equals the operator applied to 1."""
        return self.terms.get(mi_zero(self.dim), ex.Poly(self.dim, {}))

    def is_scalar_constant(self) -> bool:
        """True when the operator is c * identity with c a constant."""
        return (set(self.terms) <= {mi_zero(self.dim)}
                and self.constant_part().constant() is not None)

    def text(self) -> str:
        if not self.terms:
            return "0 * D[" + ",".join("0" for _ in range(self.dim)) + "]"
        parts = []
        for alpha, coeff in self.sorted_terms():
            c = ex.to_string(coeff)
            if "+" in c[1:] or " - " in c:
                c = f"({c})"
            parts.append(f"{c} * D[{','.join(str(a) for a in alpha)}]")
        return " + ".join(parts)

    def __repr__(self):
        return self.text()

    def __eq__(self, other):
        return (isinstance(other, DiffOp) and self.dim == other.dim
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))


def _to_poly(value, dim: int, what: str, error) -> ex.Poly:
    """Check that an expression lives on theta_1..theta_dim and give it
    the coefficient layout: dim theta axes, no t slot."""
    p = ex.simplify(value)
    if p.t or p.dim > dim:
        names = ex.variables(p)
        if "t" in names:
            raise DiffOpError(f"operator {what} may not depend on t")
        bad = [int(name[6:]) for name in names if int(name[6:]) > dim]
        if bad:
            raise error(f"{what} references theta_{max(bad)} beyond dim {dim}")
    return p.embed(dim)


def identity(dim: int) -> DiffOp:
    return DiffOp(dim, {mi_zero(dim): ex.ONE})


def zero(dim: int) -> DiffOp:
    return DiffOp(dim, {})


def from_expr(coeff, dim: int) -> DiffOp:
    """The multiplication operator f -> coeff * f."""
    return DiffOp(dim, {mi_zero(dim): coeff})


def partial(dim: int) -> DiffOp:
    """d/dtheta_1 on a dim-dimensional parameter space; build any other
    derivative with monomial."""
    return DiffOp(dim, {(1,) + mi_zero(dim - 1): ex.ONE})


def monomial(coeff, alpha: MultiIndex) -> DiffOp:
    """coeff * D^alpha."""
    return DiffOp(len(alpha), {tuple(alpha): coeff})


def _check_dims(a: DiffOp, b: DiffOp):
    if a.dim != b.dim:
        raise DimensionMismatch(f"operator dims differ: {a.dim} vs {b.dim}")


def _derivative(delta: MultiIndex, memo: dict) -> ex.Poly:
    """D^delta of the Poly memo[zero], from the memoized lower orders."""
    if delta not in memo:
        axis = next(i for i, k in enumerate(delta) if k)
        lower = delta[:axis] + (delta[axis] - 1,) + delta[axis + 1:]
        memo[delta] = _derivative(lower, memo).derivative(axis)
    return memo[delta]


def op_apply(op: DiffOp, f) -> ex.Poly:
    """Apply the operator to a function of theta: sum of a_alpha * d^alpha f,
    a Poly in the coefficient layout."""
    memo = {mi_zero(op.dim): _to_poly(f, op.dim, "function", DimensionMismatch)}
    pairs = []
    for alpha, coeff in op.sorted_terms():
        pairs += ex.product_terms(coeff, _derivative(alpha, memo))
    return ex.collect(op.dim, pairs)


def op_add(a: DiffOp, b: DiffOp) -> DiffOp:
    _check_dims(a, b)
    terms = dict(a.terms)
    for alpha, coeff in b.terms.items():
        if alpha in terms:
            terms[alpha] = ex.collect(a.dim, [*terms[alpha].terms.items(),
                                              *coeff.terms.items()])
        else:
            terms[alpha] = coeff
    return DiffOp(a.dim, terms, _trusted=True)


def op_scale(factor, a: DiffOp) -> DiffOp:
    factor = _to_poly(factor, a.dim, "coefficient", DiffOpError)
    return DiffOp(a.dim, {alpha: ex.collect(a.dim, ex.product_terms(factor, coeff))
                          for alpha, coeff in a.terms.items()}, _trusted=True)


def op_neg(a: DiffOp) -> DiffOp:
    return op_scale(-1, a)


def op_mul(a: DiffOp, b: DiffOp) -> DiffOp:
    """Normal-ordered composition a after b.

    Uses D^alpha (b g) = sum over gamma <= alpha of binom(alpha, gamma)
    (D^(alpha-gamma) b) D^gamma g.
    """
    _check_dims(a, b)
    pieces: dict[MultiIndex, list] = {}
    memos = {beta: {mi_zero(a.dim): cb} for beta, cb in b.terms.items()}
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            constant = cb.constant() is not None
            for gamma in (alpha,) if constant else _sub_indices(alpha):
                db = _derivative(tuple(x - y for x, y in zip(alpha, gamma)),
                                 memos[beta])
                if db.terms:
                    pieces.setdefault(mi_add(gamma, beta), []).extend(
                        ex.product_terms(ca, db, _mi_binomial(alpha, gamma)))
    return DiffOp(a.dim, {key: ex.collect(a.dim, pairs)
                          for key, pairs in pieces.items()}, _trusted=True)


def op_pow(a: DiffOp, k: int) -> DiffOp:
    if k < 0:
        raise DiffOpError("operator powers require k >= 0")
    out = identity(a.dim)
    for _ in range(k):
        out = op_mul(out, a)
    return out
