"""Symbolic scalar expressions in the parameters theta_1..theta_d and time t.

The expression language is deliberately tiny: complex constants, the
variables ``t`` and ``theta_k``, sums, products, integer powers, negation,
and the unary functions sin/cos/exp.  It is closed under differentiation.
Trees are the language of user input and of time-dependent signals; their
simplification is local rewriting only (constant folding, 0/1 identities,
flattening of nested sums/products).

Operator coefficients live in a canonical sparse form instead, ``Poly``: a
dict from monomial key to complex coefficient, where a key is the theta
exponent tuple (negative entries allowed) and a sorted tuple of atoms
(sin|cos|exp, canonical argument, multiplicity).  ``canonical`` converts
a tree once; like terms collect when a Poly is built, so zero is the
empty dict and equality is dict equality.  A collected sum is zero when
it is exactly 0 or within 8 eps of the summed magnitudes of its
contributions, never by an absolute cut.  Trig identities are not
applied: sin^2 + cos^2 - 1 stays three terms and evaluates to about 0.
"""

from __future__ import annotations

import cmath
import re
import sys
from typing import Mapping, Union

from ._record import record

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Pow", "Neg", "Sin", "Cos", "Exp",
    "ExprError", "ParseError", "EvalError", "PoleError",
    "const", "var", "add", "mul", "neg", "sub", "intpow", "sin", "cos", "exp",
    "parse", "to_string", "simplify", "differentiate", "evaluate",
    "variables", "theta_indices", "depends_on", "as_expr",
    "Poly", "canonical", "to_expr", "collect", "product_terms",
]

MAX_EXPONENT = 2 ** 31
MAX_EXPANDED_POWER = 64
_ROUNDOFF = 8 * sys.float_info.epsilon
# A printed constant leaves out its real or imaginary part when that part
# is at most this multiple of the other part's magnitude (rounding noise
# of the other part), whatever the scale of the constant.
_DISPLAY_REL = 8 * sys.float_info.epsilon
# Values that evaluate without numpy; anything else may be an array.
_SCALARS = (int, float, complex)
_CMATH = {"sin": cmath.sin, "cos": cmath.cos, "exp": cmath.exp}


class ExprError(Exception):
    """Malformed expression construction or use."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    """Evaluation failure (unbound variable, domain error)."""


class PoleError(EvalError):
    """Zero raised to a negative power."""


@record
class Const:
    value: complex


@record
class Var:
    name: str


@record
class Add:
    terms: tuple["Expr", ...]


@record
class Mul:
    factors: tuple["Expr", ...]


@record
class Pow:
    base: "Expr"
    exponent: int


@record
class Neg:
    arg: "Expr"


@record
class Sin:
    arg: "Expr"


@record
class Cos:
    arg: "Expr"


@record
class Exp:
    arg: "Expr"


class Poly:
    """Canonical sparse sum of monomials over theta_1..theta_dim.

    ``terms`` maps (exponents, atoms) to a nonzero complex coefficient;
    an atom is (name, argument Poly, multiplicity).  Build one with
    ``canonical`` or ``collect``; treat it as immutable."""

    __slots__ = ("dim", "terms", "_hash", "_sorted", "_key", "_derivatives")

    def __init__(self, dim: int, terms: dict):
        self.dim = dim
        self.terms = terms
        self._hash = self._sorted = self._key = None
        self._derivatives: dict[int, Poly] = {}

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.dim == other.dim
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"Poly({to_string(self)!r})"

    def sorted_items(self) -> list:
        """Terms in print and summation order: exponents descending, then
        atoms; independent of insertion order and hash seed."""
        if self._sorted is None:
            self._sorted = sorted(self.terms.items(), key=lambda mc: _mono_key(mc[0]))
        return self._sorted

    def sort_key(self) -> tuple:
        if self._key is None:
            self._key = tuple((_mono_key(m), c.real, c.imag)
                              for m, c in self.sorted_items())
        return self._key

    def constant(self) -> complex | None:
        """The value of a constant Poly, None otherwise."""
        if not self.terms:
            return 0j
        if len(self.terms) == 1:
            ((e, atoms), c), = self.terms.items()
            if not atoms and not any(e):
                return c
        return None

    def derivative(self, axis: int) -> "Poly":
        """d/dtheta_{axis+1}, by the product and chain rules on each term;
        kept with the Poly, so chains of derivatives are built once."""
        if axis not in self._derivatives:
            self._derivatives[axis] = self._derivative(axis)
        return self._derivatives[axis]

    def _derivative(self, axis: int) -> "Poly":
        pairs = []
        for (e, atoms), c in self.terms.items():
            if e[axis]:
                pairs.append(((e[:axis] + (e[axis] - 1,) + e[axis + 1:], atoms),
                              c * e[axis]))
            for i, (name, arg, m) in enumerate(atoms):
                darg = arg.derivative(axis)
                if not darg.terms:
                    continue
                lower = ((name, arg, m - 1),) if m > 1 else ()
                kept = atoms[:i] + lower + atoms[i + 1:]
                if name == "exp":
                    extra, factor = ((name, arg, 1),), c * m
                else:
                    other = "cos" if name == "sin" else "sin"
                    extra, factor = ((other, arg, 1),), c * (m if name == "sin" else -m)
                base = _mono_mul((e, kept), ((0,) * self.dim, extra))
                pairs.extend((_mono_mul(base, dm), factor * dc)
                             for dm, dc in darg.terms.items())
        return collect(self.dim, pairs)

    def embed(self, dim: int, offset: int = 0) -> "Poly":
        """Re-index theta_k as theta_{k+offset} in a dim-dimensional space
        (coordinates cut off at the end must be unused)."""
        def shift(e):
            e = (0,) * offset + e
            return e[:dim] + (0,) * (dim - len(e))
        return Poly(dim, {(shift(e), tuple((n, a.embed(dim, offset), m)
                                           for n, a, m in atoms)): c
                          for (e, atoms), c in self.terms.items()})


Expr = Union[Const, Var, Add, Mul, Pow, Neg, Sin, Cos, Exp, Poly]

ZERO = Const(0j)
ONE = Const(1 + 0j)

_THETA_RE = re.compile(r"theta_([1-9][0-9]*)$")


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


# ---------------------------------------------------------------------------
# smart constructors (these do the local simplification)

def const(value) -> Const:
    return Const(complex(value))


def as_expr(value) -> Expr:
    """Coerce a number into a Const; pass expressions through."""
    if isinstance(value, (int, float, complex)):
        return const(value)
    if isinstance(value, (Const, Var, Add, Mul, Pow, Neg, Sin, Cos, Exp, Poly)):
        return value
    raise ExprError(f"cannot interpret {value!r} as an expression")


def var(name: str) -> Var:
    if name != "t" and not _THETA_RE.match(name):
        raise ExprError(f"invalid variable name {name!r}")
    return Var(name)


def add(*terms) -> Expr:
    flat: list[Expr] = []
    acc = 0j
    for term in terms:
        term = as_expr(term)
        if isinstance(term, Add):
            inner_const = 0j
            for sub_t in term.terms:
                if isinstance(sub_t, Const):
                    inner_const += sub_t.value
                else:
                    flat.append(sub_t)
            acc += inner_const
        elif isinstance(term, Const):
            acc += term.value
        else:
            flat.append(term)
    if acc != 0:
        if not cmath.isfinite(acc):
            raise ExprError("constant sum is out of range")
        flat.append(Const(acc))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    acc = 1 + 0j
    sign = 1
    for factor in factors:
        factor = as_expr(factor)
        while isinstance(factor, Neg):
            sign = -sign
            factor = factor.arg
        if isinstance(factor, Mul):
            for sub_f in factor.factors:
                if isinstance(sub_f, Const):
                    acc *= sub_f.value
                else:
                    flat.append(sub_f)
        elif isinstance(factor, Const):
            acc *= factor.value
        else:
            flat.append(factor)
    acc *= sign
    # a real product past the range of a double would carry on as a
    # complex NaN (inf * 0 in the imaginary part)
    if not cmath.isfinite(acc):
        raise ExprError("constant product is out of range")
    if acc == 0:
        return ZERO
    if acc == -1 and flat:
        body = flat[0] if len(flat) == 1 else Mul(tuple(flat))
        return Neg(body)
    if acc != 1:
        flat.insert(0, Const(acc))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def neg(e) -> Expr:
    e = as_expr(e)
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def sub(a, b) -> Expr:
    return add(a, neg(b))


def intpow(base, exponent: int) -> Expr:
    base = as_expr(base)
    if not isinstance(exponent, int):
        raise ExprError("exponents must be integers")
    if abs(exponent) > MAX_EXPONENT:
        raise ExprError(f"exponent {exponent} exceeds the supported range")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if exponent < 0 and not isinstance(base, (Var, Const)):
        raise ExprError("negative exponents require a variable or constant base")
    if isinstance(base, Const):
        if base.value == 0 and exponent < 0:
            raise PoleError("zero raised to a negative power")
        return _fold(pow, base.value, exponent)
    return Pow(base, exponent)


def _fold(fn, *args) -> Const:
    """Const(fn(*args)) for constant folding; a value out of the range of
    a complex double (OverflowError, or cmath's ValueError at infinity)
    is an ExprError."""
    try:
        return Const(fn(*args))
    except (OverflowError, ValueError) as e:
        text = ", ".join(_fmt_const(complex(a)) for a in args)
        raise ExprError(f"constant {fn.__name__}({text}) is out of range: {e}") from None


def sin(e) -> Expr:
    e = as_expr(e)
    if isinstance(e, Const):
        return _fold(cmath.sin, e.value)
    return Sin(e)


def cos(e) -> Expr:
    e = as_expr(e)
    if isinstance(e, Const):
        return _fold(cmath.cos, e.value)
    return Cos(e)


def exp(e) -> Expr:
    e = as_expr(e)
    if isinstance(e, Const):
        return _fold(cmath.exp, e.value)
    return Exp(e)


def simplify(e: Expr) -> Expr:
    """Rebuild the tree through the smart constructors."""
    match e:
        case Const() | Var() | Poly():
            return e
        case Add(terms):
            return add(*(simplify(t) for t in terms))
        case Mul(factors):
            return mul(*(simplify(f) for f in factors))
        case Pow(base, exponent):
            return intpow(simplify(base), exponent)
        case Neg(arg):
            return neg(simplify(arg))
        case Sin(arg):
            return sin(simplify(arg))
        case Cos(arg):
            return cos(simplify(arg))
        case Exp(arg):
            return exp(simplify(arg))
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# differentiation

def _d(e: Expr, v: str) -> Expr:
    match e:
        case Const():
            return ZERO
        case Var(name):
            return ONE if name == v else ZERO
        case Add(terms):
            return add(*(_d(t, v) for t in terms))
        case Neg(arg):
            return neg(_d(arg, v))
        case Mul(factors):
            parts = []
            for i, f in enumerate(factors):
                df = _d(f, v)
                if _is_zero(df):
                    continue
                parts.append(mul(*factors[:i], df, *factors[i + 1:]))
            return add(*parts)
        case Pow(base, exponent):
            db = _d(base, v)
            if _is_zero(db):
                return ZERO
            return mul(const(exponent), intpow(base, exponent - 1), db)
        case Sin(arg):
            return mul(cos(arg), _d(arg, v))
        case Cos(arg):
            return neg(mul(sin(arg), _d(arg, v)))
        case Exp(arg):
            return mul(exp(arg), _d(arg, v))
        case Poly():
            axis = int(v[6:]) - 1 if v != "t" else e.dim
            return e.derivative(axis) if axis < e.dim else ZERO
    raise ExprError(f"unknown node {e!r}")


def differentiate(e: Expr, v: str, order: int = 1) -> Expr:
    """Return the order-th partial derivative of e with respect to v."""
    if v != "t" and not _THETA_RE.match(v):
        raise ExprError(f"invalid variable name {v!r}")
    if order < 0:
        raise ExprError("derivative order must be nonnegative")
    out = simplify(e)
    for _ in range(order):
        out = _d(out, v)
    return out


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: Expr, bindings: Mapping[str, object]):
    """Evaluate at the bindings.  Values may be scalars or numpy arrays
    (which broadcast); the result is complex-valued either way."""
    match e:
        case Const(value):
            return value
        case Var(name):
            return _lookup(bindings, name)
        case Add(terms):
            out = evaluate(terms[0], bindings)
            for term in terms[1:]:
                out = out + evaluate(term, bindings)
            return out
        case Mul(factors):
            out = evaluate(factors[0], bindings)
            for factor in factors[1:]:
                out = out * evaluate(factor, bindings)
            return out
        case Pow(base, exponent):
            return _int_power(evaluate(base, bindings), exponent)
        case Neg(arg):
            return -evaluate(arg, bindings)
        case Sin(arg) | Cos(arg) | Exp(arg):
            return _func_value(type(e).__name__.lower(), evaluate(arg, bindings))
        case Poly():
            return _poly_evaluate(e, bindings)
    raise ExprError(f"unknown node {e!r}")


def _lookup(bindings: Mapping[str, object], name: str):
    try:
        v = bindings[name]
    except KeyError:
        raise EvalError(f"unbound variable {name!r}") from None
    if not isinstance(v, _SCALARS):
        import numpy as np
        if isinstance(v, np.ndarray):
            return v.astype(np.complex128, copy=False)
    return complex(v)


def _int_power(b, k: int):
    """b**k for an integer k; binary powering for scalars."""
    if not isinstance(b, _SCALARS):
        import numpy as np
        if isinstance(b, np.ndarray):
            if k < 0 and np.any(b == 0):
                raise PoleError("zero raised to a negative power")
            return b ** k
    if k < 0 and b == 0:
        raise PoleError("zero raised to a negative power")
    out = 1 + 0j
    n = abs(k)
    while n:
        if n & 1:
            out *= b
        b *= b
        n >>= 1
    return out if k >= 0 else 1 / out


def _func_value(name: str, v):
    if not isinstance(v, _SCALARS):
        import numpy as np
        if isinstance(v, np.ndarray):
            return getattr(np, name)(v)
    return _CMATH[name](v)


def _poly_evaluate(p: Poly, bindings):
    """Sum the terms in sorted order; powers and atoms are computed once."""
    values: dict = {}
    out = 0j
    for (e, atoms), c in p.sorted_items():
        v = c
        for axis, k in enumerate(e):
            if k:
                if (axis, k) not in values:
                    values[axis, k] = _int_power(
                        _lookup(bindings, f"theta_{axis + 1}"), k)
                v = v * values[axis, k]
        for atom in atoms:
            if atom not in values:
                name, arg, m = atom
                values[atom] = _int_power(
                    _func_value(name, _poly_evaluate(arg, bindings)), m)
            v = v * values[atom]
        out = out + v
    return out


def variables(e: Expr) -> set[str]:
    match e:
        case Const():
            return set()
        case Var(name):
            return {name}
        case Add(terms):
            out: set[str] = set()
            for t in terms:
                out |= variables(t)
            return out
        case Mul(factors):
            out = set()
            for f in factors:
                out |= variables(f)
            return out
        case Pow(base, _):
            return variables(base)
        case Neg(arg) | Sin(arg) | Cos(arg) | Exp(arg):
            return variables(arg)
        case Poly():
            out = set()
            for exps, atoms in e.terms:
                out |= {f"theta_{i + 1}" for i, k in enumerate(exps) if k}
                for _, arg, _ in atoms:
                    out |= variables(arg)
            return out
    raise ExprError(f"unknown node {e!r}")


def theta_indices(e: Expr) -> set[int]:
    out = set()
    for name in variables(e):
        m = _THETA_RE.match(name)
        if m:
            out.add(int(m.group(1)))
    return out


def depends_on(e: Expr, v: str) -> bool:
    return v in variables(e)


# ---------------------------------------------------------------------------
# canonical sparse form

def _mono_key(m) -> tuple:
    e, atoms = m
    return (tuple(-k for k in e), tuple((n, a.sort_key(), k) for n, a, k in atoms))


def _mono_mul(a, b):
    (ea, aa), (eb, ab) = a, b
    e = tuple([x + y for x, y in zip(ea, eb)])
    if not ab:
        return e, aa
    if not aa:
        return e, ab
    merged: dict = {}
    for n, arg, k in aa + ab:
        merged[n, arg] = merged.get((n, arg), 0) + k
    return e, tuple(sorted(((n, arg, k) for (n, arg), k in merged.items()),
                           key=lambda atom: (atom[0], atom[1].sort_key())))


def collect(dim: int, pairs) -> Poly:
    """Sum (monomial, value) pairs into a Poly.  A monomial's sum is
    dropped when it is exactly 0 or no larger than 8 eps times the sum of
    the magnitudes of its contributions (roundoff of a cancellation)."""
    acc: dict = {}
    mag: dict = {}
    for m, c in pairs:
        if m in acc:
            acc[m] += c
            mag[m] += abs(c)
        else:
            acc[m] = c
            mag[m] = abs(c)
    return Poly(dim, {m: c for m, c in acc.items()
                      if not (c == 0 or abs(c) <= _ROUNDOFF * mag[m] < float("inf"))})


def product_terms(p: Poly, q: Poly, weight=1) -> list:
    """The (monomial, value) pairs of weight * p * q, uncollected."""
    return [(_mono_mul(mp, mq), cp * cq * weight)
            for mp, cp in p.terms.items() for mq, cq in q.terms.items()]


def _const_poly(value, dim: int) -> Poly:
    return collect(dim, [(((0,) * dim, ()), complex(value))])


def canonical(e, dim: int, t: bool = False) -> Poly:
    """Convert an expression in theta_1..theta_dim into its canonical
    sparse form.  With t=True the variable t is the last of the dim axes
    and theta_k ranges over the first dim - 1; otherwise t is refused.
    Constant arithmetic that leaves the range of a complex double is an
    ExprError.  Sums and products carry a non-finite coefficient through
    to the result (unless a zero factor or a zeroth power drops the
    term), so one check of the result covers them; each sin/cos/exp
    argument is checked when it is converted."""
    p = _canonical(e, dim, t)
    if p is e or all(map(cmath.isfinite, p.terms.values())):
        return p
    raise ExprError(f"constant arithmetic in {to_string(e)} is out of range")


def _canonical(e, dim: int, t: bool) -> Poly:
    n_theta = dim - t
    match e:
        case Poly():
            if e.dim == dim and not t:
                return e
            if any(k > n_theta for k in theta_indices(e)):
                raise ExprError(f"coefficient references theta beyond dim {n_theta}")
            return e.embed(dim)
        case Const(value):
            return _const_poly(value, dim)
        case Var(name):
            m = _THETA_RE.match(name)
            if t and name == "t":
                k = dim - 1
            elif m is None or int(m.group(1)) > n_theta:
                raise ExprError(f"{name} is not a parameter of dim {n_theta}")
            else:
                k = int(m.group(1)) - 1
            return Poly(dim, {(tuple(int(i == k) for i in range(dim)), ()): 1 + 0j})
        case Add(terms):
            return collect(dim, [mc for term in terms
                                 for mc in _canonical(term, dim, t).terms.items()])
        case Mul(factors):
            out = _canonical(factors[0], dim, t)
            for f in factors[1:]:
                out = collect(dim, product_terms(out, _canonical(f, dim, t)))
            return out
        case Neg(arg):
            return Poly(dim, {m: -c for m, c in _canonical(arg, dim, t).terms.items()})
        case Pow(base, exponent):
            return _poly_power(_canonical(base, dim, t), exponent)
        case Sin(arg) | Cos(arg) | Exp(arg):
            p = canonical(arg, dim, t)
            name = type(e).__name__.lower()
            value = p.constant()
            if value is not None:
                return _const_poly(_fold(_CMATH[name], value).value, dim)
            return Poly(dim, {((0,) * dim, ((name, p, 1),)): 1 + 0j})
    raise ExprError(f"unknown node {e!r}")


def _poly_power(p: Poly, k: int) -> Poly:
    if k == 0:
        return _const_poly(1, p.dim)
    if len(p.terms) == 1:
        ((e, atoms), c), = p.terms.items()
        if k < 0 and atoms:
            raise ExprError("negative exponents require a variable or constant base")
        return collect(p.dim, [((tuple(x * k for x in e),
                                 tuple((n, a, m * k) for n, a, m in atoms)),
                                _int_power(c, k))])
    if k < 0:
        raise ExprError("negative exponents require a variable or constant base")
    if k > MAX_EXPANDED_POWER:
        raise ExprError(
            f"a power of a sum is expanded up to {MAX_EXPANDED_POWER}, not {k}")
    out = p
    for _ in range(k - 1):
        out = collect(p.dim, product_terms(out, p))
    return out


def to_expr(p: Poly) -> Expr:
    """The tree of a canonical form, terms in sorted order."""
    return add(*(mul(Const(c), *(intpow(Var(f"theta_{i + 1}"), k)
                                 for i, k in enumerate(e) if k),
                     *(intpow(_FUNCS[n](to_expr(a)), m) for n, a, m in atoms))
                 for (e, atoms), c in p.sorted_items()))


# ---------------------------------------------------------------------------
# parsing
#
# expr   := term (('+'|'-') term)*
# term   := ['-'] unit
# unit   := factor (('*'|'/') factor)*
# factor := atom ['^' int]
# atom   := number | ident | '(' expr ')' | func '(' expr ')'
# func   := 'sin' | 'cos' | 'exp'
#
# Numbers are decimals with an optional exponent and an optional trailing
# 'i' marking an imaginary constant.  A leading '-' on a term is accepted
# so that printed derivatives round-trip.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = {"sin": Sin, "cos": Cos, "exp": Exp}


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r}",
                                 len(text) - len(stripped))
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                t = self.term()
                terms.append(Neg(t) if value == "-" else t)
            else:
                break
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.unit())
        return self.unit()

    def unit(self) -> Expr:
        factors = [self.factor()]
        invert = [False]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                factors.append(self.factor())
                invert.append(value == "/")
            else:
                break
        out: list[Expr] = []
        for f, inv in zip(factors, invert):
            if inv:
                kind, _, pos = self.tokens[self.i - 1] if self.i else ("", "", 0)
                if not isinstance(f, (Var, Const)):
                    raise ParseError(
                        "denominator must be a variable or constant", pos)
                out.append(intpow(f, -1))
            else:
                out.append(f)
        return out[0] if len(out) == 1 else Mul(tuple(out))

    def factor(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            exponent = self.integer()
            return intpow(base, exponent)
        return base

    def integer(self) -> int:
        sign = 1
        kind, value, pos = self.next()
        if kind == "op" and value == "-":
            sign = -1
            kind, value, pos = self.next()
        if kind != "number" or not re.fullmatch(r"\d+", value):
            raise ParseError("expected an integer exponent", pos)
        try:
            return sign * int(value)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ParseError("exponent exceeds the supported range", pos) from None

    def atom(self) -> Expr:
        kind, value, pos = self.next()
        if kind == "number":
            x = float(value.rstrip("i"))
            if cmath.isinf(x):
                raise ParseError(f"number {value} is out of range", pos)
            return Const(complex(0, x) if value.endswith("i") else complex(x))
        if kind == "ident":
            if value in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _FUNCS[value](arg)
            if value == "t":
                return Var("t")
            m = _THETA_RE.match(value)
            if m:
                k = int(m.group(1))
                if not 1 <= k <= self.dim:
                    raise ParseError(
                        f"theta index out of range: {value} with dim={self.dim}", pos)
                return Var(value)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str, dim: int) -> Expr:
    """Parse an expression over t and theta_1..theta_dim."""
    if dim < 1:
        raise ExprError("dim must be a positive integer")
    try:
        return _Parser(text, dim).parse()
    except RecursionError:
        raise ExprError("expression nests too deeply") from None


# ---------------------------------------------------------------------------
# printing

def _fmt_real(x: float) -> str:
    if abs(x) < 1e15 and x == int(x):  # int() refuses inf and nan
        return str(int(x))
    return repr(x)


def _fmt_const(c: complex, rel: float = _DISPLAY_REL) -> str:
    """c as text; a part at most rel times the other part's magnitude is
    left out (rel = 0 leaves out exact zeros only)."""
    re_, im = c.real, c.imag
    if abs(im) <= rel * abs(re_):
        return _fmt_real(re_)
    if abs(re_) <= rel * abs(im):
        return _fmt_real(im) + "i"
    op = "+" if im >= 0 else "-"
    return f"({_fmt_real(re_)}{op}{_fmt_real(abs(im))}i)"


def _is_sum(e: Expr) -> bool:
    return isinstance(e, Add) or (isinstance(e, Poly) and len(e.terms) > 1)


def _product_factor_str(f: Expr, first: bool) -> str:
    s = to_string(f)
    if _is_sum(f) or (s.startswith("-") and not first):
        return f"({s})"
    return s


def _atom_str(e: Expr) -> str:
    """Render e as a power base (parenthesize anything non-atomic)."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, (Sin, Cos, Exp)):
        return to_string(e)
    if isinstance(e, Const):
        s = _fmt_const(e.value)
        return s if not s.startswith("-") else f"({s})"
    return f"({to_string(e)})"


def to_string(e: Expr) -> str:
    match e:
        case Const(value):
            return _fmt_const(value)
        case Var(name):
            return name
        case Add(terms):
            out = []
            for i, term in enumerate(terms):
                body = term
                negative = False
                if isinstance(term, Neg):
                    negative, body = True, term.arg
                s = to_string(body)
                if s.startswith("-"):
                    negative, s = not negative, s[1:]
                if _is_sum(body):
                    s = f"({s})"
                if i == 0:
                    out.append(("-" if negative else "") + s)
                else:
                    out.append((" - " if negative else " + ") + s)
            return "".join(out)
        case Mul(factors):
            return "*".join(_product_factor_str(f, i == 0)
                            for i, f in enumerate(factors))
        case Pow(base, exponent):
            return f"{_atom_str(base)}^{exponent}"
        case Neg(arg):
            s = to_string(arg)
            if _is_sum(arg) or s.startswith("-"):
                return f"-({s})"
            return f"-{s}"
        case Sin(arg):
            return f"sin({to_string(arg)})"
        case Cos(arg):
            return f"cos({to_string(arg)})"
        case Exp(arg):
            return f"exp({to_string(arg)})"
        case Poly():
            return _poly_str(e)
    raise ExprError(f"unknown node {e!r}")


def _poly_str(p: Poly) -> str:
    """Terms in sorted order, coefficients exact so that parsing and
    converting the text gives back an equal Poly."""
    if not p.terms:
        return "0"
    out = []
    for (e, atoms), c in p.sorted_items():
        factors = [f"theta_{i + 1}" + ("" if k == 1 else f"^{k}")
                   for i, k in enumerate(e) if k]
        factors += [f"{n}({_poly_str(a)})" + ("" if m == 1 else f"^{m}")
                    for n, a, m in atoms]
        negative = c.real < 0 if c.imag == 0 else (c.real == 0 and c.imag < 0)
        c = -c if negative else c
        if c != 1 or not factors:
            factors.insert(0, _fmt_const(c, 0.0))
        sign = (" - " if negative else " + ") if out else ("-" if negative else "")
        out.append(sign + "*".join(factors))
    return "".join(out)
