"""Symbolic scalar expressions in the parameters theta_1..theta_d and time t.

The expression language is deliberately tiny: complex constants, the
variables ``t`` and ``theta_k``, sums, products, integer powers, negation,
and the unary functions sin/cos/exp.  It is closed under differentiation.

Every expression is held in one canonical sparse form, ``Poly``: a dict
from monomial key to complex coefficient, where a key is the exponent
tuple (negative entries allowed) and a sorted tuple of atoms
(sin|cos|exp, canonical argument, multiplicity).  The exponent tuple has
one entry per theta axis and, in a Poly with a t slot, one more for t,
last.  ``parse`` gives its result a t slot; operator coefficients have
none.  Like terms collect when a Poly is built, so zero is the empty
dict and equality is dict equality.  A collected sum is zero when it is
exactly 0 or within 8 eps of the summed magnitudes of its contributions,
never by an absolute cut.  Trig identities are not applied:
sin^2 + cos^2 - 1 stays three terms and evaluates to about 0.
"""

from __future__ import annotations

import cmath
import re
import sys
from typing import Mapping

__all__ = [
    "Poly", "ExprError", "ParseError", "EvalError", "PoleError",
    "const", "var", "add", "mul", "neg", "sub", "intpow", "sin", "cos", "exp",
    "parse", "to_string", "simplify", "differentiate", "evaluate",
    "variables", "theta_indices", "depends_on",
    "collect", "product_terms",
]

MAX_EXPONENT = 2 ** 31
MAX_EXPANDED_POWER = 64
_ROUNDOFF = 8 * sys.float_info.epsilon
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


class Poly:
    """Canonical sparse sum of monomials.

    ``dim`` is the length of an exponent tuple: the theta axes, then t
    when ``t`` is set.  ``terms`` maps (exponents, atoms) to a nonzero
    complex coefficient; an atom is (name, argument Poly of the same
    layout, multiplicity).  Build one with the constructors below,
    ``parse`` or ``collect``; treat it as immutable."""

    __slots__ = ("dim", "t", "terms", "_hash", "_sorted", "_key", "_derivatives")

    def __init__(self, dim: int, terms: dict, t: bool = False):
        self.dim = dim
        self.t = t
        self.terms = terms
        self._hash = self._sorted = self._key = None
        self._derivatives: dict[int, Poly] = {}

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.dim == other.dim
                and self.t == other.t and self.terms == other.terms)

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
        """The derivative along an axis of the exponent tuple, by the
        product and chain rules on each term; kept with the Poly, so
        chains of derivatives are built once."""
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
        return collect(self.dim, pairs, self.t)

    def embed(self, dim: int, offset: int = 0, t: bool = False) -> "Poly":
        """This Poly with dim axes: theta_k becomes theta_{k+offset} among
        the first dim - t, and t is the last when t is set.  Axes cut off
        at the end, and a t axis dropped, must be unused."""
        if (dim, offset, t) == (self.dim, 0, self.t):
            return self
        n, m = dim - t, self.dim - self.t

        def shift(e):
            theta = ((0,) * offset + e[:m])[:n]
            return theta + (0,) * (n - len(theta)) + ((e[m:] or (0,)) if t else ())
        return Poly(dim, {(shift(e), tuple((name, a.embed(dim, offset, t), k)
                                           for name, a, k in atoms)): c
                          for (e, atoms), c in self.terms.items()}, t)


_THETA_RE = re.compile(r"theta_([1-9][0-9]*)$")


def _axis_name(p: Poly, axis: int) -> str:
    return "t" if p.t and axis == p.dim - 1 else f"theta_{axis + 1}"


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


def collect(dim: int, pairs, t: bool = False) -> Poly:
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
                      if not (c == 0 or abs(c) <= _ROUNDOFF * mag[m] < float("inf"))}, t)


def product_terms(p: Poly, q: Poly, weight=1) -> list:
    """The (monomial, value) pairs of weight * p * q, uncollected."""
    return [(_mono_mul(mp, mq), cp * cq * weight)
            for mp, cp in p.terms.items() for mq, cq in q.terms.items()]


def _const_poly(value, dim: int, t: bool = False) -> Poly:
    return collect(dim, [(((0,) * dim, ()), complex(value))], t)


def _var_poly(axis: int, dim: int, t: bool) -> Poly:
    return Poly(dim, {(tuple(int(i == axis) for i in range(dim)), ()): 1 + 0j}, t)


def _finite(p: Poly, what: str) -> Poly:
    """p, when constant arithmetic left every coefficient in the range of
    a complex double; a non-finite coefficient carries through sums and
    products, so one check of a result covers its parts."""
    if all(map(cmath.isfinite, p.terms.values())):
        return p
    raise ExprError(f"constant {what} is out of range")


def _fold(fn, *args) -> complex:
    """fn(*args) for constant folding; a value out of the range of a
    complex double (OverflowError, or cmath's ValueError at infinity) is
    an ExprError."""
    try:
        return fn(*args)
    except (OverflowError, ValueError) as e:
        text = ", ".join(_fmt_const(complex(a)) for a in args)
        raise ExprError(f"constant {fn.__name__}({text}) is out of range: {e}") from None


# Sums, products, powers and functions of Polys of one layout.  A sum
# stores its terms in print order, so that the order in which collections
# later add contributions does not depend on how the input was written.

def _sum(ps: list) -> Poly:
    p = collect(ps[0].dim, [mc for q in ps for mc in q.terms.items()], ps[0].t)
    return _finite(Poly(p.dim, dict(p.sorted_items()), p.t), "sum")


def _product(ps: list) -> Poly:
    out = ps[0]
    for p in ps[1:]:
        out = collect(out.dim, product_terms(out, p), out.t)
    return _finite(out, "product")


def _neg(p: Poly) -> Poly:
    return Poly(p.dim, {m: -c for m, c in p.terms.items()}, p.t)


_NEGATIVE_POWER = "negative exponents require a monomial in t and theta as base"


def _power(p: Poly, k: int) -> Poly:
    if abs(k) > MAX_EXPONENT:
        raise ExprError(f"exponent {k} exceeds the supported range")
    if k == 0:
        return _const_poly(1, p.dim, p.t)
    if k == 1:
        return p
    value = p.constant()
    if value is not None:
        if value == 0 and k < 0:
            raise PoleError("zero raised to a negative power")
        return _const_poly(_fold(pow, value, k), p.dim, p.t)
    if len(p.terms) == 1:
        ((e, atoms), c), = p.terms.items()
        if k < 0 and atoms:
            raise ExprError(_NEGATIVE_POWER)
        return _finite(collect(p.dim, [((tuple(x * k for x in e),
                                         tuple((n, a, m * k) for n, a, m in atoms)),
                                        _int_power(c, k))], p.t), "power")
    if k < 0:
        raise ExprError(_NEGATIVE_POWER)
    if k > MAX_EXPANDED_POWER:
        raise ExprError(
            f"a power of a sum is expanded up to {MAX_EXPANDED_POWER}, not {k}")
    return _product([p] * k)


def _func(name: str, p: Poly) -> Poly:
    value = p.constant()
    if value is not None:
        return _const_poly(_fold(_CMATH[name], value), p.dim, p.t)
    return Poly(p.dim, {((0,) * p.dim, ((name, p, 1),)): 1 + 0j}, p.t)


# ---------------------------------------------------------------------------
# constructors: any mix of numbers and Polys; operands are brought to one
# layout, the most theta axes among them and a t slot when any has one

def simplify(e) -> Poly:
    """Coerce a number into a constant Poly; pass a Poly through."""
    if isinstance(e, Poly):
        return e
    if isinstance(e, _SCALARS):
        return const(e)
    raise ExprError(f"cannot interpret {e!r} as an expression")


def _aligned(values) -> list[Poly]:
    ps = [simplify(v) for v in values]
    t = any(p.t for p in ps)
    dim = max((p.dim - p.t for p in ps), default=0) + t
    return [p.embed(dim, 0, t) for p in ps]


def const(value) -> Poly:
    return _const_poly(value, 0)


ZERO = Poly(0, {})
ONE = const(1)


def var(name: str) -> Poly:
    if name == "t":
        return _var_poly(0, 1, True)
    m = _THETA_RE.match(name)
    if m is None:
        raise ExprError(f"invalid variable name {name!r}")
    k = int(m.group(1))
    return _var_poly(k - 1, k, False)


def add(*terms) -> Poly:
    ps = _aligned(terms)
    return _sum(ps) if ps else ZERO


def mul(*factors) -> Poly:
    ps = _aligned(factors)
    return _product(ps) if ps else ONE


def neg(e) -> Poly:
    return _neg(simplify(e))


def sub(a, b) -> Poly:
    return add(a, neg(b))


def intpow(base, exponent: int) -> Poly:
    if not isinstance(exponent, int):
        raise ExprError("exponents must be integers")
    return _power(simplify(base), exponent)


def sin(e) -> Poly:
    return _func("sin", simplify(e))


def cos(e) -> Poly:
    return _func("cos", simplify(e))


def exp(e) -> Poly:
    return _func("exp", simplify(e))


# ---------------------------------------------------------------------------
# differentiation and evaluation

def differentiate(e, v: str, order: int = 1) -> Poly:
    """The order-th partial derivative of e with respect to v, from the
    memoized Poly.derivative chain."""
    if v != "t" and not _THETA_RE.match(v):
        raise ExprError(f"invalid variable name {v!r}")
    if order < 0:
        raise ExprError("derivative order must be nonnegative")
    p = simplify(e)
    n = p.dim - p.t
    if v == "t":
        axis = n if p.t else None
    else:
        axis = int(v[6:]) - 1 if int(v[6:]) <= n else None
    if axis is None:
        return p if order == 0 else Poly(p.dim, {}, p.t)
    for _ in range(order):
        p = p.derivative(axis)
    return p


def evaluate(p: Poly, bindings: Mapping[str, object]):
    """Evaluate at the bindings of theta_k and t.  Values may be scalars
    or numpy arrays (which broadcast); the result is complex-valued
    either way.  Terms are summed in sorted order; powers and atoms are
    computed once."""
    values: dict = {}
    out = 0j
    for (e, atoms), c in p.sorted_items():
        v = c
        for axis, k in enumerate(e):
            if k:
                if (axis, k) not in values:
                    values[axis, k] = _int_power(
                        _lookup(bindings, _axis_name(p, axis)), k)
                v = v * values[axis, k]
        for atom in atoms:
            if atom not in values:
                name, arg, m = atom
                values[atom] = _int_power(_func_value(name, evaluate(arg, bindings)), m)
            v = v * values[atom]
        if isinstance(v, _SCALARS) or not isinstance(out, _SCALARS):
            out = out + v
        else:  # v is a new array: add the scalar sum so far in place
            v += out
            out = v
    return out


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


def variables(p: Poly) -> set[str]:
    out: set[str] = set()
    for e, atoms in p.terms:
        out.update(_axis_name(p, i) for i, k in enumerate(e) if k)
        for _, arg, _ in atoms:
            out |= variables(arg)
    return out


def theta_indices(p: Poly) -> set[int]:
    return {int(name[6:]) for name in variables(p) if name != "t"}


def depends_on(p: Poly, v: str) -> bool:
    return v in variables(p)


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
# so that printed derivatives round-trip.  A denominator is a monomial in
# t and theta (a constant, or a product of their powers).

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


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

    def parse(self) -> Poly:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", pos)
        return e

    def expr(self) -> Poly:
        terms = [self.term()]
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in "+-":
                return terms[0] if len(terms) == 1 else _sum(terms)
            self.next()
            t = self.term()
            terms.append(_neg(t) if value == "-" else t)

    def term(self) -> Poly:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return _neg(self.unit())
        return self.unit()

    def unit(self) -> Poly:
        out = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind != "op" or value not in "*/":
                return out
            self.next()
            f = self.factor()
            if value == "/":
                if len(f.terms) > 1 or any(atoms for _, atoms in f.terms):
                    raise ParseError("denominator must be a monomial in t and theta", pos)
                f = _power(f, -1)
            out = _product([out, f])

    def factor(self) -> Poly:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return _power(base, self.integer())
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

    def atom(self) -> Poly:
        kind, value, pos = self.next()
        n = self.dim + 1  # theta_1..theta_dim, then t
        if kind == "number":
            x = float(value.rstrip("i"))
            if cmath.isinf(x):
                raise ParseError(f"number {value} is out of range", pos)
            return _const_poly(complex(0, x) if value.endswith("i") else complex(x),
                               n, True)
        if kind == "ident":
            if value in _CMATH:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _func(value, arg)
            if value == "t":
                return _var_poly(self.dim, n, True)
            m = _THETA_RE.match(value)
            if m:
                k = int(m.group(1))
                if not 1 <= k <= self.dim:
                    raise ParseError(
                        f"theta index out of range: {value} with dim={self.dim}", pos)
                return _var_poly(k - 1, n, True)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}", pos)


def parse(text: str, dim: int) -> Poly:
    """Parse an expression over t and theta_1..theta_dim into a Poly with
    dim theta axes and a t slot."""
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


def _fmt_const(c: complex) -> str:
    """c as text, in full; a real or imaginary part is left out only
    when it is 0."""
    re_, im = c.real, c.imag
    if im == 0:
        return _fmt_real(re_)
    if re_ == 0:
        return _fmt_real(im) + "i"
    op = "+" if im >= 0 else "-"
    return f"({_fmt_real(re_)}{op}{_fmt_real(abs(im))}i)"


def to_string(p: Poly) -> str:
    """p as text, terms in sorted order.  Every coefficient is printed in
    full, so that parsing the text gives back an equal Poly."""
    if not p.terms:
        return "0"
    out = []
    for (e, atoms), c in p.sorted_items():
        factors = [_axis_name(p, i) + ("" if k == 1 else f"^{k}")
                   for i, k in enumerate(e) if k]
        factors += [f"{n}({to_string(a)})" + ("" if m == 1 else f"^{m}")
                    for n, a, m in atoms]
        text = _fmt_const(c)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        if text != "1" or not factors:
            factors.insert(0, text)
        sign = (" - " if negative else " + ") if out else ("-" if negative else "")
        out.append(sign + "*".join(factors))
    return "".join(out)
