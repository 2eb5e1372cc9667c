"""Generating series over a word alphabet with differential-operator
coefficients, and the interconnection algebra on them.

A GenSeries is a truncated formal power series: a finite map from words to
DiffOp coefficients plus bookkeeping.  Two truncation levels are tracked:

* ``max_len``   - storage truncation; no stored word is longer.
* ``exact_len`` - the guaranteed-correct prefix: coefficients of words up
  to this length are exactly those of the untruncated series.  Binary
  operations propagate it so a result is always auditable.

The parallel product (shuffle) is only an algebra morphism for the
evaluated maps when the two series act on disjoint theta coordinates and
disjoint input letters; ``shuffle_series`` enforces that precondition and
raises OverlappingSupport otherwise.  The series (cascade) product
``compose`` requires the left factor to be linear, i.e. every word holds
at most one input letter.
"""

from __future__ import annotations

import cmath
import re
from typing import Iterable, Mapping

from . import diffop as do
from . import expr as ex
from .diffop import DiffOp
from .words import (DRIFT, EMPTY_WORD, LETTER_PATTERN, Letter, Word, parse_word,
                    shuffle_words, word)

__all__ = [
    "GenSeries", "SeriesError", "OverlappingSupport", "NotLinear", "NonFinite",
    "one_series", "series_from_coeffs",
    "parallel_sum", "series_scale", "shuffle_series", "compose",
    "left_shift", "truncate", "is_linear", "linear_degree",
    "embed", "relabel_letters",
    "series_to_text", "series_from_text", "save_series", "load_series",
]

class SeriesError(Exception):
    pass


class OverlappingSupport(SeriesError):
    """Parallel product attempted across shared parameters or letters."""


class NotLinear(SeriesError):
    """Series product attempted with a nonlinear left factor."""


class NonFinite(SeriesError):
    """A coefficient is infinite or NaN, so the series has no text form."""


class GenSeries:
    __slots__ = ("dim", "alphabet", "coeffs", "max_len", "exact_len")

    def __init__(self, dim: int, coeffs: Mapping[Word, DiffOp],
                 max_len: int, alphabet: Iterable[Letter] = (),
                 exact_len: int | None = None):
        if dim < 1:
            raise SeriesError("dim must be a positive integer")
        if max_len < 0:
            raise SeriesError("max_len must be nonnegative")
        letters = set(alphabet) | {DRIFT}
        kept: dict[Word, DiffOp] = {}
        for w, op in coeffs.items():
            if not isinstance(w, Word):
                raise SeriesError(f"coefficient key {w!r} is not a Word")
            if op.dim != dim:
                raise do.DimensionMismatch(
                    f"coefficient of {w.text()} has dim {op.dim}, series dim {dim}")
            if len(w) > max_len:
                raise SeriesError(
                    f"word {w.text()} longer than max_len={max_len}")
            if op.is_zero():
                continue
            letters.update(w)
            kept[w] = op
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "alphabet", frozenset(letters))
        object.__setattr__(self, "coeffs", kept)
        object.__setattr__(self, "max_len", max_len)
        object.__setattr__(self, "exact_len",
                           max_len if exact_len is None else min(exact_len, max_len))

    def __setattr__(self, *args):
        raise AttributeError("GenSeries is immutable")

    @property
    def param_support(self) -> frozenset[int]:
        """The theta indices that the stored coefficients depend on or
        differentiate in."""
        return frozenset().union(*(op.theta_indices() for op in self.coeffs.values()))

    def sorted_words(self) -> list[Word]:
        return sorted(self.coeffs, key=Word.sort_key)

    def coefficient(self, w: Word) -> DiffOp:
        return self.coeffs.get(w, do.zero(self.dim))

    def input_letters(self) -> frozenset[Letter]:
        return frozenset(l for l in self.alphabet if not l.is_drift)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, GenSeries) and self.dim == other.dim
                and self.coeffs == other.coeffs)

    def __repr__(self):
        n = len(self.coeffs)
        return (f"GenSeries(dim={self.dim}, words={n}, max_len={self.max_len}, "
                f"support={sorted(self.param_support)})")


def one_series(dim: int, alphabet: Iterable[Letter] = ()) -> GenSeries:
    """The series 1*empty-word."""
    return GenSeries(dim, {EMPTY_WORD: do.identity(dim)}, 0, alphabet)


def series_from_coeffs(dim: int, coeffs: Mapping[Word, DiffOp]) -> GenSeries:
    """The series with these coefficients, stored to its longest word."""
    return GenSeries(dim, coeffs, max((len(w) for w in coeffs), default=0))


def is_linear(c: GenSeries) -> bool:
    """At most one input letter in every supported word."""
    return all(w.input_letter_count() <= 1 for w in c.coeffs)


def linear_degree(c: GenSeries) -> int | None:
    """The largest i + j over the input words x0^i x_l x0^j of c, when c
    has the shape the growth fits of ``bounds`` read: one theta axis, one
    input letter x_l in all its input words, and on each of them the one
    operator term alpha D^(i+j).  None for any other series."""
    words = [w for w in c.coeffs if w.input_letter_count()]
    letters = set().union(*map(Word.input_letters, words))
    if c.dim != 1 or len(letters) != 1 or any(
            w.input_letter_count() > 1 or c.coeffs[w].terms.keys() != {(len(w) - 1,)}
            for w in words):
        return None
    return max(len(w) - 1 for w in words)


def truncate(c: GenSeries, n: int) -> GenSeries:
    if n < 0:
        raise SeriesError("truncation length must be nonnegative")
    kept = {w: op for w, op in c.coeffs.items() if len(w) <= n}
    return GenSeries(c.dim, kept, n, c.alphabet, exact_len=min(c.exact_len, n))


def series_scale(factor, c: GenSeries) -> GenSeries:
    """Scalar (or theta-dependent Poly) multiple of every coefficient."""
    factor_op = do.from_expr(factor, c.dim)
    coeffs = {w: do.op_mul(factor_op, op) for w, op in c.coeffs.items()}
    return GenSeries(c.dim, coeffs, c.max_len, c.alphabet, exact_len=c.exact_len)


def embed(c: GenSeries, dim: int, offset: int = 0) -> GenSeries:
    """Re-index every theta coordinate by +offset inside a dim-dimensional
    parameter space (theta_k of c becomes theta_{k+offset})."""
    if dim < c.dim + offset:
        raise SeriesError("target dim too small for the requested offset")
    pad = (0,) * (dim - offset - c.dim)
    coeffs = {w: DiffOp(dim, {(0,) * offset + alpha + pad: coeff.embed(dim, offset)
                              for alpha, coeff in op.terms.items()}, _trusted=True)
              for w, op in c.coeffs.items()}
    return GenSeries(dim, coeffs, c.max_len, c.alphabet, exact_len=c.exact_len)


def relabel_letters(c: GenSeries, mapping: Mapping[Letter, Letter]) -> GenSeries:
    """Rename input letters (e.g. to make two alphabets disjoint before a
    parallel product)."""
    for old, new in mapping.items():
        if old.is_drift or new.is_drift:
            raise SeriesError("the drift letter cannot be relabeled")
    coeffs = {}
    for w, op in c.coeffs.items():
        new_word = Word(mapping.get(l, l) for l in w)
        if new_word in coeffs:
            raise SeriesError("letter relabeling collides on a stored word")
        coeffs[new_word] = op
    alphabet = {mapping.get(l, l) for l in c.alphabet}
    return GenSeries(c.dim, coeffs, c.max_len, alphabet, exact_len=c.exact_len)


def parallel_sum(c: GenSeries, d: GenSeries) -> GenSeries:
    """Coefficient-wise sum, the generating series of the parallel sum
    interconnection.

    Identical theta indices refer to the same physical parameter, so the
    two series must live on one parameter space; to sum systems on
    distinct parameters, move one past the other with embed first.
    """
    if c.dim != d.dim:
        raise do.DimensionMismatch(
            f"series dims differ: {c.dim} vs {d.dim}; embed into a joint space first")
    coeffs = dict(c.coeffs)
    for w, op in d.coeffs.items():
        coeffs[w] = do.op_add(coeffs[w], op) if w in coeffs else op
    return GenSeries(c.dim, coeffs, max(c.max_len, d.max_len),
                     c.alphabet | d.alphabet, exact_len=min(c.exact_len, d.exact_len))


def _check_shuffle_preconditions(c: GenSeries, d: GenSeries):
    shared_params = c.param_support & d.param_support
    if shared_params:
        raise OverlappingSupport(
            "parallel product needs disjoint parameter supports; "
            f"shared theta indices: {sorted(shared_params)}")
    shared_letters = c.input_letters() & d.input_letters()
    if shared_letters:
        raise OverlappingSupport(
            "parallel product needs disjoint input letters; "
            f"shared: {sorted(l.text() for l in shared_letters)}")


def _shuffle_series_raw(c: GenSeries, d: GenSeries) -> GenSeries:
    """The shuffle without the support preconditions.  With overlapping
    supports the result does NOT represent the product of the evaluated
    maps."""
    if c.dim != d.dim:
        raise do.DimensionMismatch(
            f"series dims differ: {c.dim} vs {d.dim}; embed into a joint space first")
    max_len = c.max_len + d.max_len
    coeffs: dict[Word, DiffOp] = {}
    for wc in sorted(c.coeffs, key=Word.sort_key):
        for wd in sorted(d.coeffs, key=Word.sort_key):
            op = do.op_mul(c.coeffs[wc], d.coeffs[wd])
            if op.is_zero():
                continue
            for w, mult in shuffle_words(wc, wd).items():
                piece = op if mult == 1 else do.op_scale(mult, op)
                coeffs[w] = do.op_add(coeffs[w], piece) if w in coeffs else piece
    return GenSeries(c.dim, coeffs, max_len, c.alphabet | d.alphabet,
                     exact_len=min(c.exact_len, d.exact_len))


def shuffle_series(c: GenSeries, d: GenSeries) -> GenSeries:
    """Shuffle product of two series, the generating series of the
    parallel product interconnection.

    Requires disjoint parameter supports and disjoint input letters;
    without that the linear extension of the word shuffle fails to
    represent the pointwise product of the outputs.
    """
    _check_shuffle_preconditions(c, d)
    return _shuffle_series_raw(c, d)


def left_shift(letter: Letter, c: GenSeries) -> GenSeries:
    """coefficient of w in the result = coefficient of letter*w in c, so
    c must be exact past the empty word for any of them to be exact."""
    if c.exact_len == 0:
        raise SeriesError("a series exact only through length 0 has no exact left shift")
    coeffs = {}
    for w, op in c.coeffs.items():
        if len(w) >= 1 and w[0] == letter:
            coeffs[w[1:]] = op
    return GenSeries(c.dim, coeffs, max(c.max_len - 1, 0), c.alphabet,
                     exact_len=c.exact_len - 1)


# ---------------------------------------------------------------------------
# series composition

def compose(c: GenSeries, d: GenSeries, max_len: int | None = None) -> GenSeries:
    """Series (cascade) product: the generating series of F_c after F_d.

    Requires the left factor to be linear.  Every input letter of c is
    treated as reading d's output; drift letters pass through, so the
    empty word of c composes to itself (it contributes a constant to the
    output).  A word x0^a x_i x0^b of c with coefficient A expands in
    closed form to x0^(a+1) (w shuffle x0^b) with coefficient A o d_w for
    every word w of d.

    With max_len, the result is truncate(compose(c, d), max_len), except
    that its max_len is the smaller of the two: every output word of a
    pair (wc, wd) has length len(wc) + len(wd), so a pair past the cut is
    skipped before its operator product is formed.
    """
    if not is_linear(c):
        raise NotLinear("left factor of a series product must be linear")
    if c.dim != d.dim:
        raise do.DimensionMismatch(
            f"series dims differ: {c.dim} vs {d.dim}")
    coeffs: dict[Word, DiffOp] = {}
    cut = c.max_len + d.max_len
    if max_len is not None:
        cut = min(cut, max_len)

    def put(word: Word, op: DiffOp):
        if len(word) > cut:
            return
        # On a pure-drift word only the multiplicative part of a coefficient
        # can ever act (the attached iterated integral is theta-free), so the
        # coefficient collapses to "operator applied to 1".
        if op.max_order() and not word.input_letter_count():
            op = do.from_expr(op.constant_part(), c.dim)
        if op.is_zero():
            return
        coeffs[word] = do.op_add(coeffs[word], op) if word in coeffs else op

    for wc in sorted(c.coeffs, key=Word.sort_key):
        a = c.coeffs[wc]
        at = next((i for i, l in enumerate(wc) if not l.is_drift), None)
        if at is None:  # drift letters pass through
            put(wc, a)
            continue
        prefix = (DRIFT,) * (at + 1)
        tail = wc[at + 1:]
        for wd, op_d in d.coeffs.items():
            if len(wc) + len(wd) > cut:
                continue
            op = (do.op_mul(a, op_d) if wd.input_letter_count()
                  else do.from_expr(do.op_apply(a, op_d.constant_part()), c.dim))
            for w, mult in shuffle_words(wd, tail).items():
                put(Word(prefix + w),
                    op if mult == 1 else do.op_scale(mult, op))

    # a word of c of length l puts d's words of length L - l on the result
    # words of length L, and c's drift words pass through; so d's exact
    # prefix moves out by the length of c's shortest exact input word
    shortest = min((len(w) for w in c.coeffs
                    if w.input_letter_count() and len(w) <= c.exact_len), default=None)
    exact = c.exact_len if shortest is None else min(c.exact_len, d.exact_len + shortest)
    return GenSeries(c.dim, coeffs, cut, d.alphabet, exact_len=exact)


# ---------------------------------------------------------------------------
# serialization (line oriented, deterministic)

def series_to_text(c: GenSeries) -> str:
    """The text form of c; a coefficient that left the range of a complex
    double on the way (an overflowing product) is a NonFinite error."""
    letters = ",".join(l.text() for l in sorted(c.alphabet))
    header = f"dim={c.dim} maxlen={c.max_len}"
    if c.exact_len < c.max_len:
        header += f" exactlen={c.exact_len}"
    lines = [f"{header} alphabet={letters}"]
    for w in c.sorted_words():
        op = c.coeffs[w]
        if not all(cmath.isfinite(v) for coeff in op.terms.values()
                   for v in coeff.terms.values()):
            raise NonFinite(f"the coefficient of {w.text()} is infinite or NaN")
        lines.append(f"{w.text()} :: {op.text()}")
    return "\n".join(lines) + "\n"


_HEADER = re.compile(rf"dim=([1-9][0-9]*) maxlen=([0-9]+)(?: exactlen=([0-9]+))? "
                     rf"alphabet=({LETTER_PATTERN}(?:,{LETTER_PATTERN})*)")
_LINE = re.compile(rf"(e|{LETTER_PATTERN}(?: {LETTER_PATTERN})*) :: (.+)")


def series_from_text(text: str) -> GenSeries:
    """The series that ``series_to_text`` wrote.  Each construct is given
    once: a repeated header key, alphabet letter, word, or multi-index in
    one operator is a SeriesError, as is any line the writer would not
    emit."""
    ln, *lines = [s.strip() for s in text.splitlines() if s.strip()] or [""]
    m, coeffs = _HEADER.fullmatch(ln), {}
    try:  # ln is the line being read, the header first
        alphabet = word(*m[4].split(",")) if m else ()
        if not m or len(set(alphabet)) < len(alphabet) or int(m[3] or 0) > int(m[2]):
            raise SeriesError(f"bad series header {ln!r}")
        for ln in lines:
            line = _LINE.fullmatch(ln)
            if not line:
                raise ValueError("not a word, ' :: ' and an operator")
            w = parse_word(line[1])
            if w in coeffs:
                raise ValueError(f"word {w.text()} is given twice")
            coeffs[w] = do.from_text(line[2], int(m[1]))
        return GenSeries(int(m[1]), coeffs, int(m[2]), alphabet,
                         exact_len=int(m[3] or m[2]))
    except (ValueError, do.DiffOpError, ex.ExprError) as e:
        raise SeriesError(f"bad series line {ln!r}: {e}") from None


def save_series(c: GenSeries, path) -> None:
    with open(path, "w") as fh:
        fh.write(series_to_text(c))


def load_series(path) -> GenSeries:
    with open(path) as fh:
        return series_from_text(fh.read())
