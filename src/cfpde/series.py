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
from typing import Iterable, Mapping

from . import diffop as do
from . import expr as ex
from .diffop import DiffOp
from .words import DRIFT, EMPTY_WORD, Letter, Word, parse_word, shuffle_words

__all__ = [
    "GenSeries", "SeriesError", "OverlappingSupport", "NotLinear", "NonFinite",
    "one_series", "series_from_coeffs",
    "parallel_sum", "series_scale", "shuffle_series", "compose",
    "left_shift", "truncate", "is_linear",
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
            for w, mult in shuffle_words(wc, wd).sorted_items():
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
    """coefficient of w in the result = coefficient of letter*w in c."""
    coeffs = {}
    for w, op in c.coeffs.items():
        if len(w) >= 1 and w[0] == letter:
            coeffs[w[1:]] = op
    return GenSeries(c.dim, coeffs, max(c.max_len - 1, 0), c.alphabet,
                     exact_len=max(c.exact_len - 1, 0))


# ---------------------------------------------------------------------------
# series composition

def _single_input_letter(c: GenSeries) -> Letter:
    letters = sorted(c.input_letters())
    stored = {l for w in c.coeffs for l in w.input_letters()}
    if len(stored) == 1:
        return next(iter(stored))
    if len(letters) == 1:
        return letters[0]
    raise SeriesError("cannot infer the input letter of the right factor")


def _scalar_empty_coefficient(c: GenSeries, role: str) -> complex:
    op = c.coefficient(EMPTY_WORD)
    if op.is_zero():
        return 0j
    if not op.is_scalar_constant():
        raise SeriesError(
            f"unital composition needs a constant empty-word coefficient on the {role} factor")
    return op.constant_part().constant()


def compose(c: GenSeries, d: GenSeries, unital: bool = False,
            max_len: int | None = None) -> GenSeries:
    """Series (cascade) product: the generating series of F_c after F_d.

    Requires the left factor to be linear.  Every input letter of c is
    treated as reading d's output; drift letters pass through.  By default
    the empty word of c composes to itself (it contributes a constant to
    the output, and the expansion of the empty word is the identity map on
    series).  A word x0^a x_i x0^b of c with coefficient A expands in closed
    form to x0^(a+1) (w shuffle x0^b) with coefficient A o d_w for every
    word w of d.

    With unital=True both factors are read as "identity-plus-series": the
    empty-word coefficients (which must be scalar constants) multiply like
    identity operators, so geometric inverses cancel exactly.  This is the
    algebra in which (I + A)^(-1) compositions telescope.

    With max_len, the result is truncate(compose(c, d, unital), max_len),
    except that its max_len is the smaller of the two: every output word
    of a pair (wc, wd) has length len(wc) + len(wd), so a pair past the
    cut is skipped before its operator product is formed.
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

    unital_letter = None
    d_empty = 0j
    if unital:
        c_empty = _scalar_empty_coefficient(c, "left")
        d_empty = _scalar_empty_coefficient(d, "right")
        if any(w.input_letter_count() for w in c.coeffs):
            unital_letter = _single_input_letter(d)
        put(EMPTY_WORD, do.from_expr(ex.const(c_empty * d_empty), c.dim))
        for wd, op_d in d.coeffs.items():
            if wd != EMPTY_WORD:
                put(wd, op_d if c_empty == 1 else do.op_scale(c_empty, op_d))
    # in the unital case the empty word of d is the identity part, above
    d_items = [(wd, op_d) for wd, op_d in d.coeffs.items()
               if not (unital and wd == EMPTY_WORD)]

    for wc in sorted(c.coeffs, key=Word.sort_key):
        a = c.coeffs[wc]
        at = next((i for i, l in enumerate(wc) if not l.is_drift), None)
        if at is None:
            # drift letters pass through; the unital empty word is above
            if wc or not unital:
                put(wc, a)
            continue
        if unital and d_empty != 0:
            put(wc[:at] + (unital_letter,) + wc[at + 1:],
                a if d_empty == 1 else do.op_scale(d_empty, a))
        prefix = (DRIFT,) * (at + 1)
        tail = wc[at + 1:]
        for wd, op_d in d_items:
            if len(wc) + len(wd) > cut:
                continue
            op = (do.op_mul(a, op_d) if wd.input_letter_count()
                  else do.from_expr(do.op_apply(a, op_d.constant_part()), c.dim))
            for w, mult in shuffle_words(wd, tail).sorted_items():
                put(Word(prefix + w),
                    op if mult == 1 else do.op_scale(mult, op))

    exact = min(c.exact_len, d.exact_len + 1)
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


def _split_top_level_terms(text: str) -> list[str]:
    """Split a diffop rendering on ' + ' outside parentheses."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            i += 3
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def _parse_diffop(text: str, dim: int) -> DiffOp:
    terms = {}
    for part in _split_top_level_terms(text.strip()):
        if " * D[" not in part or not part.endswith("]"):
            raise SeriesError(f"bad operator term {part!r}")
        coeff_text, alpha_text = part.rsplit(" * D[", 1)
        try:
            alpha = tuple(int(a) for a in alpha_text[:-1].split(","))
        except ValueError:
            raise SeriesError(f"bad multi-index in operator term {part!r}") from None
        if len(alpha) != dim:
            raise SeriesError(f"multi-index {alpha} does not match dim {dim}")
        coeff = ex.parse(coeff_text.strip(), dim)
        terms[alpha] = ex.add(terms[alpha], coeff) if alpha in terms else coeff
    return DiffOp(dim, terms)


def series_from_text(text: str) -> GenSeries:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SeriesError("empty series file")
    try:
        header = dict(item.split("=", 1) for item in lines[0].split())
        dim = int(header["dim"])
        max_len = int(header["maxlen"])
        exact_len = int(header["exactlen"]) if "exactlen" in header else None
        if exact_len is not None and not 0 <= exact_len <= max_len:
            raise ValueError(f"exactlen {exact_len} outside 0..{max_len}")
        alphabet = [parse_word(tok)[0] for tok in header["alphabet"].split(",") if tok]
    except (KeyError, ValueError, IndexError) as e:
        raise SeriesError(f"bad series header {lines[0]!r}") from e
    coeffs = {}
    for ln in lines[1:]:
        if " :: " not in ln:
            raise SeriesError(f"bad series line {ln!r}")
        word_text, op_text = ln.split(" :: ", 1)
        try:
            w = parse_word(word_text)
        except ValueError as e:
            raise SeriesError(f"bad word in series line {ln!r}: {e}") from None
        coeffs[w] = _parse_diffop(op_text, dim)
    return GenSeries(dim, coeffs, max_len, alphabet, exact_len=exact_len)


def save_series(c: GenSeries, path) -> None:
    with open(path, "w") as fh:
        fh.write(series_to_text(c))


def load_series(path) -> GenSeries:
    with open(path) as fh:
        return series_from_text(fh.read())
