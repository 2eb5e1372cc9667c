"""Words over the alphabet {x0, input letters} and the shuffle product.

The drift letter x0 is the one whose attached signal is the constant 1.
Input letters carry an integer id (x1, x2, ...).  Words are immutable and
hashable so they can key coefficient maps; the canonical ordering is
length-then-lexicographic with x0 < x1 < x2 < ... which fixes the
serialization order of every series file.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional

from ._record import record

__all__ = [
    "Letter", "Word", "WordPoly", "DRIFT", "EMPTY_WORD",
    "x", "word", "parse_word", "shuffle_words",
]


@record
class Letter:
    index: Optional[int] = None  # None marks the drift letter x0

    @property
    def is_drift(self) -> bool:
        return self.index is None

    def sort_key(self):
        return (0, 0) if self.index is None else (1, self.index)

    def text(self) -> str:
        if self.index is None:
            return "x0"
        if self.index < 1:
            raise ValueError(
                f"input letter id {self.index} has no text form (x0 is the drift letter)")
        return f"x{self.index}"

    def __repr__(self):
        return "x0" if self.index is None else f"x{self.index}"

    def __lt__(self, other: "Letter"):
        return self.sort_key() < other.sort_key()

    # Word keys compare and hash their letters on every dict lookup, so
    # these two are written out rather than the record's generic ones
    def __eq__(self, other):
        if other.__class__ is Letter:
            return self.index == other.index
        return NotImplemented

    def __hash__(self):
        return hash(self.index)


DRIFT = Letter(None)


def x(k: int) -> Letter:
    """The input letter x_k (k >= 1 for serializable letters)."""
    return Letter(k)


def _parse_letter(token: str) -> Letter:
    if token == "x0":
        return DRIFT
    if token.startswith("x") and token[1:].isdigit() and int(token[1:]) > 0:
        return Letter(int(token[1:]))
    raise ValueError(f"bad letter token {token!r}")


class Word:
    """An immutable word; the empty word is the monoid identity."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        for l in letters:
            if not isinstance(l, Letter):
                raise TypeError(f"expected Letter, got {l!r}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash(letters))

    def __setattr__(self, *args):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, item):
        sliced = self.letters[item]
        return Word(sliced) if isinstance(item, slice) else sliced

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def sort_key(self):
        return (len(self.letters), tuple(l.sort_key() for l in self.letters))

    def __lt__(self, other: "Word"):
        return self.sort_key() < other.sort_key()

    def input_letter_count(self) -> int:
        return sum(1 for l in self.letters if not l.is_drift)

    def input_letters(self) -> set[Letter]:
        return {l for l in self.letters if not l.is_drift}

    def text(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(l.text() for l in self.letters)

    def __repr__(self):
        return self.text()


EMPTY_WORD = Word()


def word(*letters: Letter | str) -> Word:
    """Build a word from letters or letter tokens, e.g. word("x0", "x1")."""
    out = []
    for l in letters:
        out.append(_parse_letter(l) if isinstance(l, str) else l)
    return Word(out)


def parse_word(text: str) -> Word:
    text = text.strip()
    if text == "e" or not text:
        return EMPTY_WORD
    return Word(_parse_letter(tok) for tok in text.split())


class WordPoly(dict):
    """Finite formal sum of words with complex coefficients.

    Zero coefficients are never stored.  Supports +, scalar *, and
    comparison; mainly the carrier for shuffle expansions.
    """

    def __init__(self, data=None):
        super().__init__()
        if data:
            for w, c in dict(data).items():
                c = complex(c)
                if c != 0:
                    self[w] = c

    def __add__(self, other: "WordPoly") -> "WordPoly":
        out = dict(self)
        for w, c in other.items():
            s = out.get(w, 0j) + c
            if s == 0:
                out.pop(w, None)
            else:
                out[w] = s
        return WordPoly(out)

    def scale(self, factor: complex) -> "WordPoly":
        factor = complex(factor)
        if factor == 0:
            return WordPoly()
        return WordPoly({w: factor * c for w, c in self.items()})

    def __rmul__(self, factor):
        return self.scale(factor)

    def total_multiplicity(self) -> complex:
        return sum(self.values(), start=0j)

    def sorted_items(self):
        return sorted(self.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self):
        if not self:
            return "0"
        parts = []
        for w, c in self.sorted_items():
            coef = "" if c == 1 else f"{c.real:g}*" if c.imag == 0 else f"({c})*"
            parts.append(f"{coef}{w.text()}")
        return " + ".join(parts)


@functools.lru_cache(maxsize=None)
def _shuffle(w1: Word, w2: Word) -> WordPoly:
    if len(w1) == 0:
        return WordPoly({w2: 1})
    if len(w2) == 0:
        return WordPoly({w1: 1})
    head1, tail1 = w1[0], w1[1:]
    head2, tail2 = w2[0], w2[1:]
    out: dict[Word, complex] = {}
    for w, c in _shuffle(tail1, w2).items():
        key = Word((head1,) + w.letters)
        out[key] = out.get(key, 0j) + c
    for w, c in _shuffle(w1, tail2).items():
        key = Word((head2,) + w.letters)
        out[key] = out.get(key, 0j) + c
    return WordPoly(out)


def shuffle_words(w1: Word, w2: Word) -> WordPoly:
    """All interleavings of w1 and w2 with multiplicities.

    The total multiplicity is binomial(|w1|+|w2|, |w1|).
    """
    return WordPoly(_shuffle(w1, w2))
