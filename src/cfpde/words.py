"""Words over the alphabet {x0, input letters} and the shuffle product.

A letter is the int of its id: 0 is the drift letter x0, whose attached
signal is the constant 1, and k >= 1 is the input letter x_k.  A word is
the tuple of its letters, so letters and words hash and compare as the
int and the tuple they are, and key coefficient maps directly.  The
canonical order is ``Word.sort_key``, length then lexicographic with
x0 < x1 < x2 < ...; it fixes the serialization order of every series
file.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

__all__ = [
    "Letter", "Word", "WordPoly", "DRIFT", "EMPTY_WORD",
    "word", "parse_word", "shuffle_words",
]


class Letter(int):
    """The letter x_k as the int k; Letter(None) and Letter(0) are the
    drift letter x0."""

    __slots__ = ()

    def __new__(cls, index: Optional[int] = None):
        return super().__new__(cls, 0 if index is None else index)

    @property
    def index(self) -> Optional[int]:
        """The input letter's id, None for the drift letter."""
        return int(self) or None

    @property
    def is_drift(self) -> bool:
        return self == 0

    def text(self) -> str:
        if self < 0:
            raise ValueError(f"letter id {int(self)} has no text form")
        return f"x{int(self)}"

    def __repr__(self):
        return f"x{int(self)}"


DRIFT = Letter(None)


def _parse_letter(token: str) -> Letter:
    if token == "x0":
        return DRIFT
    if token.startswith("x") and token[1:].isdigit() and int(token[1:]) > 0:
        return Letter(int(token[1:]))
    raise ValueError(f"bad letter token {token!r}")


class Word(tuple):
    """An immutable word, the tuple of its letters; the empty word is the
    monoid identity."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[Letter] = ()):
        self = super().__new__(cls, letters)
        for l in self:
            if not isinstance(l, Letter):
                raise TypeError(f"expected Letter, got {l!r}")
        return self

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(self)

    def __getitem__(self, item):
        got = super().__getitem__(item)
        return Word(got) if isinstance(item, slice) else got

    def __add__(self, other: "Word") -> "Word":
        return Word(super().__add__(other))

    def sort_key(self):
        return (len(self), self)

    def input_letter_count(self) -> int:
        return len(self) - self.count(DRIFT)

    def input_letters(self) -> set[Letter]:
        return set(self) - {DRIFT}

    def text(self) -> str:
        if not self:
            return "e"
        return " ".join(l.text() for l in self)

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

    Zero coefficients are never stored.  Supports +, scale, and
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
        key = Word((head1,) + w)
        out[key] = out.get(key, 0j) + c
    for w, c in _shuffle(w1, tail2).items():
        key = Word((head2,) + w)
        out[key] = out.get(key, 0j) + c
    return WordPoly(out)


def shuffle_words(w1: Word, w2: Word) -> WordPoly:
    """All interleavings of w1 and w2 with multiplicities.

    The total multiplicity is binomial(|w1|+|w2|, |w1|).
    """
    return WordPoly(_shuffle(w1, w2))
