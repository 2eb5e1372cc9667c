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
import re
from typing import Iterable, Optional

__all__ = [
    "Letter", "Word", "DRIFT", "EMPTY_WORD", "LETTER_PATTERN",
    "word", "parse_word", "shuffle_words",
]

# The one text form of a letter, as Letter.text writes it: x0 or x_k
# with no leading zero.
LETTER_PATTERN = "x(?:0|[1-9][0-9]*)"


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
    if not re.fullmatch(LETTER_PATTERN, token):
        raise ValueError(f"bad letter token {token!r}")
    return Letter(int(token[1:]))


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


@functools.lru_cache(maxsize=None)
def _shuffle(w1: Word, w2: Word) -> dict[Word, int]:
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    out: dict[Word, int] = {}
    for head, rest in ((w1[0], _shuffle(w1[1:], w2)), (w2[0], _shuffle(w1, w2[1:]))):
        for w, count in rest.items():
            key = Word((head,) + w)
            out[key] = out.get(key, 0) + count
    return out


def shuffle_words(w1: Word, w2: Word) -> dict[Word, int]:
    """All interleavings of w1 and w2, each with the number of ways it
    arises; the counts sum to binomial(|w1|+|w2|, |w1|).

    A fresh dict, never the cached one, in the canonical word order:
    every interleaving has length |w1|+|w2|, so ``Word.sort_key`` orders
    them as tuples."""
    return dict(sorted(_shuffle(w1, w2).items()))
