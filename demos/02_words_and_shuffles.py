"""Words over {x0, x1, x2, ...} and the shuffle product.

The drift letter x0 integrates the constant signal 1; input letters
integrate their bound signals.  Shuffling two words enumerates all
interleavings, and the multiplicities always add up to a binomial.
"""

import math

from cfpde import words as wd
from cfpde.words import Word, word


def show(counts: dict[Word, int]) -> str:
    """A shuffle as a sum of words, e.g. 2*x1 x1 + x0 x1."""
    return " + ".join(("" if m == 1 else f"{m}*") + w.text()
                      for w, m in counts.items())


def main():
    w1 = word("x0", "x1")
    w2 = word("x2")
    print(f"{w1.text()} shuffle {w2.text()} = {show(wd.shuffle_words(w1, w2))}")

    doubled = wd.shuffle_words(word("x1"), word("x1"))
    print("x1 shuffle x1 =", show(doubled))

    # multiplicity bookkeeping: C(|w1|+|w2|, |w1|)
    a, b = word("x0", "x1", "x0"), word("x1", "x1")
    counts = wd.shuffle_words(a, b)
    total = sum(counts.values())
    print(f"terms for {a.text()} shuffle {b.text()}: {len(counts)} words, "
          f"total multiplicity {total} = C(5,3) = {math.comb(5, 3)}")

    # drift powers shuffle to binomial multiples
    e3 = Word((wd.DRIFT,) * 3)
    e2 = Word((wd.DRIFT,) * 2)
    print("x0^3 shuffle x0^2 =", show(wd.shuffle_words(e3, e2)))


if __name__ == "__main__":
    main()
