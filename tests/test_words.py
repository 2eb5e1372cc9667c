import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cfpde import words as wd
from cfpde.words import DRIFT, Letter, Word, word


def all_words(letters, max_len):
    level = [Word()]
    out = [Word()]
    for _ in range(max_len):
        level = [Word((l,) + w.letters) for w in level for l in letters]
        out.extend(level)
    return out


class TestWordBasics:
    def test_concat(self):
        assert word("x0") + word("x1") == word("x0", "x1")
        assert Word() + word("x0", "x1") == word("x0", "x1")
        assert word("x0", "x1") + word("x0") == word("x0", "x1", "x0")

    def test_words_are_hashable_map_keys(self):
        m = {word("x0", "x1"): 1, Word(): 2}
        assert m[word("x0", "x1")] == 1
        assert m[Word()] == 2

    def test_ordering_length_then_lex(self):
        ws = [word("x1"), word("x0", "x0"), word("x0"), Word(), word("x0", "x1")]
        assert sorted(ws, key=Word.sort_key) == [
            Word(), word("x0"), word("x1"), word("x0", "x0"), word("x0", "x1")]

    def test_text_round_trip(self):
        for w in (Word(), word("x0"), word("x0", "x2", "x1")):
            assert wd.parse_word(w.text()) == w
        assert Word().text() == "e"
        assert word("x0", "x0", "x1").text() == "x0 x0 x1"

    @pytest.mark.parametrize("token", ["x00", "x01", "x", "x-1", "X1", "x1y", "y"])
    def test_malformed_letter_tokens(self, token):
        """A letter reads only in the one form Letter.text writes."""
        with pytest.raises(ValueError, match="bad letter token"):
            wd.parse_word(f"x0 {token}")

    def test_drift_letter_has_no_id_in_text(self):
        """Letter(None) and Letter(0) are both the drift x0; a negative
        id has no text form but still has a repr."""
        assert DRIFT.text() == "x0" and DRIFT.index is None and DRIFT.is_drift
        assert Letter(0) == Letter() == DRIFT and Letter(0).text() == "x0"
        assert Letter(0).index is None and Letter(0).is_drift
        assert Letter(index=2) == Letter(2) == 2 and Letter(2).index == 2
        assert not Letter(2).is_drift and hash(DRIFT) == hash(0)
        with pytest.raises(ValueError):
            Letter(-1).text()
        assert repr(Letter(-1)) == "x-1"


class TestShuffle:
    def test_two_distinct_letters(self):
        got = wd.shuffle_words(word("x1"), word("x2"))
        assert got == {word("x1", "x2"): 1, word("x2", "x1"): 1}

    def test_repeated_letter_doubles(self):
        got = wd.shuffle_words(word("x1"), word("x1"))
        assert got == {word("x1", "x1"): 2}

    def test_empty_word_is_identity(self):
        w = word("x0", "x1", "x0")
        assert wd.shuffle_words(Word(), w) == {w: 1}
        assert wd.shuffle_words(w, Word()) == {w: 1}

    def test_multiplicity_sum_is_binomial(self):
        letters = (DRIFT, Letter(1))
        words = all_words(letters, 4)
        for w1 in words:
            for w2 in words:
                if len(w1) + len(w2) > 8:
                    continue
                total = sum(wd.shuffle_words(w1, w2).values())
                assert total == math.comb(len(w1) + len(w2), len(w1))

    def test_commutative(self):
        letters = (DRIFT, Letter(1))
        words = all_words(letters, 3)
        for w1 in words:
            for w2 in words:
                assert wd.shuffle_words(w1, w2) == wd.shuffle_words(w2, w1)

    def test_associative(self):
        letters = (DRIFT, Letter(1))
        words = all_words(letters, 3)

        def extend(counts, shuffle):
            out = Counter()
            for w, m in counts.items():
                for v, n in shuffle(w).items():
                    out[v] += m * n
            return out

        for a in words:
            for b in words:
                ab = wd.shuffle_words(a, b)
                for c in words:
                    left = extend(ab, lambda w: wd.shuffle_words(w, c))
                    right = extend(wd.shuffle_words(b, c),
                                   lambda w: wd.shuffle_words(a, w))
                    assert left == right

    def test_drift_powers_shuffle_to_binomials(self):
        for i in range(6):
            for j in range(6):
                if i + j > 10:
                    continue
                got = wd.shuffle_words(Word((DRIFT,) * i), Word((DRIFT,) * j))
                assert got == {Word((DRIFT,) * (i + j)): math.comb(i + j, i)}

    @given(st.lists(st.integers(0, 3).map(Letter), max_size=5).map(Word),
           st.lists(st.integers(0, 3).map(Letter), max_size=5).map(Word))
    def test_counts_are_ints_in_canonical_order(self, w1, w2):
        """The series accumulation sums coefficients in this order, and a
        caller may change the dict it gets without changing later ones."""
        got = wd.shuffle_words(w1, w2)
        assert all(type(m) is int and m > 0 for m in got.values())
        assert list(got) == sorted(got, key=Word.sort_key)
        got.clear()
        assert sum(wd.shuffle_words(w1, w2).values()) == math.comb(
            len(w1) + len(w2), len(w1))


letter_tuples = st.lists(st.integers(0, 3).map(Letter), max_size=6).map(tuple)


class TestNativeTypes:
    """Letters are ints and words are tuples of them."""

    def test_subclasses(self):
        assert issubclass(Letter, int) and issubclass(Word, tuple)

    @given(letter_tuples, letter_tuples)
    def test_word_is_its_letter_tuple(self, a, b):
        u, v = Word(a), Word(b)
        assert u == a and hash(u) == hash(a) and u.letters == a
        assert type(u.letters) is tuple
        assert (u == v) == (a == b) and (hash(u) == hash(v)) == (hash(a) == hash(b))
        assert {u: 1}[a] == 1 and u == tuple(int(l) for l in a)

    @given(letter_tuples, letter_tuples, st.integers(-7, 7), st.integers(-7, 7))
    def test_slices_and_concatenation_are_words(self, a, b, i, j):
        u, v = Word(a), Word(b)
        for got, want in ((u[i:j], a[i:j]), (u[::-1], a[::-1]), (u + v, a + b)):
            assert type(got) is Word and got == want
        if a:
            assert type(u[0]) is Letter and u[0] == a[0]

    @given(st.lists(letter_tuples, max_size=8))
    def test_sort_key_is_length_then_lexicographic(self, tuples):
        got = sorted((Word(a) for a in tuples), key=Word.sort_key)
        want = sorted(tuples, key=lambda a: (len(a), [int(l) for l in a]))
        assert got == want

    @given(letter_tuples)
    def test_text_round_trip(self, a):
        w = Word(a)
        assert wd.parse_word(w.text()) == w and type(wd.parse_word(w.text())) is Word

    @given(letter_tuples, st.integers(0, 6), st.integers(0, 3))
    def test_plain_int_item_is_refused(self, a, at, k):
        with pytest.raises(TypeError):
            Word(a[:at] + (k,) + a[at:])
