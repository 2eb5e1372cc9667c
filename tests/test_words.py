import math

import pytest

from cfpde import words as wd
from cfpde.words import DRIFT, Letter, Word, WordPoly, word


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

    def test_drift_letter_has_no_id_in_text(self):
        assert DRIFT.text() == "x0"
        with pytest.raises(ValueError):
            Letter(0).text()


class TestShuffle:
    def test_two_distinct_letters(self):
        got = wd.shuffle_words(word("x1"), word("x2"))
        assert got == WordPoly({word("x1", "x2"): 1, word("x2", "x1"): 1})

    def test_repeated_letter_doubles(self):
        got = wd.shuffle_words(word("x1"), word("x1"))
        assert got == WordPoly({word("x1", "x1"): 2})

    def test_empty_word_is_identity(self):
        w = word("x0", "x1", "x0")
        assert wd.shuffle_words(Word(), w) == WordPoly({w: 1})
        assert wd.shuffle_words(w, Word()) == WordPoly({w: 1})

    def test_multiplicity_sum_is_binomial(self):
        letters = (DRIFT, Letter(1))
        words = all_words(letters, 4)
        for w1 in words:
            for w2 in words:
                if len(w1) + len(w2) > 8:
                    continue
                total = wd.shuffle_words(w1, w2).total_multiplicity()
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

        def sh(poly, w):
            out = WordPoly()
            for ww, c in poly.items():
                out = out + wd.shuffle_words(ww, w).scale(c)
            return out

        for a in words:
            for b in words:
                ab = wd.shuffle_words(a, b)
                for c in words:
                    left = sh(ab, c)
                    right = WordPoly()
                    for ww, coef in wd.shuffle_words(b, c).items():
                        right = right + wd.shuffle_words(a, ww).scale(coef)
                    assert left == right

    def test_drift_powers_shuffle_to_binomials(self):
        for i in range(6):
            for j in range(6):
                if i + j > 10:
                    continue
                got = wd.shuffle_words(Word((DRIFT,) * i), Word((DRIFT,) * j))
                assert got == WordPoly(
                    {Word((DRIFT,) * (i + j)): math.comb(i + j, i)})


class TestWordPoly:
    def test_no_zero_coefficients_stored(self):
        p = WordPoly({word("x1"): 1.0}) + WordPoly({word("x1"): -1.0})
        assert p == WordPoly()
        assert word("x1") not in p

    def test_scale(self):
        p = WordPoly({word("x1"): 2}).scale(0.5)
        assert p == WordPoly({word("x1"): 1})
        assert p.scale(0) == WordPoly()
