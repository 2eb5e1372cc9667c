import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfpde import diffop as do
from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde import series as se
from cfpde.words import DRIFT, Letter, Word, word
from conftest import ops_agree

THETA = ex.var("theta_1")
X1, X2 = Letter(1), Letter(2)


def simple_series(dim, mapping):
    return se.series_from_coeffs(dim, mapping)


class TestParallelSum:
    def test_additive_identity(self):
        c = simple_series(1, {word("x1"): do.monomial(THETA, (1,))})
        z = se.GenSeries(1, {}, 0)
        assert se.parallel_sum(c, z).coeffs == c.coeffs

    def test_sum_with_own_negation_is_zero(self):
        c = simple_series(1, {word("x0", "x1"): do.monomial(THETA, (1,))})
        assert se.parallel_sum(c, se.series_scale(-1, c)).is_zero()

    def test_two_transports_on_distinct_parameters(self):
        # relabel the second system's letter and parameter, then sum
        c = pde.transport_series(pde.TransportSpec(V=2.0, y0=0, N=3))
        d = pde.transport_series(pde.TransportSpec(V=3.0, y0=0, N=3))
        d = se.relabel_letters(se.embed(d, 2, 1), {X1: X2})
        total = se.parallel_sum(se.embed(c, 2), d)
        assert total.dim == 2
        assert total.param_support == frozenset({1, 2})
        # coefficient on x0^k x_c is (-V_c d/dtheta_1)^k, on x0^k x_d the
        # d/dtheta_2 version
        for k in range(4):
            got_c = total.coefficient(Word((DRIFT,) * k + (X1,)))
            got_d = total.coefficient(Word((DRIFT,) * k + (X2,)))
            assert got_c == do.monomial(ex.const((-2.0) ** k),
                                        (k, 0)) if k else got_c == do.identity(2)
            assert got_d == do.monomial(ex.const((-3.0) ** k),
                                        (0, k)) if k else got_d == do.identity(2)

    def test_morphism_under_evaluation(self, rng):
        c = simple_series(1, {word("x1"): do.monomial(THETA, (1,)),
                              word("x0", "x1"): do.identity(1)})
        d = simple_series(1, {Word(): do.from_expr(ex.sin(THETA), 1),
                              word("x1", "x1"): do.from_expr(THETA, 1)})
        total = se.parallel_sum(c, d)
        grid = ii.Grid(((0.3, 1.3, 33),), 1.0, 65)
        u = ii.InputSignal.symbolic(ex.parse("t*cos(theta_1)", 1))
        lhs = ii.evaluate_series(total, u, grid).values
        rhs = (ii.evaluate_series(c, u, grid).values
               + ii.evaluate_series(d, u, grid).values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_shared_support_adds_directly(self, rng):
        c = simple_series(1, {word("x1"): do.monomial(THETA, (1,))})
        total = se.parallel_sum(c, c)
        assert ops_agree(total.coefficient(word("x1")),
                         do.monomial(ex.mul(2, THETA), (1,)), rng, tol=1e-12)


class TestShuffle:
    def test_good_case_structure(self):
        c = simple_series(2, {word("x1"): do.monomial(ex.ONE, (1, 0))})
        d = simple_series(2, {word("x2"): do.monomial(ex.ONE, (0, 1))})
        sh = se.shuffle_series(c, d)
        mixed = do.monomial(ex.ONE, (1, 1))
        assert sh.coeffs == {word("x1", "x2"): mixed, word("x2", "x1"): mixed}

    def test_overlapping_parameters_rejected(self):
        c = simple_series(1, {word("x1"): do.monomial(ex.ONE, (1,))})
        d = simple_series(1, {word("x2"): do.monomial(ex.ONE, (1,))})
        with pytest.raises(se.OverlappingSupport):
            se.shuffle_series(c, d)

    def test_overlapping_letters_rejected(self):
        c = simple_series(2, {word("x1"): do.monomial(ex.ONE, (1, 0))})
        d = simple_series(2, {word("x1"): do.monomial(ex.ONE, (0, 1))})
        with pytest.raises(se.OverlappingSupport):
            se.shuffle_series(c, d)

    def test_support_is_that_of_the_kept_coefficients(self):
        """A truncation keeps no support of the words it drops, so it
        shuffles as its text round trip does; a kept coefficient that
        shares a theta is still refused."""
        full = pde.transport_series(pde.TransportSpec(1.0, 0, 3))
        c = se.truncate(full, 1)
        d = simple_series(1, {word("x2"): do.monomial(ex.ONE, (1,))})
        loaded = se.series_from_text(se.series_to_text(c))
        assert c == loaded and c.param_support == loaded.param_support == frozenset()
        assert se.shuffle_series(c, d) == se.shuffle_series(loaded, d)
        assert se.shuffle_series(c, d).param_support == frozenset({1})
        for shared in (se.truncate(full, 2), full):
            with pytest.raises(se.OverlappingSupport, match="theta"):
                se.shuffle_series(shared, d)

    def test_unit_series_is_identity(self):
        c = simple_series(1, {word("x0", "x1"): do.monomial(THETA, (1,))})
        sh = se.shuffle_series(c, se.one_series(1))
        assert sh.coeffs == c.coeffs

    def test_numeric_morphism_on_disjoint_supports(self, rng):
        c = simple_series(2, {word("x1"): do.monomial(ex.ONE, (1, 0)),
                              word("x0", "x1"): do.from_expr(
                                  ex.var("theta_1"), 2)})
        d = simple_series(2, {word("x2"): do.monomial(ex.ONE, (0, 1))})
        sh = se.shuffle_series(c, d)
        grid = ii.Grid(((0.2, 1.0, 41), (0.2, 1.0, 41)), 1.0, 513)
        u1 = ii.InputSignal.symbolic(ex.parse("0.2*t*sin(theta_1)", 2))
        u2 = ii.InputSignal.symbolic(ex.parse("0.2*cos(theta_2)", 2))
        binding = {1: u1, 2: u2}
        lhs = ii.evaluate_series(sh, binding, grid).values
        rhs = (ii.evaluate_series(c, binding, grid).values
               * ii.evaluate_series(d, binding, grid).values)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6

    def test_truncation_metadata(self):
        c = simple_series(2, {word("x1"): do.monomial(ex.ONE, (1, 0))})
        d = simple_series(2, {word("x2", "x0"): do.monomial(ex.ONE, (0, 1))})
        sh = se.shuffle_series(c, d)
        assert sh.max_len == c.max_len + d.max_len
        assert sh.exact_len == min(c.exact_len, d.exact_len)


class TestCompose:
    def test_simple_linear_cascade(self, rng):
        c = simple_series(1, {word("x1"): do.monomial(THETA, (1,))})
        d = simple_series(1, {word("x2"): do.monomial(ex.intpow(THETA, 2), (1,))})
        cd = se.compose(c, d)
        target = word("x0", "x2")
        assert set(cd.coeffs) == {target}
        expected = do.op_mul(do.monomial(THETA, (1,)),
                             do.monomial(ex.intpow(THETA, 2), (1,)))
        assert cd.coefficient(target) == expected
        assert ops_agree(cd.coefficient(target),
                         do.DiffOp(1, {(1,): ex.mul(2, ex.intpow(THETA, 2)),
                                       (2,): ex.intpow(THETA, 3)}), rng)

    def test_drift_prefix_counting(self):
        A = do.from_expr(ex.const(3), 1)
        B = do.from_expr(ex.const(5), 1)
        for k in range(4):
            for l in range(4):
                ck = simple_series(1, {Word((DRIFT,) * k + (X1,)): A})
                dl = simple_series(1, {Word((DRIFT,) * l + (X2,)): B})
                got = se.compose(ck, dl)
                assert got.coeffs == {
                    Word((DRIFT,) * (k + l + 1) + (X2,)): do.from_expr(15, 1)}

    def test_empty_supported_series_composes_to_itself(self):
        a = do.from_expr(ex.sin(THETA), 1)
        c = simple_series(1, {Word(): a})
        d = simple_series(1, {word("x2"): do.monomial(ex.ONE, (1,))})
        assert se.compose(c, d).coeffs == {Word(): a}

    def test_nonlinear_left_factor_rejected(self):
        c = simple_series(1, {word("x1", "x1"): do.identity(1)})
        d = simple_series(1, {word("x2"): do.identity(1)})
        with pytest.raises(se.NotLinear):
            se.compose(c, d)

    def test_linearity_preserved(self):
        c = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=4))
        d = se.relabel_letters(
            pde.transport_series(pde.TransportSpec(V=2.0, y0=0, N=4)), {X1: X2})
        cd = se.compose(c, d)
        assert se.is_linear(cd)
        # cascade of transports: coefficient on x0^(k+l+1) x2 collects
        # (-V_c d)^k (-V_d d)^l
        got = cd.coefficient(word("x0", "x0", "x2"))
        expected = do.op_add(do.monomial(ex.const(-1.0), (1,)),
                             do.monomial(ex.const(-2.0), (1,)))
        assert got == expected

    def test_numeric_cascade_oracle(self, rng):
        c = simple_series(1, {word("x1"): do.monomial(THETA, (1,)),
                              word("x0", "x1"): do.from_expr(THETA, 1)})
        d = simple_series(1, {word("x2"): do.monomial(ex.sin(THETA), (1,)),
                              word("x0", "x2"): do.identity(1)})
        cd = se.compose(c, d)
        grid = ii.Grid(((0.2, 1.2, 161),), 1.0, 161)
        u = ii.InputSignal.symbolic(ex.parse("t*cos(theta_1)", 1))
        direct = ii.evaluate_series(cd, {2: u}, grid)
        inner = ii.evaluate_series(d, {2: u}, grid)
        outer = ii.evaluate_series(c, {1: ii.InputSignal.sampled(inner)}, grid)
        assert np.max(np.abs(direct.values - outer.values)) <= 1e-4


class TestShiftTruncateLinear:
    def test_left_shift_picks_prefixed_words(self):
        y0 = do.from_expr(ex.const(2.5), 1)
        c = simple_series(1, {Word(): y0, word("x1"): do.identity(1)})
        shifted = se.left_shift(X1, c)
        assert shifted.coeffs == {Word(): do.identity(1)}

    def test_left_shift_no_match(self):
        c = simple_series(1, {word("x1"): do.identity(1)})
        assert se.left_shift(DRIFT, c).is_zero()

    def test_left_shift_drops_leading_drift(self):
        A = do.monomial(THETA, (1,))
        c = simple_series(1, {word("x0", "x1"): A})
        assert se.left_shift(DRIFT, c).coeffs == {word("x1"): A}

    def test_left_shift_adjointness(self):
        c = pde.transport_series(pde.TransportSpec(
            V=1.0, y0=ex.sin(THETA), N=5))
        shifted = se.left_shift(DRIFT, c)
        for w, op in shifted.coeffs.items():
            assert c.coefficient(Word((DRIFT,) + w.letters)) == op

    def test_truncate_to_constant_term(self):
        c = pde.transport_series(pde.TransportSpec(V=1.0, y0=ex.sin(THETA), N=4))
        t0 = se.truncate(c, 0)
        assert set(t0.coeffs) == {Word()}

    def test_transport_series_is_linear(self):
        c = pde.transport_series(pde.TransportSpec(V=1.0, y0=ex.sin(THETA), N=6))
        assert se.is_linear(c)


class TestSerialization:
    def roundtrip(self, c):
        text = se.series_to_text(c)
        back = se.series_from_text(text)
        assert back.dim == c.dim
        assert back.max_len == c.max_len
        assert set(back.coeffs) == set(c.coeffs)
        return text, back

    def test_transport_roundtrip(self, rng):
        c = pde.transport_series(pde.TransportSpec(
            V=ex.add(1, ex.mul(0.5, ex.sin(THETA))), y0=ex.cos(THETA), N=4))
        text, back = self.roundtrip(c)
        for w in c.coeffs:
            assert ops_agree(back.coefficient(w), c.coefficient(w), rng,
                             tol=1e-12)

    def test_deterministic_bytes(self):
        c = pde.transport_series(pde.TransportSpec(V=2.0, y0=ex.sin(THETA), N=3))
        assert se.series_to_text(c) == se.series_to_text(
            pde.transport_series(pde.TransportSpec(V=2.0, y0=ex.sin(THETA), N=3)))

    def test_header_and_word_lines(self):
        c = simple_series(1, {word("x0", "x1"): do.monomial(ex.const(-1), (1,))})
        text = se.series_to_text(c)
        lines = text.splitlines()
        assert lines[0] == "dim=1 maxlen=2 alphabet=x0,x1"
        assert lines[1] == "x0 x1 :: -1 * D[1]"

    def test_exact_len_round_trip(self):
        """exactlen= follows maxlen= when the exact prefix is shorter;
        otherwise the header has no such key."""
        c = pde.transport_series(pde.TransportSpec(1.0, 0, 3))
        assert (c.max_len, c.exact_len) == (4, 3)
        text, back = self.roundtrip(c)
        assert text.splitlines()[0] == "dim=1 maxlen=4 exactlen=3 alphabet=x0,x1"
        assert back.exact_len == 3 and se.series_to_text(back) == text
        whole = se.truncate(c, 3)
        assert "exactlen" not in se.series_to_text(whole)
        assert se.series_from_text(se.series_to_text(whole)).exact_len == 3

    @pytest.mark.parametrize("key", ["exactlen=5", "exactlen=-1", "exactlen=x", "exactlen="])
    def test_bad_exact_len_is_header_error(self, key):
        with pytest.raises(se.SeriesError, match="bad series header"):
            se.series_from_text(f"dim=1 maxlen=2 {key} alphabet=x0,x1\nx1 :: 1 * D[0]\n")

    def test_empty_word_spelled_e(self):
        c = se.one_series(1)
        assert "e :: 1 * D[0]" in se.series_to_text(c)

    def test_sum_coefficient_roundtrip(self, rng):
        op = do.DiffOp(1, {(1,): ex.add(THETA, ex.ONE), (0,): ex.sin(THETA)})
        c = simple_series(1, {word("x1"): op})
        _, back = self.roundtrip(c)
        assert ops_agree(back.coefficient(word("x1")), op, rng, tol=1e-12)


# operators of order <= 1 with bounded theta-dependent coefficients
FIRST_ORDER_OPS = st.dictionaries(
    st.sampled_from([(0,), (1,)]),
    st.tuples(st.sampled_from(["{a}", "{a}*theta_1", "{a}*sin(theta_1)",
                               "{a}*cos(theta_1)"]),
              st.floats(-1, 1).map(lambda a: round(a, 3))),
    min_size=1, max_size=2).map(lambda terms: do.DiffOp(1, {
        alpha: ex.parse(form.format(a=a), 1) for alpha, (form, a) in terms.items()}))
LINEAR_LEFT_WORDS = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
    lambda ab: Word((DRIFT,) * ab[0] + (X1,) + (DRIFT,) * ab[1]))
RIGHT_WORDS = st.sampled_from([Word(), word("x0"), word("x2"), word("x0", "x2"),
                               word("x2", "x0")])
CASCADE_GRID = ii.Grid(((0.2, 1.2, 161),), 1.0, 161)
CASCADE_INPUT = ii.InputSignal.symbolic(ex.parse("t*cos(theta_1)", 1))


class TestComposeClosedForm:
    def test_trailing_drift_shuffles_into_the_input_word(self):
        A = do.monomial(THETA, (1,))
        B = do.monomial(ex.sin(THETA), (1,))
        cd = se.compose(simple_series(1, {word("x1", "x0"): A}),
                        simple_series(1, {word("x2"): B}))
        assert cd.coeffs == {word("x0", "x2", "x0"): do.op_mul(A, B),
                             word("x0", "x0", "x2"): do.op_mul(A, B)}

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(LINEAR_LEFT_WORDS, FIRST_ORDER_OPS, min_size=1, max_size=3),
           st.dictionaries(RIGHT_WORDS, FIRST_ORDER_OPS, min_size=1, max_size=3))
    def test_matches_numeric_cascade(self, left, right):
        # evaluate d, then evaluate c with d's sampled output as its input
        c = simple_series(1, left)
        d = simple_series(1, right)
        binding = {2: CASCADE_INPUT}
        direct = ii.evaluate_series(se.compose(c, d), binding, CASCADE_GRID)
        inner = ii.evaluate_series(d, binding, CASCADE_GRID)
        outer = ii.evaluate_series(c, {1: ii.InputSignal.sampled(inner)},
                                   CASCADE_GRID)
        assert np.max(np.abs(direct.values - outer.values)) <= 1e-4


LEFT_WORDS = st.one_of(LINEAR_LEFT_WORDS,
                       st.integers(0, 2).map(lambda k: Word((DRIFT,) * k)))
EMPTY_SCALARS = st.sampled_from([0.0, 1.0, 0.5, -0.25])


class TestComposeLengthCut:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.booleans(), st.integers(0, 7),
           st.dictionaries(LEFT_WORDS, FIRST_ORDER_OPS, min_size=1, max_size=4),
           st.dictionaries(RIGHT_WORDS, FIRST_ORDER_OPS, max_size=3), FIRST_ORDER_OPS)
    def test_equals_truncate_after(self, data, unital, n, left, right, x2_op):
        """compose(c, d, max_len=n) is truncate(compose(c, d), n): the same
        coefficients and exact_len, and max_len capped at n."""
        right[word("x2")] = x2_op  # the right factor's input letter
        if unital:  # identity parts must be scalar constants
            for words in (left, right):
                if Word() in words:
                    words[Word()] = do.from_expr(ex.const(data.draw(EMPTY_SCALARS)), 1)

        def series(coeffs, letter):
            max_len = max(map(len, coeffs)) + data.draw(st.integers(0, 2))
            return se.GenSeries(1, coeffs, max_len, alphabet={letter},
                                exact_len=data.draw(st.integers(0, max_len)))

        c, d = series(left, X1), series(right, X2)
        full = se.compose(c, d, unital=unital)
        want = se.truncate(full, n)
        got = se.compose(c, d, unital=unital, max_len=n)
        assert got.coeffs == want.coeffs
        assert got.max_len == min(n, full.max_len)
        assert got.exact_len == want.exact_len


class TestSeriesTextFuzz:
    header = st.lists(st.sampled_from([
        "dim=1", "dim=2", "dim=0", "dim=-1", "dim=x", "maxlen=2", "maxlen=0", "maxlen=-1",
        "maxlen=", "exactlen=1", "exactlen=5", "exactlen=-1", "exactlen=x", "alphabet=x0,x1", "alphabet=x0,x2", "alphabet=x1,y", "alphabet=",
        "alphabet=e", "alphabet=x00", "extra", "=",
    ]), max_size=5).map(" ".join)
    word = st.lists(st.sampled_from(["x0", "x1", "x2", "x9q", "e", "x00", "y"]),
                    max_size=3).map(" ".join)
    coeff = st.sampled_from([
        "1", "-2.5", "theta_1", "theta_2", "t", "1e200", "1e200*1e200", "sin(theta_1)",
        "(1 + theta_1)", "(1 + theta_1)^99", "2^99999999", "1/0", "theta_1^-1",
        "(0.5-2i)", "", "x", "(", "1 +",
    ])
    alpha = st.sampled_from(["0", "1", "2", "0,0", "0,1", "-1", "a", "", "99"])
    term = st.one_of(st.builds("{} * D[{}]".format, coeff, alpha),
                     st.sampled_from(["", "1", "D[0]", "1 * D[0", "(1 * D[0]"]))
    op = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    line = st.one_of(st.builds("{} :: {}".format, word, op),
                     st.sampled_from(["", "junk", " :: ", "x1 ::"]))
    text = st.one_of(
        st.builds(lambda h, ls: "\n".join([h, *ls]), header, st.lists(line, max_size=4)),
        st.text(max_size=40))

    @settings(max_examples=400, deadline=None)
    @given(text)
    @example("dim=1 maxlen=2 alphabet=x0,x1 extra")
    @example("dim=1 maxlen=1 alphabet=x0,x1,y")
    @example("dim=1 maxlen=1 alphabet=x0,x1\nx9q :: 1 * D[0]")
    @example("dim=1 maxlen=2 exactlen=5 alphabet=x0,x1")
    @example("dim=1 maxlen=2 exactlen=-1 alphabet=x0,x1")
    @example("dim=1 maxlen=2 exactlen=x alphabet=x0,x1")
    def test_text_gives_series_or_model_error(self, text):
        """Any text reads as a series or raises one of the model errors
        that cf reports in one line; never another exception."""
        try:
            c = se.series_from_text(text)
        except (se.SeriesError, ex.ExprError, do.DiffOpError):
            return
        assert isinstance(c, se.GenSeries)
