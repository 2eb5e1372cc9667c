"""The canonical sparse coefficient form: scale-free zero, printing, and
the operator algebra laws checked on generated operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfpde import diffop as do
from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde import series as se
from cfpde.words import DRIFT, Letter, Word

THETA = ex.var("theta_1")
X1, X2 = Letter(1), Letter(2)
RNG = np.random.default_rng(2024)
POINTS = {1: {"theta_1": RNG.uniform(0.3, 2.3, 12)},
          2: {"theta_1": RNG.uniform(0.3, 2.3, 12),
              "theta_2": RNG.uniform(0.3, 2.3, 12)}}


class TestScaleFreeZero:
    def test_tiny_constant_is_not_zero(self):
        op = do.DiffOp(1, {(0,): ex.const(1e-13)})
        assert not op.is_zero()
        assert op.constant_part().constant() == 1e-13

    def test_small_velocity_keeps_every_word(self):
        c = pde.transport_series(pde.TransportSpec(V=1e-4, y0=ex.sin(THETA), N=6))
        assert len(c.coeffs) == 14
        assert c.exact_len == 6

    @pytest.mark.parametrize("scale", [1.0, 1e-20])
    def test_roundoff_residue_is_zero(self, scale):
        A = do.op_scale(scale, do.DiffOp(1, {(0,): ex.sin(THETA),
                                             (1,): ex.add(1, ex.intpow(THETA, 2))}))
        a1, a2, a3 = (do.op_scale(f * scale, A) for f in (0.1, 0.2, -0.3))
        assert do.op_add(do.op_add(a1, a2), a3).is_zero()

    def test_small_difference_of_large_terms_is_kept(self):
        d = do.op_add(do.from_expr(1 + 1e-10, 1), do.from_expr(-1, 1))
        assert d.constant_part().constant() == (1 + 1e-10) - 1

    def test_symbolic_cancellation_is_exact(self):
        c = ex.mul(THETA, ex.cos(ex.mul(3, THETA)))
        assert ex.sub(c, c).terms == {}

    def test_trig_identity_is_not_applied(self):
        p = ex.parse("sin(theta_1)^2 + cos(theta_1)^2 - 1", 1)
        assert len(p.terms) == 3
        assert np.max(np.abs(ex.evaluate(p, POINTS[1]))) < 1e-15


class TestFormat:
    def test_coefficients_print_as_expanded_monomials(self):
        op = do.DiffOp(1, {(1,): ex.mul(-1.5, ex.add(ex.intpow(THETA, 2), 1))})
        assert op.text() == "(-1.5*theta_1^2 - 1.5) * D[1]"

    def test_complex_and_laurent_coefficients_round_trip(self):
        coeff = ex.parse("(0.5-2i)*theta_1^-1 - 3i*sin(2*theta_1)^2", 1)
        op = do.DiffOp(1, {(0,): coeff})
        c = se.series_from_coeffs(1, {Word((X1,)): op})
        text = se.series_to_text(c)
        assert text.splitlines()[1] == (
            "x1 :: (-3i*sin(2*theta_1)^2 + (0.5-2i)*theta_1^-1) * D[0]")
        assert se.series_from_text(text) == c

    def test_op_apply_returns_a_poly(self):
        got = do.op_apply(do.monomial(THETA, (1,)), ex.intpow(THETA, 2))
        assert got == ex.mul(2, ex.intpow(THETA, 2))


# ---------------------------------------------------------------------------
# generated operators

SCALARS = st.floats(-2, 2).map(lambda a: round(a, 3))


def coefficients(dim, scalars=SCALARS, laurent=False):
    theta = st.integers(1, dim).map(lambda k: ex.var(f"theta_{k}"))
    powers = st.integers(-1 if laurent else 1, 2).filter(bool)
    factor = st.one_of(
        st.tuples(theta, powers).map(lambda t: ex.intpow(*t)),
        st.tuples(st.sampled_from([ex.sin, ex.cos, ex.exp]), SCALARS, theta).map(
            lambda t: t[0](ex.mul(t[1], t[2]))))
    term = st.tuples(scalars, st.lists(factor, max_size=2)).map(
        lambda t: ex.mul(t[0], *t[1]))
    return st.lists(term, min_size=1, max_size=2).map(lambda ts: ex.add(*ts))


def operators(dim, **kw):
    alphas = st.tuples(*[st.integers(0, 2)] * dim)
    return st.dictionaries(alphas, coefficients(dim, **kw), min_size=1,
                           max_size=3).map(lambda terms: do.DiffOp(dim, terms))


def assert_close(x, y, tol=1e-9):
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    scale = 1 + max(np.max(np.abs(x)), np.max(np.abs(y)))
    assert np.max(np.abs(x - y)) <= tol * scale


def assert_ops_close(a, b, dim):
    pts = POINTS[dim]
    for alpha in set(a.terms) | set(b.terms):
        va = ex.evaluate(a.terms[alpha], pts) if alpha in a.terms else 0
        vb = ex.evaluate(b.terms[alpha], pts) if alpha in b.terms else 0
        assert_close(va, vb)


class TestTimeAxis:
    def test_t_is_the_last_axis(self):
        with_t = ex.parse("t^2*sin(theta_1) + cos(3*t)", 1)
        theta_2 = ex.parse("theta_2^2*sin(theta_1) + cos(3*theta_2)", 2)
        assert (with_t.dim, theta_2.dim) == (1, 2)
        # exponents of (theta_1, t) and of (theta_1, theta_2, t)
        assert sorted(e for e, _ in with_t.terms) == [(0, 0), (0, 2)]
        assert sorted(e for e, _ in theta_2.terms) == [(0, 0, 0), (0, 2, 0)]
        assert ex.to_string(with_t) == "t^2*sin(theta_1) + cos(3*t)"


class TestOneLayout:
    def test_parsed_equals_built(self):
        parsed = ex.parse("2*theta_1 + sin(theta_1)", 1)
        built = ex.add(ex.mul(2, ex.var("theta_1")), ex.sin(ex.var("theta_1")))
        assert parsed == built and hash(parsed) == hash(built)

    def test_operator_and_input_share_one_derivative_chain(self, monkeypatch):
        """An operator applied to f walks f's derivative chain; the input
        made from f then samples the same chain and takes no new step."""
        f = ex.parse("sin(theta_1)*cos(2*theta_2) + theta_1^2*theta_2", 2)
        do.op_apply(do.monomial(ex.ONE, (1, 1)), f)
        steps = []
        derivative = ex.Poly._derivative

        def counted(p, axis):
            steps.append(axis)
            return derivative(p, axis)

        monkeypatch.setattr(ex.Poly, "_derivative", counted)
        grid = ii.Grid(((0.0, 1.0, 5), (0.0, 1.0, 4)), 1.0, 3)
        ii.InputSignal.symbolic(f).derivative_values(grid, (1, 1))
        assert steps == []


class TestAlgebraLaws:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([1, 2]))
    def test_product_is_associative(self, data, dim):
        A, B, C = (data.draw(operators(dim)) for _ in range(3))
        assert_ops_close(do.op_mul(do.op_mul(A, B), C),
                         do.op_mul(A, do.op_mul(B, C)), dim)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([1, 2]))
    def test_product_acts_as_composition(self, data, dim):
        A, B = data.draw(operators(dim)), data.draw(operators(dim))
        f = data.draw(coefficients(dim))
        pts = POINTS[dim]
        assert_close(ex.evaluate(do.op_apply(do.op_mul(A, B), f), pts),
                     ex.evaluate(do.op_apply(A, do.op_apply(B, f)), pts))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([1, 2]))
    def test_text_round_trip_and_fixed_point(self, data, dim):
        scalars = st.one_of(st.floats(-1e3, 1e3), st.complex_numbers(
            max_magnitude=1e3, allow_nan=False, allow_infinity=False))
        letters = [DRIFT, X1, X2][:dim + 1]
        words = st.lists(st.sampled_from(letters), max_size=3).map(
            lambda ls: Word(tuple(ls)))
        coeffs = data.draw(st.dictionaries(
            words, operators(dim, scalars=scalars, laurent=True),
            min_size=1, max_size=4))
        c = se.series_from_coeffs(dim, coeffs)
        text = se.series_to_text(c)
        back = se.series_from_text(text)
        assert back == c
        assert se.series_to_text(back) == text

    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.sampled_from([0, 1]))
    def test_embed_then_evaluate(self, data, offset):
        words = st.lists(st.sampled_from([DRIFT, X1]), max_size=3).map(
            lambda ls: Word(tuple(ls)))
        coeffs = data.draw(st.dictionaries(words, operators(1), min_size=1, max_size=3))
        c = se.series_from_coeffs(1, coeffs)
        axis = (0.3, 1.3, 6)
        g1 = ii.Grid((axis,), 0.5, 9)
        other = (0.5, 0.9, 3)
        g2 = ii.Grid((axis, other) if offset == 0 else (other, axis), 0.5, 9)
        u1 = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1) + cos(theta_1)", 1))
        k = offset + 1
        u2 = ii.InputSignal.symbolic(ex.parse(f"t*sin(theta_{k}) + cos(theta_{k})", 2))
        y1 = ii.evaluate_series(c, u1, g1).values
        y2 = ii.evaluate_series(se.embed(c, 2, offset), u2, g2).values
        y1 = y1[:, None, :] if offset == 0 else y1[None, :, :]
        assert_close(y2, np.broadcast_to(y1, y2.shape), tol=1e-12)

    @staticmethod
    def disjoint_series(data, k):
        """A random series in theta_k and the input letter x_k, dim 3."""
        words = st.lists(st.sampled_from([DRIFT, X1]), max_size=2).map(
            lambda ls: Word(tuple(ls)))
        coeffs = data.draw(st.dictionaries(words, operators(1), min_size=1, max_size=3))
        c = se.embed(se.series_from_coeffs(1, coeffs), 3, k - 1)
        return se.relabel_letters(c, {X1: Letter(k)})

    @staticmethod
    def assert_series_close(c, d, tol=1e-12):
        """Coefficient by coefficient: the same words, operator terms and
        monomials, with values equal up to rounding."""
        assert set(c.coeffs) == set(d.coeffs)
        for w in c.coeffs:
            a, b = c.coeffs[w].terms, d.coeffs[w].terms
            assert set(a) == set(b)
            for alpha in a:
                x, y = a[alpha].terms, b[alpha].terms
                assert set(x) == set(y)
                for key in x:
                    assert abs(x[key] - y[key]) <= tol * (1 + abs(x[key]))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_shuffle_is_commutative(self, data):
        c, d = self.disjoint_series(data, 1), self.disjoint_series(data, 2)
        self.assert_series_close(se.shuffle_series(c, d), se.shuffle_series(d, c))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_shuffle_is_associative(self, data):
        a, b, c = (self.disjoint_series(data, k) for k in (1, 2, 3))
        self.assert_series_close(
            se.shuffle_series(se.shuffle_series(a, b), c),
            se.shuffle_series(a, se.shuffle_series(b, c)))


class TestCompositionLaws:
    """compose on linear dim-1 series whose coefficients have dyadic
    constants, so that every sum and product in the algebra is exact and
    the two sides of a law can be compared for equality."""

    @staticmethod
    def linear_ops():
        dyadic = st.integers(-8, 8).filter(bool).map(lambda k: k / 4)
        factor = st.sampled_from([ex.ONE, THETA, ex.sin(THETA)])
        coeff = st.lists(st.tuples(dyadic, factor), min_size=1, max_size=2).map(
            lambda ts: ex.add(*(ex.mul(a, f) for a, f in ts)))
        return st.dictionaries(st.integers(0, 2).map(lambda k: (k,)), coeff,
                               min_size=1, max_size=2).map(lambda t: do.DiffOp(1, t))

    @staticmethod
    def linear_words(min_size=0, max_size=3):
        return st.lists(st.sampled_from([DRIFT, X1]), min_size=min_size,
                        max_size=max_size).filter(
            lambda ls: ls.count(X1) <= 1).map(lambda ls: Word(tuple(ls)))

    @classmethod
    def linear_series(cls, data):
        return se.series_from_coeffs(1, data.draw(
            st.dictionaries(cls.linear_words(), cls.linear_ops(), min_size=1, max_size=4)))

    @classmethod
    def exact_and_perturbed(cls, data):
        """A linear series exact through a drawn length, and a copy whose
        coefficients differ from it only on words past that length."""
        c = cls.linear_series(data)
        exact = data.draw(st.integers(0, c.max_len))
        coeffs = dict(c.coeffs)
        if exact < c.max_len:
            noise = data.draw(st.dictionaries(cls.linear_words(exact + 1, c.max_len),
                                              cls.linear_ops(), min_size=1, max_size=3))
            for w, op in noise.items():
                coeffs[w] = do.op_add(coeffs[w], op) if w in coeffs else op
        return (se.GenSeries(1, c.coeffs, c.max_len, {X1}, exact_len=exact),
                se.GenSeries(1, coeffs, c.max_len, {X1}, exact_len=exact))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_len_is_never_too_generous(self, data):
        """Changing the inputs past their exact_len leaves every result
        word through the result's exact_len unchanged."""
        c, c_noisy = self.exact_and_perturbed(data)
        d, d_noisy = self.exact_and_perturbed(data)
        n = data.draw(st.integers(0, 4))

        def apart(c, d):  # disjoint parameters and input letters
            return se.embed(c, 2), se.relabel_letters(se.embed(d, 2, 1), {X1: X2})

        results = {
            "compose": lambda c, d: se.compose(c, d),
            "shuffle_series": lambda c, d: se.shuffle_series(*apart(c, d)),
            "parallel_sum": se.parallel_sum,
            "truncate": lambda c, d: se.truncate(c, n),
            "left_shift x0": lambda c, d: se.left_shift(DRIFT, c),
            "left_shift x1": lambda c, d: se.left_shift(X1, c),
        }
        for name, op in results.items():
            if name.startswith("left_shift") and c.exact_len == 0:
                with pytest.raises(se.SeriesError, match="no exact left shift"):
                    op(c, d)
                continue
            want, got = op(c, d), op(c_noisy, d_noisy)
            assert got.exact_len == want.exact_len, name
            for w in set(want.coeffs) | set(got.coeffs):
                if len(w) <= want.exact_len:
                    assert got.coefficient(w) == want.coefficient(w), (name, w)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_compose_is_associative(self, data):
        """The coefficients and the exact prefix: both groupings keep
        min(c, d + m_c, e + m_c + m_d) of the exact lengths, m_s the length
        of the shortest input word of s within its exact prefix."""
        c, d, e = (self.exact_and_perturbed(data)[0] for _ in range(3))
        left = se.compose(se.compose(c, d), e)
        right = se.compose(c, se.compose(d, e))
        assert left.coeffs == right.coeffs
        assert left.exact_len == right.exact_len
        assert left.max_len == right.max_len

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_compose_distributes_over_a_left_sum(self, data):
        c1, c2, d = (self.linear_series(data) for _ in range(3))
        assert se.series_to_text(se.compose(se.parallel_sum(c1, c2), d)) == \
            se.series_to_text(se.parallel_sum(se.compose(c1, d), se.compose(c2, d)))


@pytest.mark.parametrize("k, pairs", [(7, 44), (16, 208)])
def test_variable_velocity_power_matches_sympy(k, pairs):
    sympy = pytest.importorskip("sympy")
    th = sympy.Symbol("theta")
    v = sympy.Poly(1 + th ** 2, th)
    ref = {0: sympy.Poly(1, th)}
    for _ in range(k):
        nxt = {}
        for j, a in ref.items():  # -V d o (a d^j) = -V a' d^j - V a d^(j+1)
            nxt[j] = nxt.get(j, sympy.Poly(0, th)) - v * a.diff(th)
            nxt[j + 1] = nxt.get(j + 1, sympy.Poly(0, th)) - v * a
        ref = nxt
    want = {(j, m[0]): int(c) for j, a in ref.items() for m, c in a.terms() if c != 0}
    step = do.op_scale(ex.neg(ex.add(1, ex.intpow(THETA, 2))), do.partial(1))
    op = do.op_pow(step, k)
    got = {(j, e[0]): c for (j,), coeff in op.terms.items()
           for (e, atoms), c in coeff.terms.items()}
    assert len(got) == len(want) == pairs
    assert got == want
