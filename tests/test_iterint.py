import gc
import io
import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

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

X1 = Letter(1)
THETA = ex.var("theta_1")


def small_grid(n_theta=33, n_t=129, t_end=1.0, theta=(0.0, 1.0)):
    return ii.Grid(((theta[0], theta[1], n_theta),), t_end, n_t)


def drift_input_word(i, j):
    return Word((DRIFT,) * i + (X1,) + (DRIFT,) * j)


def nested_trapezoid(dw, u, grid):
    """Reference E_dw[u] in grid layout (theta..., t): the trapezoid rule
    on the last axis, applied once per letter from the innermost out, to
    the letter's signal derivative (1 for the drift) times the integral
    of the letters after it.  u is a signal for every input letter or a
    binding by letter index."""
    value = np.ones(grid.shape, dtype=np.complex128)
    for letter, order in reversed(dw):
        if not letter.is_drift:
            signal = u if isinstance(u, ii.InputSignal) else u[letter.index]
            value = signal.derivative_values(grid, order) * value
        steps = (value[..., :-1] + value[..., 1:]) * (0.5 * grid.dt)
        value = np.concatenate([np.zeros(grid.shape[:-1] + (1,)),
                                np.cumsum(steps, axis=-1)], axis=-1)
    return value


def per_word_sum(c, binding, grid):
    """Reference evaluation word by word: sum of coefficient * weight *
    E_dw over every decorated word, each integral computed on its own by
    nested_trapezoid.  Returns the sum and the sum of the terms'
    magnitudes."""
    meshes = grid.meshes(with_t=False)
    total = np.zeros(grid.shape, dtype=np.complex128)
    scale = 0.0
    for w in sorted(c.coeffs, key=Word.sort_key):
        for alpha, coeff in c.coeffs[w].sorted_terms():
            a = np.asarray(ex.evaluate(coeff, meshes), dtype=np.complex128)[..., None]
            for weight, dw in ii.expand_derivative(w, alpha):
                term = a * weight * nested_trapezoid(dw, binding, grid)
                total += term
                scale += float(np.max(np.abs(term)))
    return total, scale


GRID_2D = ii.Grid(((0.2, 1.2, 7), (0.1, 0.9, 6)), 1.0, 9)
_meshes_2d = GRID_2D.meshes()
BINDING_2D = {
    1: ii.InputSignal.symbolic(ex.parse("t*sin(theta_1) + cos(theta_2)", 2)),
    2: ii.InputSignal.sampled(ii.GridField(GRID_2D, np.broadcast_to(
        np.exp(_meshes_2d["theta_1"] * _meshes_2d["theta_2"]) * (1 + _meshes_2d["t"]),
        GRID_2D.shape))),
}
COEFF_FORMS = ("{a}", "{a}*theta_1", "{a}*cos(theta_2)", "{a} + sin(theta_1*theta_2)")
random_ops = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]),
    st.tuples(st.sampled_from(COEFF_FORMS),
              st.floats(-2, 2).map(lambda a: round(a, 3))),
    min_size=1, max_size=3)
random_words = st.lists(st.sampled_from([DRIFT, X1, Letter(2)]), max_size=3).map(
    lambda letters: Word(tuple(letters)))
random_series_2d = st.dictionaries(random_words, random_ops, max_size=6).map(
    lambda coeffs: se.series_from_coeffs(2, {
        w: do.DiffOp(2, {alpha: ex.parse(form.format(a=a), 2)
                         for alpha, (form, a) in op.items()})
        for w, op in coeffs.items()}))


class TestIteratedIntegral:
    def test_empty_word_is_one(self):
        g = small_grid()
        f = ii.iterated_integral(Word(), ii.InputSignal.symbolic(ex.ONE), g)
        assert np.allclose(f.values, 1.0)

    def test_single_letter_with_unit_input_is_t(self):
        g = small_grid()
        f = ii.iterated_integral(word("x1"), ii.InputSignal.symbolic(ex.ONE), g)
        assert np.max(np.abs(f.values - g.t_points)) < 1e-14

    @pytest.mark.parametrize("i,j", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (3, 3)])
    def test_unit_input_linear_words_match_beta_integral(self, i, j):
        # oracle: int_0^t (t - s)^i s^j ds / (i! j!) = t^(i+j+1)/(i+j+1)!
        g = small_grid(n_t=513)
        f = ii.iterated_integral(drift_input_word(i, j),
                                 ii.InputSignal.symbolic(ex.ONE), g)
        t = g.t_points
        oracle = t ** (i + j + 1) / math.factorial(i + j + 1)
        assert np.max(np.abs(f.values - oracle)) < 5e-6

    def test_unbound_letter(self):
        g = small_grid()
        with pytest.raises(ii.EvaluationError, match="unbound"):
            ii.iterated_integral(word("x2"), {1: ii.InputSignal.symbolic(ex.ONE)}, g)

    def test_sampled_derivative_order_cap(self):
        g = small_grid()
        base = ii.iterated_integral(Word(), ii.InputSignal.symbolic(ex.ONE), g)
        sig = ii.InputSignal.sampled(base)
        with pytest.raises(ii.EvaluationError, match="cap"):
            sig.derivative_values(g, (5,))

    def test_chen_differential_identity(self):
        # d/dt E_{x_i w} = u_i E_w, via central differences in t
        g = small_grid(n_theta=17, n_t=2001)
        u = ii.InputSignal.symbolic(ex.parse("sin(theta_1) + t*cos(theta_1)", 1))
        for w in (word("x1"), word("x0", "x1"), word("x1", "x0"),
                  word("x1", "x1")):
            for head in (DRIFT, X1):
                full = Word((head,) + w.letters)
                outer = ii.iterated_integral(full, u, g).values
                inner = ii.iterated_integral(w, u, g).values
                dt = g.dt
                lhs = (outer[:, 2:] - outer[:, :-2]) / (2 * dt)
                u_vals = (u.derivative_values(g, (0,)) if head is X1
                          else np.ones(g.shape))
                rhs = (u_vals * inner)[:, 1:-1]
                scale = np.maximum(np.abs(rhs), 1.0)
                assert np.max(np.abs(lhs - rhs) / scale) <= 1e-3

    def test_quadrature_second_order_convergence(self):
        # for u polynomial in t the error of E_{x1}[u] halves twice per
        # grid refinement
        u_expr = ex.parse("t^2 + 0.5*t + 1", 1)
        errors = []
        for n_t in (65, 129, 257):
            g = small_grid(n_theta=3, n_t=n_t)
            f = ii.iterated_integral(word("x1"), ii.InputSignal.symbolic(u_expr), g)
            t = g.t_points
            exact = t ** 3 / 3 + 0.25 * t ** 2 + t
            errors.append(np.max(np.abs(f.values[0] - exact)))
        rate1 = math.log2(errors[0] / errors[1])
        rate2 = math.log2(errors[1] / errors[2])
        assert 1.8 <= rate1 <= 2.2
        assert 1.8 <= rate2 <= 2.2

    def test_level_zero(self):
        # E_empty = 1 on the whole grid, whatever the input
        g = small_grid()
        u = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1) + 2", 1))
        f = ii.iterated_integral(Word(), u, g)
        assert f.values.shape == g.shape
        assert np.all(f.values == 1.0)

    def test_level_one_unit_input(self):
        g = small_grid()
        for w in (word("x0"), word("x1")):
            f = ii.iterated_integral(w, ii.InputSignal.symbolic(ex.ONE), g)
            assert np.max(np.abs(f.values - g.t_points)) < 1e-14

    def test_level_two_unit_input_beta_oracle(self):
        g = small_grid(n_t=513)
        t = g.t_points
        for w in (word("x0", "x0"), word("x0", "x1"),
                  word("x1", "x0"), word("x1", "x1")):
            f = ii.iterated_integral(w, ii.InputSignal.symbolic(ex.ONE), g)
            assert np.max(np.abs(f.values - t ** 2 / 2)) < 1e-5

    def test_is_one_word_series(self):
        g = small_grid(n_theta=5, n_t=9)
        u = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 1))
        w = word("x1", "x0", "x1")
        c = se.series_from_coeffs(1, {w: do.identity(1)})
        want = ii.evaluate_series(c, u, g).values
        assert ii.iterated_integral(w, u, g).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["separable", "mixed", "constant", "sampled", "binding"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_nested_trapezoid(self, kind, dim):
        """Every word up to length 4 over x0, x1 (and x2 on a 2-D grid)."""
        g = GRID_2D if dim == 2 else small_grid(n_theta=7, n_t=9, theta=(0.2, 1.2))
        meshes = g.meshes()
        u = {
            "separable": ii.InputSignal.symbolic(
                ex.parse("t*sin(theta_1) + cos(theta_%d)*exp(-t)" % dim, dim)),
            "mixed": ii.InputSignal.symbolic(ex.parse("sin(theta_%d - t)" % dim, dim)),
            "constant": ii.InputSignal.symbolic(ex.parse("1.5", dim)),
            "sampled": ii.InputSignal.sampled(ii.GridField(g, np.broadcast_to(
                np.exp(meshes["theta_1"] * (1 - meshes["t"])), g.shape))),
            "binding": BINDING_2D if dim == 2 else {
                1: ii.InputSignal.symbolic(ex.parse("2*theta_1*t^2", 1))},
        }[kind]
        letters = [DRIFT, X1] + ([Letter(2)] if dim == 2 else [])
        for n in range(5):
            for w in itertools.product(letters, repeat=n):
                w = Word(w)
                want = nested_trapezoid(ii.undecorated(w, dim), u, g)
                got = ii.iterated_integral(w, u, g).values
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, w


class TestNestedTrapezoid:
    """The test-local reference evaluator against closed forms."""

    @pytest.mark.parametrize("k", range(5))
    def test_unit_input_is_t_power_over_factorial(self, k):
        g = small_grid(n_theta=3, n_t=513)
        for w in itertools.product([DRIFT, X1], repeat=k):
            f = nested_trapezoid(ii.undecorated(Word(w), 1), ii.InputSignal.symbolic(ex.ONE), g)
            oracle = g.t_points ** k / math.factorial(k)
            assert np.max(np.abs(f - oracle)) < 5e-6

    def test_decorated_letter_integrates_derivative(self):
        # u = sin(theta) t: E_{x1^(1)} = cos(theta) t^2/2, and the
        # trapezoid rule is exact on the linear integrand
        g = small_grid(n_theta=9, n_t=17, theta=(0.2, 1.2))
        u = ii.InputSignal.symbolic(ex.parse("sin(theta_1)*t", 1))
        f = nested_trapezoid(((X1, (1,)),), u, g)
        oracle = np.cos(g.theta_points(0))[:, None] * g.t_points ** 2 / 2
        assert np.max(np.abs(f - oracle)) < 1e-15


class TestExpandDerivative:
    def test_linear_word_single_term(self):
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    terms = ii.expand_derivative(drift_input_word(i, j), (k,))
                    assert len(terms) == 1
                    weight, dw = terms[0]
                    assert weight == 1
                    orders = [o for (l, o) in dw if not l.is_drift]
                    assert orders == [(k,)]

    def test_pure_drift_word_vanishes(self):
        assert ii.expand_derivative(Word((DRIFT,) * 3), (2,)) == []

    def test_two_occurrences_split(self):
        terms = ii.expand_derivative(word("x1", "x1"), (1,))
        assert len(terms) == 2
        assert all(weight == 1 for weight, _ in terms)
        orders = sorted(tuple(o for (l, o) in dw) for _, dw in terms)
        assert orders == [((0,), (1,)), ((1,), (0,))]

    def test_two_occurrences_match_finite_differences(self):
        # oracle: finite-difference in theta of the numerically computed
        # E_{x1 x1}[u] for u = sin(theta) * t
        g = small_grid(n_theta=201, n_t=201, theta=(0.2, 1.2))
        u = ii.InputSignal.symbolic(ex.parse("sin(theta_1)*t", 1))
        plain = ii.iterated_integral(word("x1", "x1"), u, g).values
        h = g.theta_spacing(0)
        fd = np.gradient(plain, h, axis=0, edge_order=2)
        total = np.zeros_like(plain)
        for weight, dw in ii.expand_derivative(word("x1", "x1"), (1,)):
            total = total + weight * nested_trapezoid(dw, u, g)
        assert np.max(np.abs(fd - total)) <= 2e-4

    def test_multinomial_weights(self):
        terms = ii.expand_derivative(word("x1", "x1"), (2,))
        weights = sorted(w for w, _ in terms)
        assert weights == [1, 1, 2]  # (2,0), (0,2) and the cross term

    def test_order_is_axis_zero_outermost(self):
        """Terms come as nested loops over the axes, axis 0 outermost:
        evaluation adds them in this order."""
        terms = ii.expand_derivative(word("x1", "x0", "x2"), (1, 1))
        orders = [tuple(o for _, o in dw if o is not None) for _, dw in terms]
        assert orders == [((0, 0), (1, 1)), ((0, 1), (1, 0)),
                          ((1, 0), (0, 1)), ((1, 1), (0, 0))]


class TestCumulativeTrapezoid:
    def test_time_leading_matches_last_axis_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((5, 3, 11)) + 1j * rng.standard_normal((5, 3, 11))
        dt = 0.37
        old = np.zeros_like(f)
        np.cumsum((f[..., :-1] + f[..., 1:]) * (0.5 * dt), axis=-1, out=old[..., 1:])
        new = ii.cumulative_trapezoid(np.moveaxis(f, -1, 0), dt)
        assert new.shape == (11, 5, 3) and new.flags.c_contiguous
        assert np.moveaxis(new, 0, -1).tobytes() == old.tobytes()

    def test_zero_stride_input(self):
        f = np.broadcast_to(np.arange(4.0)[:, None], (4, 3))
        out = ii.cumulative_trapezoid(f, 1.0)
        assert out.dtype == np.complex128 and out.flags.owndata
        assert np.array_equal(out[:, 0], [0, 0.5, 2, 4.5])
        assert np.array_equal(out, np.repeat(out[:, :1], 3, axis=1))


class TestEvaluateSeries:
    def test_unit_series(self):
        g = small_grid()
        c = se.one_series(1)
        out = ii.evaluate_series(c, ii.InputSignal.symbolic(ex.ONE), g)
        assert np.allclose(out.values, 1.0)

    def test_operator_on_single_word_matches_symbolic_integration(self):
        # c = (theta D) on x1 with u = theta^2 t: the output is
        # theta d/dtheta int u = theta * 2 theta t^2/2 = theta^2 t^2
        g = small_grid(theta=(0.3, 1.3), n_t=257)
        c = se.series_from_coeffs(1, {word("x1"): do.monomial(THETA, (1,))})
        u = ii.InputSignal.symbolic(ex.parse("theta_1^2*t", 1))
        out = ii.evaluate_series(c, u, g)
        th = g.theta_points(0)[:, None]
        t = g.t_points[None, :]
        assert np.max(np.abs(out.values - th ** 2 * t ** 2)) < 1e-12

    def test_numeric_vs_symbolic_theta_derivative(self):
        # derivative of the evaluated output by finite differences agrees
        # with the decorated-word path
        g = small_grid(n_theta=401, n_t=201, theta=(0.2, 1.4))
        base = se.series_from_coeffs(
            1, {word("x1"): do.identity(1),
                word("x0", "x1"): do.from_expr(THETA, 1)})
        deriv = se.series_from_coeffs(
            1, {w: do.op_mul(do.partial(1), op) for w, op in base.coeffs.items()})
        u = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1) + cos(theta_1)", 1))
        plain = ii.evaluate_series(base, u, g).values
        h = g.theta_spacing(0)
        fd = np.gradient(plain, h, axis=0, edge_order=2)
        sym = ii.evaluate_series(deriv, u, g).values
        scale = np.maximum(np.abs(sym), 1.0)
        assert np.max(np.abs(fd - sym) / scale) <= 1e-4

    @settings(max_examples=60, deadline=None)
    @given(random_series_2d)
    def test_trie_matches_per_word_sum(self, c):
        out = ii.evaluate_series(c, BINDING_2D, GRID_2D)
        want, scale = per_word_sum(c, BINDING_2D, GRID_2D)
        assert np.max(np.abs(out.values - want)) <= 1e-13 * (1 + scale)

    def test_one_integration_pass_per_decorated_prefix(self, monkeypatch):
        """One pass per trie node with children: per decorated prefix, the
        empty one included, that some decorated word extends."""
        c = pde.transport_series(pde.TransportSpec(1.0, ex.parse("sin(theta_1)", 1), 24))
        prefixes = {dw[:k]
                    for w, op in c.coeffs.items() for alpha, _ in op.sorted_terms()
                    for _, dw in ii.expand_derivative(w, alpha)
                    for k in range(len(dw))}
        passes = []
        integrate = ii.cumulative_trapezoid

        def counted(f, dt):
            passes.append(f.shape)
            return integrate(f, dt)

        monkeypatch.setattr(ii, "cumulative_trapezoid", counted)
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1 + t)", 1))
        ii.evaluate_series(c, u, small_grid(n_theta=9, n_t=17))
        assert len(passes) == len(prefixes) == 25
        assert set(passes) == {(17, 9)}  # time-leading

    @pytest.mark.parametrize("c, value", [(se.GenSeries(2, {}, 0), 0.0),
                                          (se.one_series(2), 1.0)])
    def test_result_is_owned_and_writable(self, c, value):
        out = ii.evaluate_series(c, BINDING_2D, GRID_2D)
        assert out.values.shape == GRID_2D.shape
        assert out.values.flags.writeable and out.values.flags.owndata
        assert np.all(out.values == value)
        out.values[0, 0, 0] = 5.0
        assert np.count_nonzero(out.values != value) == 1

    def test_missing_binding_raises(self):
        g = small_grid()
        c = se.series_from_coeffs(1, {word("x2"): do.identity(1)})
        with pytest.raises(ii.EvaluationError, match="unbound"):
            ii.evaluate_series(c, {1: ii.InputSignal.symbolic(ex.ONE)}, g)


class TestGridAndCsv:
    def test_grid_spec_parse(self):
        g = ii.Grid.from_spec("0:6.283:257,0:1:513")
        assert g.dim == 1
        assert g.theta_axes == ((0.0, 6.283, 257),)
        assert g.t_end == 1.0 and g.n_t == 513

    @pytest.mark.parametrize("spec", ["0:1:abc,0:1:5", "x:1:5,0:1:5",
                                      "0:1:5,0:1:2.5", "0:inf:5,0:1:5"])
    def test_grid_spec_bad_field(self, spec):
        with pytest.raises(ii.EvaluationError, match="bad grid axis"):
            ii.Grid.from_spec(spec)

    def test_grid_spec_requires_zero_time_origin(self):
        with pytest.raises(ii.EvaluationError, match="start at 0"):
            ii.Grid.from_spec("0:1:9,1:2:9")

    @pytest.mark.parametrize("spec", ["-1e308:1e308:5,0:1:5", "0:1:5,-1e308:1e308:5,0:1:5"])
    def test_grid_spec_overflowing_length(self, spec):
        with pytest.raises(ii.EvaluationError, match="too long for a float"):
            ii.Grid.from_spec(spec)

    @pytest.mark.parametrize("spec", ["0:5e-324:3,0:1:5", "0:1:5,0:5e-324:3",
                                      "0:1:5,0:1:1" + "0" * 400])
    def test_grid_spec_spacing_must_be_positive_float(self, spec):
        with pytest.raises(ii.EvaluationError, match="spacing"):
            ii.Grid.from_spec(spec)

    @pytest.mark.parametrize("spec", ["0:1:5,0:1:99999999999999999999",
                                      "0:1:4294967296,0:1:4294967296,0:1:5"])
    def test_grid_past_numpy_array_limit(self, spec):
        """Rejected from the point count alone, before any allocation."""
        with pytest.raises(ii.EvaluationError, match="numpy array"):
            ii.Grid.from_spec(spec)

    bound = st.one_of(
        st.sampled_from(["0", "-0", "1", "-1", "0.25", "1e308", "-1e308", "5e-324", "nan",
                         "-inf", "1_0", " 2 ", "0x1"]),
        st.floats().map(repr), st.text(max_size=3))
    count = st.one_of(
        st.sampled_from(["2", "5", "1", "0", "-3", "2.5", "1e3", "", "9" * 400]),
        st.integers(-3, 10 ** 30).map(str), st.text(max_size=3))
    axis = st.tuples(bound, bound, count).map(":".join)
    spec = st.one_of(st.lists(axis, min_size=1, max_size=4).map(",".join), st.text(max_size=30))

    @settings(max_examples=400, deadline=None)
    @given(spec)
    @example("-1e308:1e308:5,0:1:5")
    @example("0:1:5,0:1:" + "9" * 400)
    @example("0:5e-324:3,0:1:5")
    @example("0:1:5,0:1:99999999999999999999")  # past numpy's array limit
    def test_grid_spec_fuzz(self, spec):
        """Any text gives a grid with finite positive spacings or an
        EvaluationError.  No array is built: n may be huge."""
        try:
            g = ii.Grid.from_spec(spec)
        except ii.EvaluationError:
            return
        for k in range(g.dim):
            assert 0 < g.theta_spacing(k) < math.inf
        assert 0 < g.dt < math.inf

    def test_csv_layout(self):
        g = ii.Grid(((0.0, 1.0, 2),), 1.0, 2)
        f = ii.GridField(g, np.array([[1 + 2j, 3.0], [0.25, -1.5]]))
        buf = io.StringIO()
        ii.write_csv(f, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "theta_1,t,re,im"
        assert lines[1] == "0,0,1,2"
        assert lines[2] == "0,1,3,0"
        assert lines[3] == "1,0,0.25,0"
        assert lines[4] == "1,1,-1.5,0"
        assert len(lines) == 5

    def test_csv_matches_per_cell_formatting(self):
        g = ii.Grid(((-1.0, 0.3, 3), (-0.7, -0.1, 4)), 0.9, 5)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(g.shape) - 1j * rng.standard_normal(g.shape)
        values[0, 0, 0] = -0.0
        buf = io.StringIO()
        ii.write_csv(ii.GridField(g, values), buf)
        rows = ["theta_1,theta_2,t,re,im"]
        for i, th1 in enumerate(g.theta_points(0)):
            for j, th2 in enumerate(g.theta_points(1)):
                for k, t in enumerate(g.t_points):
                    v = values[i, j, k]
                    rows.append(f"{th1:.17g},{th2:.17g},{t:.17g},"
                                f"{v.real:.17g},{v.imag:.17g}")
        assert buf.getvalue() == "\n".join(rows) + "\n"

    def test_csv_seventeen_digits(self):
        g = ii.Grid(((0.0, 1.0, 2),), 1.0, 2)
        f = ii.GridField(g, np.full((2, 2), 1 / 3))
        buf = io.StringIO()
        ii.write_csv(f, buf)
        assert "0.33333333333333331" in buf.getvalue()


def per_cell_csv(field):
    """The CSV with every number printed by format(x, ".17g") one at a
    time: the reference for write_csv."""
    grid = field.grid
    lines = [",".join([f"theta_{k + 1}" for k in range(grid.dim)] + ["t", "re", "im"])]
    axes = [grid.theta_points(k).tolist() for k in range(grid.dim)]
    t = grid.t_points.tolist()
    rows = field.values.reshape(-1, grid.n_t)
    for row, idx in enumerate(np.ndindex(tuple(map(len, axes)))):
        prefix = ",".join(f"{axes[k][i]:.17g}" for k, i in enumerate(idx))
        for tj, v in zip(t, rows[row].tolist()):
            lines.append(f"{prefix},{tj:.17g},{v.real:.17g},{v.imag:.17g}")
    return "\n".join(lines) + "\n"


def assert_printed_as_format(floats):
    """write_csv prints each of the floats, placed in the re and im
    columns of a small field, exactly as format() does."""
    floats = np.asarray(floats, dtype=np.float64).ravel()
    n_t = max(2, -(-floats.size // 4))
    parts = np.zeros(4 * n_t)
    parts[:floats.size] = floats
    field = ii.GridField(ii.Grid(((0.0, 1.0, 2),), 1.0, n_t),
                         parts.view(np.complex128).reshape(2, n_t))
    buf = io.StringIO()
    ii.write_csv(field, buf)
    got, want = buf.getvalue().splitlines(), per_cell_csv(field).splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def exact_ties():
    """Doubles x with x * 10^p = D + 1/2 for a 17-digit D, for every p the
    fast path uses: x = q / 2^(p+1) with q odd and 5^p q = 2D + 1."""
    out = [131073 / 131072]
    for p in range(1, 23):
        low = -(-(2 * 10 ** 16 + 1) // 5 ** p) | 1
        high = min((2 * 10 ** 17 - 1) // 5 ** p, 2 ** 53 - 1)
        for q in {low, low + 2, (low + high) // 2 | 1, high - 1 + high % 2}:
            x = q / 2 ** (p + 1)
            scaled = Fraction(x) * 10 ** p
            assert scaled.denominator == 2 and 10 ** 16 <= scaled < 10 ** 17
            out += [x, -x]
    return out


def boundary_values():
    """Powers of ten and the doubles next to them, the ends of the fast
    path's range, and the values left to format()."""
    out = []
    for v in [float(f"1e{j}") for j in range(-8, 18)] + [2.0 ** -19, 2.0 ** 53]:
        below = math.nextafter(v, 0)
        above = math.nextafter(v, math.inf)
        for x in (v, below, math.nextafter(below, 0), above, math.nextafter(above, math.inf)):
            out += [x, -x]
    tiny = np.finfo(np.float64).smallest_subnormal
    out += [0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308,
            np.finfo(np.float64).max, -np.finfo(np.float64).max, math.inf, -math.inf,
            math.nan, math.copysign(math.nan, -1.0), 1 / 3, 2 / 3, 0.1, 0.5, 1e-5, 123456.789]
    return out


def float_bits(sign, exponent, mantissa):
    return np.array(sign << 63 | exponent << 52 | mantissa, dtype=np.uint64).view(np.float64)


class TestCsvDigits:
    """write_csv computes 17-digit decimals in numpy; they must be the
    bytes format(x, ".17g") gives."""

    def test_tables_match_loop_reference(self):
        """The broadcast tables against a loop over every (re/im, sign,
        code, significant digits) and every binade, byte for byte."""
        t = ii._csv_tables()
        code = np.full(2048, ii._OTHER)
        step = np.full(2048, np.nan)
        code[0], step[0] = ii._ZERO, 5e-324
        decades = {k: float(f"1e{k}") for k in range(ii._K_MIN, 17)}
        for e in range(1023 - 19, 1023 + 53):
            low = 2.0 ** (e - 1023)
            k = max(j for j, d in decades.items() if d <= low)
            code[e] = k - ii._K_MIN
            if decades[k + 1] < 2 * low:
                step[e] = decades[k + 1]
        assert np.array_equal(t.binade_code, np.concatenate([code, code + ii._CODES]))
        assert np.array_equal(t.binade_step, np.concatenate([step, step]), equal_nan=True)
        heads, masks = bytearray(), bytearray()
        first, dot = ii._FIRST, ii._DOT
        for im, neg, c in np.ndindex(2, 2, ii._CODES):
            k = c + ii._K_MIN
            lead = b"," * im + b"-" * neg
            if c == ii._ZERO:
                lead += b"0"
            elif -4 <= k < 0:
                lead += b"0." + b"0" * (-k - 1)
            heads += lead.rjust(first, b"\0") + b"\0"
            for s in range(18):
                runs = [(first - len(lead), first)]
                if -4 <= k < 0:
                    runs.append((first, first + s))
                elif k < -4:
                    runs += [(first, first + 1), (dot, dot + s * (s > 1)), (44, 48)]
                elif c < ii._ZERO:
                    runs.append((first, first + k + 1))
                    if s > k + 1:
                        runs += [(dot, dot + 1), (dot + k + 1, dot + s)]
                row = bytearray(ii._CELL)
                for lo, hi in runs:
                    row[lo:hi] = b"\1" * (hi - lo)
                masks += row
        assert t.lead.tobytes() == bytes(heads)
        assert t.mask.tobytes() == bytes(masks)
        assert t.exponent.tobytes() == b"".join(
            b"e-06" if c % ii._CODES == 0 else b"e-05" for c in range(4 * ii._CODES))

    def test_exact_ties_round_half_to_even(self):
        assert_printed_as_format(exact_ties())

    def test_boundaries_and_special_values(self):
        assert_printed_as_format(boundary_values())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, bits):
        assert_printed_as_format(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(1000, 1080),
                              st.integers(0, 2 ** 52 - 1)), min_size=1, max_size=40))
    def test_bit_patterns_near_the_fast_range(self, parts):
        """Exponents of 2^-23 to 2^57: the range the numpy digits cover and
        a few binades either side."""
        assert_printed_as_format([float_bits(*p) for p in parts])

    @pytest.mark.parametrize("theta_axes, n_t", [
        (((-1.0, 0.3, 7), (-0.7, -0.1, 9)), 65),  # several theta rows per block
        (((0.0, 2.0, 3),), 1500),                 # each row split in two blocks
    ])
    def test_blocks_match_per_cell_formatting(self, theta_axes, n_t):
        g = ii.Grid(theta_axes, 0.9, n_t)
        n_rows = math.prod(n for *_, n in theta_axes)
        assert n_rows * n_t > ii._CSV_BLOCK  # more than one block
        rng = np.random.default_rng(5)
        scale = 10.0 ** rng.uniform(-9, 18, g.shape)
        values = (rng.standard_normal(g.shape) * scale
                  + 1j * rng.standard_normal(g.shape) / scale)
        flat = values.reshape(-1)
        flat[::97] = 0.0
        flat[5::89] = complex(-0.0, math.nan)
        flat[11::83] = complex(math.inf, -0.0)
        buf = io.StringIO()
        ii.write_csv(ii.GridField(g, values), buf)
        assert buf.getvalue() == per_cell_csv(ii.GridField(g, values))

    @pytest.mark.parametrize("theta_axes, n_t", [
        (((-1.0, 0.3, 7), (-0.7, -0.1, 9)), 65),  # several theta rows per block
        (((0.0, 2.0, 3),), 1500),                 # each row split in two blocks
    ])
    @pytest.mark.parametrize("imag, columns", [
        (None, 1),         # every imaginary part +0.0: the constant im cell
        (-0.0, 2),         # one -0.0 or nan imaginary part: both columns
        (math.nan, 2),
    ])
    def test_real_fields_match_per_cell_formatting(self, monkeypatch, theta_axes,
                                                   n_t, imag, columns):
        g = ii.Grid(theta_axes, 0.9, n_t)
        rng = np.random.default_rng(6)
        values = (rng.standard_normal(g.shape)
                  * 10.0 ** rng.uniform(-9, 18, g.shape)).astype(np.complex128)
        flat = values.reshape(-1)
        flat[::97] = 0.0
        flat[3::89] = -0.0
        flat[5::83] = math.nan
        flat[11::79] = -math.inf
        if imag is not None:
            flat[-1] = complex(flat[-1].real, imag)
        formatted = []
        format_block = ii._format_block

        def spy(x, *args):
            formatted.append(x.shape[1])
            format_block(x, *args)

        monkeypatch.setattr(ii, "_format_block", spy)
        buf = io.StringIO()
        ii.write_csv(ii.GridField(g, values), buf)
        assert buf.getvalue() == per_cell_csv(ii.GridField(g, values))
        assert len(formatted) > 1 and set(formatted) == {columns}

    def test_long_time_axis_is_written_in_spans(self):
        """A row longer than a block is cut into spans of time points, so
        the memory the writer holds does not grow with n_t."""
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        ii.write_csv(ii.GridField(small_grid(3, 3), np.ones((3, 3))), Sink())  # tables
        g = ii.Grid(((0.0, 1.0, 2),), 1.0, 100_001)
        field = ii.GridField(g, np.broadcast_to(np.sin(np.arange(g.n_t)), g.shape))
        sink = Sink()
        tracemalloc.start()
        try:
            ii.write_csv(field, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size > 8_000_000 and peak < sink.size / 4


class TestFactoredField:
    """A separable evaluation returns the factors of its field, formed a
    block of theta rows at a time by values and by write_csv alike."""

    @staticmethod
    def factored(grid, kind, k=5, seed=3):
        """Factors of a field on grid: all real, all complex, or real but
        for the rows of the second block of theta rows."""
        rng = np.random.default_rng(seed)
        n_rows = math.prod(grid.shape[:-1])
        weights = rng.standard_normal((n_rows, k)) * 10.0 ** rng.uniform(-6, 6, (n_rows, 1))
        times = rng.uniform(0.1, 2.0, (k, grid.n_t)).astype(np.complex128)
        weights = weights.astype(np.complex128)
        if kind == "complex":
            weights += 1j * rng.standard_normal(weights.shape)
            times -= 1j * rng.standard_normal(times.shape)
        elif kind == "mixed":
            step = max(1, ii._BLOCK // grid.n_t)
            weights[step:2 * step] += 1j * rng.standard_normal((step, k))
        # two fields with the same factors: one for write_csv, one whose
        # values are read
        return (ii.GridField.factored(grid, weights, times),
                ii.GridField.factored(grid, weights.copy(), times.copy()))

    @pytest.mark.parametrize("kind, columns", [("real", {1}), ("complex", {2}),
                                                ("mixed", {1, 2})])
    @pytest.mark.parametrize("theta_axes, n_t", [
        (((-1.0, 0.3, 7), (-0.7, -0.1, 9)), 65),  # several theta rows per block
        (((0.0, 2.0, 5),), 1500),                 # rows in spans of time points
    ])
    def test_csv_matches_per_cell_formatting(self, monkeypatch, kind, columns,
                                             theta_axes, n_t):
        monkeypatch.setattr(ii, "_BLOCK", 2 * n_t)  # blocks of two rows
        grid = ii.Grid(theta_axes, 0.9, n_t)
        streamed, materialised = self.factored(grid, kind)
        formatted = []
        format_block = ii._format_block

        def spy(x, *args):
            formatted.append(x.shape[1])
            format_block(x, *args)

        monkeypatch.setattr(ii, "_format_block", spy)
        buf = io.StringIO()
        assert ii.write_csv(streamed, buf) is True
        assert streamed._values is None  # written from the factors
        assert buf.getvalue() == per_cell_csv(materialised)
        assert set(formatted) == columns

    def test_values_are_formed_once_from_the_same_blocks(self, monkeypatch):
        monkeypatch.setattr(ii, "_BLOCK", 3 * 33)
        grid = ii.Grid(((0.0, 1.0, 10),), 1.0, 33)
        field, _ = self.factored(grid, "complex")
        blocks = [block.copy() for _, block in field.blocks()]
        assert len(blocks) == 4
        values = field.values
        assert values.flags.owndata and values.flags.writeable
        assert np.array_equal(values.reshape(-1, grid.n_t), np.concatenate(blocks))
        assert field.values is values and field._factors is None

    def test_real_factors_are_kept_as_floats(self):
        grid = small_grid(9, 17)
        field, _ = self.factored(grid, "real")
        assert all(a.dtype == np.float64 for a in field._factors)
        assert not field.values.imag.view(np.uint64).any()  # +0.0 throughout

    def test_non_finite_values_are_printed_and_reported(self):
        grid = small_grid(4, 5)
        weights = np.ones((4, 1), dtype=np.complex128)
        weights[2, 0] = math.inf
        field = ii.GridField.factored(grid, weights, np.ones((1, 5), np.complex128))
        buf = io.StringIO()
        assert ii.write_csv(field, buf) is False
        assert buf.getvalue().count(",inf,0\n") == 5
        buf = io.StringIO()
        assert ii.write_csv(ii.GridField(grid, np.full(grid.shape, complex(1, math.nan))),
                            buf) is False
        assert ii.write_csv(ii.GridField(grid, np.ones(grid.shape)), io.StringIO()) is True

    def test_separable_solve_holds_less_than_one_field(self):
        """The transport-grid benchmark job: evaluation and export together
        peak below the size of one full complex field."""
        c = pde.transport_series(pde.TransportSpec(1.03, ex.parse("sin(theta_1)", 1), 24))
        grid = ii.Grid.from_spec("0:6.283185307179586:257,0:1:513")
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2.05*theta_1)", 1))
        field_bytes = math.prod(grid.shape) * 16

        class Sink:
            def write(self, text):
                pass

        ii._csv_tables.cache_clear()  # built inside the measurement
        tracemalloc.start()
        try:
            field = ii.evaluate_series(c, u, grid)
            assert ii.write_csv(field, Sink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field._values is None
        assert peak < field_bytes


class TestDerivativeHolding:
    """evaluate_series holds a signal derivative only while an unvisited
    trie edge still needs it, and computes each one once."""

    @staticmethod
    def spy(monkeypatch):
        made = []  # (signal, order, arrays alive before this call, weakref
        #           to the array that owns the samples' memory)
        original = ii.InputSignal.derivative_values

        def derivative_values(self, grid, order):
            alive = sum(ref() is not None for *_, ref in made)
            values = original(self, grid, order)
            owner = values  # views of it keep this alive, not values itself
            while owner.base is not None:
                owner = owner.base
            made.append((self, tuple(order), alive, weakref.ref(owner)))
            return values

        monkeypatch.setattr(ii.InputSignal, "derivative_values", derivative_values)
        return made

    def test_released_after_last_use(self, monkeypatch):
        made = self.spy(monkeypatch)
        c = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=8))
        u = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1 + t)", 1))
        field = ii.evaluate_series(c, u, small_grid())
        assert sorted(order for _, order, _, _ in made) == [(k,) for k in range(9)]
        assert max(alive for _, _, alive, _ in made) == 0
        assert all(ref() is None for *_, ref in made)
        assert np.all(np.isfinite(field.values))

    def test_each_order_computed_once(self, monkeypatch):
        made = self.spy(monkeypatch)
        c = se.embed(pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=3)), 2, 0)
        d = se.relabel_letters(
            se.embed(pde.transport_series(pde.TransportSpec(V=0.5, y0=0, N=3)), 2, 1),
            {X1: Letter(2)})
        p = se.shuffle_series(c, d)
        binding = {1: ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 2)),
                   2: ii.InputSignal.symbolic(ex.parse("t*cos(theta_2 + t)", 2))}
        ii.evaluate_series(p, binding, GRID_2D)
        keys = [(id(signal), order) for signal, order, _, _ in made]
        assert len(keys) == len(set(keys)) > 4
        assert all(ref() is None for *_, ref in made)


class TestSeparablePath:
    """Inputs that are sums of theta-factor times t-factor terms integrate
    on 1-D time arrays; mixed and sampled inputs take the grid trie."""

    @staticmethod
    def record_passes(passes):
        integrate = ii.cumulative_trapezoid

        def counted(f, dt):
            passes.append(f.shape)
            return integrate(f, dt)

        return mock.patch.object(ii, "cumulative_trapezoid", counted)

    def test_one_time_pass_per_time_word_suffix(self):
        c = pde.transport_series(pde.TransportSpec(1.0, ex.parse("sin(theta_1)", 1), 24))
        # u = t * sin(2 theta_1) has one time monomial, t; drift is 1
        time_words = {tuple("1" if l.is_drift else "t" for l, _ in dw)
                      for w, op in c.coeffs.items() for alpha, _ in op.sorted_terms()
                      for _, dw in ii.expand_derivative(w, alpha)}
        suffixes = {tau[k:] for tau in time_words for k in range(len(tau))}
        passes = []
        u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
        with self.record_passes(passes):
            ii.evaluate_series(c, u, small_grid(n_theta=9, n_t=17))
        assert len(passes) == len(suffixes) == 49
        assert set(passes) == {(17,)}

    def test_no_grid_derivatives(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid derivative on the separable path")

        monkeypatch.setattr(ii.InputSignal, "derivative_values", refuse)
        monkeypatch.setattr(ex, "differentiate", refuse)
        c = se.embed(pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=3)), 2, 0)
        d = se.relabel_letters(
            se.embed(pde.transport_series(pde.TransportSpec(V=0.5, y0=0, N=3)), 2, 1),
            {X1: Letter(2)})
        binding = {1: ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 2)),
                   2: ii.InputSignal.symbolic(ex.parse("t*cos(theta_2)", 2))}
        out = ii.evaluate_series(se.shuffle_series(c, d), binding, GRID_2D)
        assert np.all(np.isfinite(out.values)) and out.values.flags.owndata

    @settings(max_examples=60, deadline=None)
    @given(random_series_2d, st.floats(0.5, 3).map(lambda w: round(w, 3)))
    def test_separable_matches_grid_path(self, c, w):
        second = ii.InputSignal.symbolic(ex.parse("t*cos(theta_2) + theta_1", 2))
        split = {1: ii.InputSignal.symbolic(ex.parse(
                     f"sin({w}*theta_1)*cos(t) + cos({w}*theta_1)*sin(t)", 2)),
                 2: second}
        mixed = {1: ii.InputSignal.symbolic(ex.parse(f"sin({w}*theta_1 + t)", 2)),
                 2: second}
        sep_passes, grid_passes = [], []
        with self.record_passes(sep_passes):
            got = ii.evaluate_series(c, split, GRID_2D)
        with self.record_passes(grid_passes):
            want = ii.evaluate_series(c, mixed, GRID_2D)
        assert all(shape == (GRID_2D.n_t,) for shape in sep_passes)
        if any(l == X1 for w in c.coeffs for l in w.input_letters()):
            assert all(len(shape) == 3 for shape in grid_passes)
        _, scale = per_word_sum(c, mixed, GRID_2D)
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * (1 + scale)

    @pytest.mark.parametrize("text", ["sin(theta_1 - t)", "exp(theta_1*cos(t))"])
    def test_mixed_atom_takes_grid_path(self, text):
        passes = []
        c = pde.transport_series(pde.TransportSpec(1.0, 0, 4))
        with self.record_passes(passes):
            ii.evaluate_series(c, ii.InputSignal.symbolic(ex.parse(text, 1)),
                               small_grid(n_theta=9, n_t=17))
        assert passes and set(passes) == {(17, 9)}

    @pytest.mark.parametrize("k, ndim", [(1, 1), (4, 2)])
    def test_walk_size_decides_for_many_time_monomials(self, k, ndim):
        """(1+t)^8 has nine time monomials, so the separable walk over
        x1^k visits 9 + 81 + ... + 9^k edges: fine for k = 1, but past
        the grid walk's cost for k = 4 (6,560 visits for 4 edges)."""
        c = se.series_from_coeffs(1, {Word((X1,) * k): do.identity(1)})
        u = ii.InputSignal.symbolic(ex.parse("(1 + t)^8*sin(theta_1)", 1))
        passes = []
        with self.record_passes(passes):
            ii.evaluate_series(c, u, small_grid(n_theta=9, n_t=17))
        assert passes and {len(shape) for shape in passes} == {ndim}


class TestNoReferenceCycles:
    """The evaluation path leaves nothing for the cyclic collector, which
    a `cf` process keeps switched off."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_expand_derivative(self):
        terms = ii.expand_derivative(word("x1", "x0", "x2", "x1"), (2, 1))
        assert len(terms) == 18  # 6 ways on axis 1, 3 on axis 2
        assert gc.collect() == 0

    @pytest.mark.parametrize("text", ["t*cos(theta_2)", "t*cos(theta_2 + t)"])
    def test_evaluate_shuffle_product(self, text):
        """Both walks: a separable input, and one that mixes theta and t."""
        c = se.embed(pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=2)), 2, 0)
        d = se.relabel_letters(
            se.embed(pde.transport_series(pde.TransportSpec(V=0.5, y0=0, N=2)), 2, 1),
            {X1: Letter(2)})
        p = se.shuffle_series(c, d)
        binding = {1: ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 2)),
                   2: ii.InputSignal.symbolic(ex.parse(text, 2))}
        assert gc.collect() == 0
        ii.evaluate_series(p, binding, GRID_2D)
        assert gc.collect() == 0
