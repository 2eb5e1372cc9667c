import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfpde import diffop as do
from cfpde import expr as ex
from conftest import exprs_equal, random_expr, theta_points


class TestParse:
    def test_product_with_function(self):
        e = ex.parse("t*sin(2*theta_1)", 1)
        assert e == ex.Mul((ex.Var("t"),
                            ex.Sin(ex.Mul((ex.Const(2 + 0j), ex.Var("theta_1"))))))

    def test_power(self):
        assert ex.parse("theta_1^2", 1) == ex.Pow(ex.Var("theta_1"), 2)

    def test_theta_index_out_of_range(self):
        with pytest.raises(ex.ParseError, match="out of range"):
            ex.parse("sin(theta_2)", 1)

    def test_unknown_identifier(self):
        with pytest.raises(ex.ParseError, match="unknown identifier"):
            ex.parse("foo + 1", 1)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ex.ParseError, match="position"):
            ex.parse("1 + * 2", 1)

    def test_imaginary_number(self):
        assert ex.parse("2.5i", 1) == ex.Const(2.5j)

    def test_scientific_notation(self):
        assert ex.parse("1.5e-3", 1) == ex.Const(1.5e-3 + 0j)

    def test_division_by_variable(self):
        e = ex.parse("t/theta_1", 1)
        assert ex.evaluate(e, {"t": 6.0, "theta_1": 3.0}) == 2.0

    def test_division_by_compound_rejected(self):
        with pytest.raises(ex.ParseError, match="denominator"):
            ex.parse("1/(1 + theta_1)", 1)

    def test_negative_exponent_parses(self):
        e = ex.parse("theta_1^-2", 1)
        assert ex.evaluate(e, {"theta_1": 2.0}) == 0.25


class TestDifferentiate:
    def test_second_derivative_of_sin(self, rng):
        omega = 3.0
        theta = ex.var("theta_1")
        e = ex.sin(ex.mul(omega, theta))
        d2 = ex.differentiate(e, "theta_1", 2)
        expected = ex.mul(-omega ** 2, ex.sin(ex.mul(omega, theta)))
        assert exprs_equal(d2, expected, theta_points(rng))

    def test_t_sin_theta(self, rng):
        e = ex.parse("t*sin(theta_1)", 1)
        d = ex.differentiate(e, "theta_1")
        expected = ex.parse("t*cos(theta_1)", 1)
        pts = [dict(p, t=0.7) for p in theta_points(rng)]
        assert exprs_equal(d, expected, pts)

    def test_constant(self):
        assert ex.differentiate(ex.const(4.25), "theta_1") == ex.ZERO

    def test_derivative_matches_central_difference(self, rng):
        h = 1e-5
        checked = 0
        for _ in range(100):
            e = random_expr(rng, dim=1, max_depth=3)
            d = ex.differentiate(e, "theta_1")
            p = rng.uniform(0.4, 2.0)
            t = rng.uniform(0.1, 0.9)
            up = ex.evaluate(e, {"theta_1": p + h, "t": t})
            dn = ex.evaluate(e, {"theta_1": p - h, "t": t})
            fd = (up - dn) / (2 * h)
            value = ex.evaluate(d, {"theta_1": p, "t": t})
            assert abs(value - fd) <= 1e-6 * (1 + abs(value)), ex.to_string(e)
            checked += 1
        assert checked == 100

    def test_linearity(self, rng):
        for _ in range(10):
            e1 = random_expr(rng, max_depth=2)
            e2 = random_expr(rng, max_depth=2)
            a = round(rng.uniform(-3, 3), 3)
            lhs = ex.differentiate(ex.add(ex.mul(a, e1), e2), "theta_1")
            rhs = ex.add(ex.mul(a, ex.differentiate(e1, "theta_1")),
                         ex.differentiate(e2, "theta_1"))
            pts = [dict(p, t=float(rng.uniform(0, 1))) for p in theta_points(rng)]
            assert exprs_equal(lhs, rhs, pts)


class TestEvaluate:
    def test_square(self):
        assert ex.evaluate(ex.parse("theta_1^2", 1), {"theta_1": 3.0}) == 9.0

    def test_t_sin(self):
        v = ex.evaluate(ex.parse("t*sin(theta_1)", 1),
                        {"t": 2.0, "theta_1": math.pi / 2})
        assert abs(v - 2.0) < 1e-15

    def test_pole(self):
        with pytest.raises(ex.PoleError):
            ex.evaluate(ex.parse("theta_1^-1", 1), {"theta_1": 0.0})

    def test_unbound_variable(self):
        with pytest.raises(ex.EvalError, match="unbound"):
            ex.evaluate(ex.parse("t + theta_1", 1), {"t": 1.0})

    def test_real_bindings_give_exactly_real_values(self, rng):
        for _ in range(20):
            e = random_expr(rng, max_depth=3)
            v = ex.evaluate(e, {"theta_1": float(rng.uniform(0.4, 2.0)),
                                "t": float(rng.uniform(0, 1))})
            assert complex(v).imag == 0.0

    def test_array_broadcast(self):
        e = ex.parse("t*theta_1", 1)
        th = np.array([1.0, 2.0])[:, None]
        t = np.array([3.0, 4.0, 5.0])[None, :]
        out = ex.evaluate(e, {"theta_1": th, "t": t})
        assert out.shape == (2, 3)
        assert out[1, 2] == 10.0


class TestRoundTrip:
    CORPUS = [
        "t*sin(2*theta_1)",
        "theta_1^2",
        "sin(theta_1) + cos(theta_1)*exp(t)",
        "1.5e-3*exp(t) - theta_1^-1",
        "-t^2 - 3*theta_1",
        "2.5i*t + (1 - theta_1)^3",
        "t/theta_1 + t/2",
        "sin(t - theta_1)^2",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_print_parse_print_fixed_point(self, text):
        once = ex.to_string(ex.parse(text, 1))
        twice = ex.to_string(ex.parse(once, 1))
        assert once == twice

    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_print_parse_fixed_point(self, text):
        tree = ex.parse(text, 1)
        assert ex.parse(ex.to_string(tree), 1) == tree

    def test_random_exprs_round_trip(self, rng):
        for _ in range(50):
            e = random_expr(rng, max_depth=3)
            s = ex.to_string(e)
            assert ex.to_string(ex.parse(s, 1)) == s

    def test_negated_sum_inside_sum_keeps_parentheses(self):
        # a - (x + y) must not print as a - x + y
        x, y = ex.var("theta_1"), ex.var("t")
        e = ex.Add((ex.Const(1 + 0j), ex.Neg(ex.Add((x, y)))))
        s = ex.to_string(e)
        pt = {"theta_1": 0.7, "t": 0.3}
        assert ex.evaluate(ex.parse(s, 1), pt) == ex.evaluate(e, pt)

    def test_printing_preserves_value(self, rng):
        pt = {"theta_1": 0.83, "t": 0.41}
        for _ in range(200):
            e = random_expr(rng, max_depth=4)
            v1 = complex(ex.evaluate(e, pt))
            v2 = complex(ex.evaluate(ex.parse(ex.to_string(e), 1), pt))
            assert abs(v1 - v2) <= 1e-12 * (1 + abs(v1)), ex.to_string(e)


class TestInvariants:
    def test_exponent_magnitude_cap(self):
        with pytest.raises(ex.ExprError, match="exponent"):
            ex.intpow(ex.var("theta_1"), 2 ** 31 + 1)

    def test_negative_exponent_needs_simple_base(self):
        with pytest.raises(ex.ExprError, match="negative exponent"):
            ex.intpow(ex.add(ex.var("theta_1"), 1), -1)

    def test_simplify_folds_constants(self):
        e = ex.Add((ex.Const(2 + 0j), ex.Const(3 + 0j),
                    ex.Mul((ex.Const(0j), ex.Var("t")))))
        assert ex.simplify(e) == ex.Const(5 + 0j)

    def test_display_suppresses_tiny_imaginary_parts(self):
        assert ex.to_string(ex.const(complex(2.0, 1e-15))) == "2"

    @pytest.mark.parametrize("value, text", [
        (1e-13j, "1e-13i"),
        (complex(1e-20, 3e-20), "(1e-20+3e-20i)"),
        (complex(1e-30, 1.0), "1i"),
        (complex(-4e-300, 0.0), "-4e-300"),
        (0j, "0"),
    ])
    def test_display_rule_is_relative(self, value, text):
        assert ex.to_string(ex.const(value)) == text

    def test_display_keeps_small_applied_coefficient(self):
        applied = do.op_apply(do.monomial(ex.const(1e-13j), (1,)),
                              ex.parse("theta_1^2", 1))
        assert ex.to_string(applied) == "2e-13i*theta_1"


class TestConstantFolding:
    @pytest.mark.parametrize("fn, value", [(ex.exp, 1000), (ex.sin, 1e308j),
                                           (ex.cos, math.inf)])
    def test_overflowing_function_is_expr_error(self, fn, value):
        with pytest.raises(ex.ExprError, match="out of range"):
            fn(ex.const(value))

    def test_canonical_fold_is_expr_error(self):
        with pytest.raises(ex.ExprError, match="out of range"):
            ex.canonical(ex.parse("exp(1000)*theta_1", 1), 1)

    @pytest.mark.parametrize("text", ["1e999*theta_1", "t + 2e400i"])
    def test_overflowing_literal_is_parse_error(self, text):
        with pytest.raises(ex.ParseError, match="out of range"):
            ex.parse(text, 1)

    def test_exponent_with_too_many_digits_is_parse_error(self):
        with pytest.raises(ex.ParseError, match="exponent"):
            ex.parse("theta_1^" + "9" * 5000, 1)

    def test_deep_nesting_is_expr_error(self):
        with pytest.raises(ex.ExprError, match="nests too deeply"):
            ex.parse("(" * 2000 + "t" + ")" * 2000, 1)

    @pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "-inf"),
                                             (math.nan, "(nan+0i)")])
    def test_non_finite_constant_prints(self, value, text):
        assert ex.to_string(ex.Const(complex(value, 0))) == text


EXPR_TYPES = (ex.Const, ex.Var, ex.Add, ex.Mul, ex.Pow, ex.Neg, ex.Sin, ex.Cos, ex.Exp)


class TestParseFuzz:
    token = st.sampled_from([
        "0", "1", "2", "2.5", ".5", "3i", "1e308", "1e999", "5e-324", "99999999",
        "t", "theta_1", "theta_2", "theta_0", "sin", "cos", "exp", "x",
        "+", "-", "*", "/", "^", "(", ")", " ", "$",
    ])
    text = st.lists(token, max_size=24).map("".join)

    @settings(max_examples=500, deadline=None)
    @given(text)
    @example("2^99999999")
    @example("1e308^2")
    @example("(1e308)^2*theta_1")
    @example("t^" + "9" * 5000)
    def test_parse_gives_expr_or_expr_error(self, text):
        """Any text of parser tokens parses to an expression or raises
        ExprError; never another exception."""
        try:
            e = ex.parse(text, 1)
        except ex.ExprError:
            return
        assert isinstance(e, EXPR_TYPES)
