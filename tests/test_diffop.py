import math

import pytest

from cfpde import diffop as do
from cfpde import expr as ex
from cfpde import series as se
from conftest import exprs_equal, random_expr, theta_points

THETA = ex.var("theta_1")


def random_operator(rng, dim=1, max_order=2):
    """Random operator with polynomial/trig coefficients, degree <= 2."""
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        alpha = tuple(int(rng.integers(0, max_order + 1)) for _ in range(dim))
        kind = rng.integers(3)
        c = round(rng.uniform(-2, 2), 3)
        if kind == 0:
            coeff = ex.const(c)
        elif kind == 1:
            coeff = ex.mul(c, ex.intpow(ex.var("theta_1"), int(rng.integers(1, 3))))
        else:
            coeff = ex.mul(c, ex.sin(ex.var("theta_1")))
        terms[alpha] = ex.add(terms.get(alpha, ex.ZERO), coeff)
    return do.DiffOp(dim, terms)


class TestApply:
    def test_theta_d_on_theta_squared(self, rng):
        A = do.monomial(THETA, (1,))
        got = do.op_apply(A, ex.intpow(THETA, 2))
        assert exprs_equal(got, ex.mul(2, ex.intpow(THETA, 2)), theta_points(rng))

    def test_identity(self):
        f = ex.sin(ex.mul(2, THETA))
        assert do.op_apply(do.identity(1), f) == ex.simplify(f)

    def test_repeated_transport_step_on_sine(self, rng):
        # oracle: (-V d/dtheta)^2 sin(omega theta) = -V^2 omega^2 sin(omega theta)
        V, omega = 2.0, 3.0
        op = do.op_pow(do.op_scale(ex.const(-V), do.partial(1)), 2)
        applied = do.op_apply(op, ex.sin(ex.mul(omega, THETA)))
        for point in theta_points(rng):
            want = -V ** 2 * omega ** 2 * math.sin(omega * point["theta_1"])
            assert abs(ex.evaluate(applied, point) - want) <= 1e-12 * (1 + abs(want))

    def test_dimension_mismatch(self):
        with pytest.raises(do.DimensionMismatch):
            do.op_apply(do.identity(1), ex.var("theta_2"))


class TestProduct:
    def test_simple_cascade_product(self, rng):
        # oracle: apply both sides to test functions and compare
        A = do.monomial(THETA, (1,))
        B = do.monomial(ex.intpow(THETA, 2), (1,))
        AB = do.op_mul(A, B)
        funcs = [THETA, ex.intpow(THETA, 2), ex.sin(THETA)]
        pts = theta_points(rng)
        for f in funcs:
            assert exprs_equal(do.op_apply(AB, f),
                               do.op_apply(A, do.op_apply(B, f)), pts)
        expected = do.op_add(do.monomial(ex.mul(2, ex.intpow(THETA, 2)), (1,)),
                             do.monomial(ex.intpow(THETA, 3), (2,)))
        assert AB == expected

    def test_leibniz_rule(self):
        got = do.op_mul(do.partial(1), do.from_expr(THETA, 1))
        assert got == do.DiffOp(1, {(0,): ex.ONE, (1,): THETA})

    def test_constant_coefficients_commute(self):
        A = do.monomial(ex.const(2), (1,))
        B = do.monomial(ex.const(3), (2,))
        assert do.op_mul(A, B) == do.monomial(ex.const(6), (3,))
        assert do.op_mul(A, B) == do.op_mul(B, A)

    def test_morphism_law(self, rng):
        pts = theta_points(rng)
        for _ in range(50):
            A = random_operator(rng)
            B = random_operator(rng)
            AB = do.op_mul(A, B)
            for _ in range(5):
                f = random_expr(rng, max_depth=2, allow_t=False)
                lhs = do.op_apply(AB, f)
                rhs = do.op_apply(A, do.op_apply(B, f))
                assert exprs_equal(lhs, rhs, pts, tol=1e-9)

    def test_associativity(self, rng):
        pts = theta_points(rng)
        f = ex.sin(THETA)
        for _ in range(10):
            A, B, C = (random_operator(rng) for _ in range(3))
            lhs = do.op_mul(do.op_mul(A, B), C)
            rhs = do.op_mul(A, do.op_mul(B, C))
            assert exprs_equal(do.op_apply(lhs, f), do.op_apply(rhs, f),
                               pts, tol=1e-9)

    def test_weyl_relation(self, rng):
        # [D, theta] acts as the identity
        D = do.partial(1)
        M = do.from_expr(THETA, 1)
        commutator = do.op_add(do.op_mul(D, M), do.op_neg(do.op_mul(M, D)))
        pts = theta_points(rng)
        for f in (THETA, ex.intpow(THETA, 2), ex.sin(THETA)):
            assert exprs_equal(do.op_apply(commutator, f), ex.simplify(f),
                               pts, tol=1e-12)


class TestRingOps:
    def test_pow_zero_is_identity(self):
        A = do.op_scale(ex.const(-2), do.partial(1))
        assert do.op_pow(A, 0) == do.identity(1)

    def test_pow_two_cancels_sign(self):
        A = do.op_scale(ex.const(-2.0), do.partial(1))
        assert do.op_pow(A, 2) == do.monomial(ex.const(4.0), (2,))

    def test_add_to_zero(self):
        A = do.monomial(THETA, (1,))
        assert do.op_add(A, do.op_neg(A)).is_zero()

    def test_symbolic_cancellation_pruned(self):
        # theta*sin(theta) - theta*sin(theta) has no closed simplification
        # path but evaluates to zero everywhere, so the term is dropped
        c = ex.mul(THETA, ex.sin(THETA))
        A = do.DiffOp(1, {(1,): ex.add(c, ex.neg(c))})
        assert A.is_zero()

    def test_degree_cap(self):
        with pytest.raises(do.DiffOpError, match="cap"):
            do.monomial(ex.ONE, (65,))

    @pytest.mark.parametrize("text", ["t^2*theta_1", "sin(t)*theta_1", "exp(theta_1*t)"],
                             ids=["power", "sin", "exp"])
    @pytest.mark.parametrize("way", ["from_expr", "monomial", "op_scale", "op_apply",
                                     "series_from_text"])
    def test_time_dependent_coefficient_rejected(self, way, text):
        """No layout flag tells a t-free Poly from another, so every way
        into an operator checks for t, as a power or inside an atom."""
        coeff = ex.parse(text, 1)
        build = {
            "from_expr": lambda: do.from_expr(coeff, 1),
            "monomial": lambda: do.monomial(coeff, (1,)),
            "op_scale": lambda: do.op_scale(coeff, do.partial(1)),
            "op_apply": lambda: do.op_apply(do.partial(1), coeff),
            "series_from_text": lambda: se.series_from_text(
                f"dim=1 maxlen=1 alphabet=x0,x1\nx1 :: {text} * D[0]\n"),
        }[way]
        with pytest.raises((do.DiffOpError, se.SeriesError), match="depend on t"):
            build()


class TestFormat:
    def test_identity_prints_with_zero_index(self):
        assert do.identity(2).text() == "1 * D[0,0]"

    def test_sum_of_terms(self):
        A = do.DiffOp(1, {(0,): ex.ONE, (1,): THETA})
        assert A.text() == "1 * D[0] + theta_1 * D[1]"

    def test_parenthesized_sum_coefficient(self):
        A = do.DiffOp(1, {(1,): ex.add(ex.ONE, THETA)})
        assert A.text() == "(theta_1 + 1) * D[1]"

    def test_text_reads_back(self, rng):
        for op in [do.identity(2), do.zero(1), do.DiffOp(1, {(1,): ex.add(ex.ONE, THETA)}),
                   *(random_operator(rng, dim=2) for _ in range(20))]:
            assert do.from_text(op.text(), op.dim) == op

    @pytest.mark.parametrize("text, message", [
        ("1 * D[0] + 2 * D[0]", "D\\[0\\] is given twice"),
        ("1 * D[0] + 2 * D[00]", "D\\[00\\] is given twice"),
        ("1 * D[a]", "bad operator term"),
        ("1 * D[0] + D[1]", "bad operator term 'D\\[1\\]'"),
        ("1 * D[0,0]", "bad multi-index"),
        ("1 * D[0] * D[1]", "bad operator term"),
    ])
    def test_malformed_text(self, text, message):
        with pytest.raises(do.DiffOpError, match=message):
            do.from_text(text, 1)
