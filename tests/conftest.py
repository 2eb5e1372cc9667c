import numpy as np
import pytest

from cfpde import expr as ex


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def eval_at(e, **bindings):
    return complex(ex.evaluate(e, bindings))


def exprs_equal(a, b, points, tol=1e-12):
    """Evaluation-based expression equality at the given binding dicts."""
    for bindings in points:
        va = complex(ex.evaluate(a, bindings))
        vb = complex(ex.evaluate(b, bindings))
        if abs(va - vb) > tol * (1 + max(abs(va), abs(vb))):
            return False
    return True


def theta_points(rng, n=10, dim=1, low=0.3, high=2.3):
    pts = rng.uniform(low, high, size=(n, dim))
    return [{f"theta_{k + 1}": pts[i, k] for k in range(dim)} for i in range(n)]


def random_expr(rng, dim=1, max_depth=3, allow_t=True):
    """Small random expression; safe to evaluate and differentiate on
    (0.3, 2.3)^d x [0, 1]."""
    leaves = [lambda: ex.const(round(rng.uniform(-2, 2), 3))]
    for k in range(dim):
        leaves.append(lambda k=k: ex.var(f"theta_{k + 1}"))
    if allow_t:
        leaves.append(lambda: ex.var("t"))

    def build(depth):
        if depth == 0 or rng.uniform() < 0.25:
            return leaves[rng.integers(len(leaves))]()
        kind = rng.integers(6)
        if kind == 0:
            return ex.add(build(depth - 1), build(depth - 1))
        if kind == 1:
            return ex.mul(build(depth - 1), build(depth - 1))
        if kind == 2:
            return ex.neg(build(depth - 1))
        if kind == 3:
            return ex.sin(build(depth - 1))
        if kind == 4:
            return ex.cos(build(depth - 1))
        return ex.intpow(build(depth - 1), int(rng.integers(2, 4)))

    return build(max_depth)
