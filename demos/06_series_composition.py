"""Series (cascade) interconnections and geometric operator inverses.

Composing F_c after F_d is again a series when c is linear; the word
x0^k x_c composed into x0^l x_d lands on x0^(k+l+1) x_d with the operator
product as coefficient.  The geometric inverse I + R of the forward
operator I + F = I + beta d/dtheta E_{x1} cancels it exactly:
(I + R)(I + F) = I reads R + F + R o F = 0.
"""

import numpy as np

from cfpde import diffop as do
from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde import series as se
from cfpde.words import Word, word


def main():
    theta = ex.var("theta_1")
    c = se.series_from_coeffs(1, {word("x1"): do.monomial(theta, (1,))})
    d = se.series_from_coeffs(1, {word("x2"): do.monomial(
        ex.intpow(theta, 2), (1,))})
    cd = se.compose(c, d)
    print("composite:", {w.text(): str(op) for w, op in cd.coeffs.items()})

    # numeric check: composite map == outer applied to the inner output
    grid = ii.Grid(((0.2, 1.2, 201),), 1.0, 201)
    u = ii.InputSignal.symbolic(ex.parse("t*sin(theta_1)", 1))
    direct = ii.evaluate_series(cd, {2: u}, grid)
    inner = ii.evaluate_series(d, {2: u}, grid)
    outer = ii.evaluate_series(c, {1: ii.InputSignal.sampled(inner)}, grid)
    print(f"cascade error: {np.max(np.abs(direct.values - outer.values)):.2e}")

    # cascading two transports stacks the drift prefixes
    t1 = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=3))
    t2 = se.relabel_letters(pde.transport_series(pde.TransportSpec(
        V=2.0, y0=0, N=3)), {word("x1")[0]: word("x2")[0]})
    stacked = se.compose(t1, t2)
    print("cascaded transports:", [w.text() for w in stacked.sorted_words()][:5])

    # geometric inverse: (I + R)(I + F) = I, so R + F + R o F = 0
    residual = pde.first_order_residual(1.5, 8)
    print("R + F + R o F =", {w.text(): str(op)
                              for w, op in residual.coeffs.items()})


if __name__ == "__main__":
    main()
