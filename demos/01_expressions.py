"""The symbolic expression layer: parsing, differentiation, evaluation.

Coefficient functions and symbolic input signals are canonical sparse
polynomials (``Poly``) in t, theta_1..theta_d and sin/cos/exp atoms:
``parse`` builds one directly, and the form is closed under
differentiation.
"""

import math

from cfpde import expr as ex


def main():
    u = ex.parse("t*sin(2*theta_1)", dim=1)
    print("parsed      :", ex.to_string(u))

    du = ex.differentiate(u, "theta_1")
    d3u = ex.differentiate(u, "theta_1", 3)
    print("d/dtheta    :", ex.to_string(du))
    print("d^3/dtheta^3:", ex.to_string(d3u))

    value = ex.evaluate(u, {"t": 0.5, "theta_1": math.pi / 4})
    print("u(pi/4, 0.5):", value.real)

    # printing is a fixed point through the parser
    printed = ex.to_string(du)
    again = ex.to_string(ex.parse(printed, dim=1))
    print("round trip  :", printed == again)

    # complex constants are first class (used by partial fractions)
    z = ex.parse("(1+2i)*theta_1^2", dim=1)
    print("complex eval:", ex.evaluate(z, {"theta_1": 3.0}))


if __name__ == "__main__":
    main()
