"""Convergence certificates for linear one-parameter series.

Coefficient growth K_alpha M^k (k!)^s against input-derivative growth
K_u R^k.  The tail past a truncation N is bounded by one sum for every
0 <= s <= 1: with s = 1 it converges when M R T < 1 (the geometric
criterion, in closed form); with s < 1 any finite domain works.  So a
numeric evaluation ships with an error certificate.
"""

import dataclasses

import numpy as np

from cfpde import bounds as bd
from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde


def main():
    print("Hoelder prefactor at (i,j)=(1,1), T=1:",
          bd.holder_bound(1, 1, 1.0, 1.0), "<= 1/2! (K_E = 1)")

    half = bd.GrowthData(K_alpha=1, M=1, K_u=1, R=0.5, s=1, T=1)
    print("geometric regime, MRT = 1/2: full series", bd.gevrey_tail(half, -1),
          " tail past N=3", bd.gevrey_tail(half, 3))

    # fit the constants of the transport test case from data
    grid = ii.Grid.from_spec("0:6.283185307179586:257,0:1:513")
    u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
    c = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=16))
    input_fit = bd.estimate_growth(u, grid, k_max=8)
    coeff_fit = bd.estimate_growth(c, grid, k_max=8)
    print(f"input fit      : K_u={input_fit.data.K_u:.4f} "
          f"R={input_fit.data.R:.4f} (residual {input_fit.residual:.1e})")
    print(f"coefficient fit: K_alpha={coeff_fit.data.K_alpha:.4f} "
          f"M={coeff_fit.data.M:.4f} s={coeff_fit.data.s:.4f}")

    g = dataclasses.replace(coeff_fit.data, K_u=input_fit.data.K_u, R=input_fit.data.R)
    for n in (4, 8, 12):
        cn = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=n))
        yn = ii.evaluate_series(cn, u, grid)
        y16 = ii.evaluate_series(c, u, grid)
        measured = np.max(np.abs(yn.values - y16.values))
        print(f"N={n:2d}: measured tail {measured:.2e}  <=  "
              f"certificate {bd.gevrey_tail(g, n):.2e}")


if __name__ == "__main__":
    main()
