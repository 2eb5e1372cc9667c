"""Series solution of the transport problem
    dy/dt + V dy/dtheta = u,    y(theta, 0) = y0(theta).

The generating series carries (-V d/dtheta)^k y0 on the drift words and
the composed operators (-V d/dtheta)^k on the input words.  For V = 1 and
u = t sin(2 theta) the evaluated map has a closed form to compare with.

    python demos/04_transport_equation.py [OUT_DIR]

writes transport_solution.csv and transport.series into OUT_DIR, or into
a temporary directory that is removed on exit when none is given.
"""

import os
import sys
import tempfile

import numpy as np

from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde import series as se


def main(out_dir=None):
    spec = pde.TransportSpec(V=1.0, y0=ex.parse("sin(theta_1)", 1), N=14)
    c = pde.transport_series(spec)
    print("series:", c)
    print("first few coefficients:")
    for w in c.sorted_words()[:6]:
        print(f"  {w.text():10s} :: {c.coefficient(w)}")

    grid = ii.Grid.from_spec("0:6.283185307179586:257,0:1:513")
    u = ii.InputSignal.symbolic(ex.parse("t*sin(2*theta_1)", 1))
    y = ii.evaluate_series(c, u, grid)

    th = grid.theta_points(0)[:, None]
    t = grid.t_points[None, :]
    forced = (np.sin(2 * (t - th)) + np.sin(2 * th)
              - 2 * t * np.cos(2 * th)) / 4.0
    exact = np.sin(th - t) + forced
    interior = (th - t >= 0) & (th - t <= 2 * np.pi)
    err = np.max(np.abs((y.values - exact)[interior]))
    print(f"max error against the closed form: {err:.2e}")

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = out_dir or tmp
        with open(os.path.join(out_dir, "transport_solution.csv"), "w") as fh:
            ii.write_csv(y, fh)
        se.save_series(c, os.path.join(out_dir, "transport.series"))
        print(f"wrote transport_solution.csv and transport.series to {out_dir}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
