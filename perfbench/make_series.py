"""Write the two dim-2 transport series of the parallel-product-2d
workload with the cfpde library.

    python make_series.py OUT_DIR V1 V2 N

c.series: V1 on theta_1 with input letter x1, y0 = sin(theta_1).
d.series: V2 on theta_2 with input letter x2, y0 = cos(theta_2), built
on one parameter and moved with `embed` and `relabel_letters`.
"""

import sys
from pathlib import Path

from cfpde import expr as ex
from cfpde import pde
from cfpde import series as se
from cfpde.words import Letter


def transport(v: str, y0: str, n: int):
    return pde.transport_series(
        pde.TransportSpec(ex.parse(v, 1), ex.parse(y0, 1), n))


def main(argv):
    out, v1, v2, n = Path(argv[0]), argv[1], argv[2], int(argv[3])
    out.mkdir(parents=True, exist_ok=True)
    c = se.embed(transport(v1, "sin(theta_1)", n), 2, 0)
    d = se.relabel_letters(se.embed(transport(v2, "cos(theta_1)", n), 2, 1),
                           {Letter(1): Letter(2)})
    se.save_series(c, out / "c.series")
    se.save_series(d, out / "d.series")


if __name__ == "__main__":
    main(sys.argv[1:])
