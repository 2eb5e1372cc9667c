"""The four benchmark workloads.

A workload draws its input constants from the seed, names the `cf` calls
of one job, prepares input files, and checks a job's outputs against a
reference computed apart from cfpde or against a property the method
must have.  Sizes are fixed per size set, so the cost of a job does not
depend on the seed; `TINY` sizes exist for the smoke test only.

Constants are drawn from narrow ranges that exclude the special values
1, 2 and 0.5.  The ranges are narrow because the deviation from the
reference scales with powers of the constants (about the eighth power
for the truncated variable-velocity series), and `max_abs_err` must be
comparable between seeds.  Special values are excluded because
`Const(1)` simplifies away and would make a job cheaper on some seeds.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import references as ref

TWO_PI = repr(2 * math.pi)

FULL = "full"
TINY = "tiny"


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def read_field(path: Path, shape: tuple[int, ...]):
    """Columns and complex values of a `cf` CSV field, reshaped to the
    grid (theta axes first, time last)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = math.prod(shape)
    if data.shape[0] != n:
        raise ValueError(f"{path.name}: {data.shape[0]} rows, expected {n}")
    cols = [data[:, k].reshape(shape) for k in range(data.shape[1] - 2)]
    values = (data[:, -2] + 1j * data[:, -1]).reshape(shape)
    return cols, values


def _draw(name: str, seed: int, ranges: dict[str, tuple[float, float]]):
    rng = random.Random(f"{name}/{seed}")
    return {k: round(rng.uniform(a, b), 6) for k, (a, b) in ranges.items()}


def _num(x: float) -> str:
    return repr(float(x))


def _within(name: str, err: float, tol: float) -> Check:
    return Check(name, bool(err <= tol), f"{err:.3e} <= {tol:.3e}")


class Workload:
    """One workload at one seed and one size set."""

    name = ""
    ranges: dict[str, tuple[float, float]] = {}
    sizes: dict[str, dict[str, int]] = {}

    def __init__(self, seed: int, size: str = FULL):
        self.c = _draw(self.name, seed, self.ranges)
        self.n = self.sizes[size]

    def prepare(self, inputs: Path, runner) -> None:
        """Write the job's input files; most workloads read none."""

    def job(self, inputs: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, out: Path) -> list[Path]:
        """Files a job writes that must repeat byte for byte."""
        raise NotImplementedError

    def verify(self, inputs: Path, out: Path, runner) -> tuple[float, list[Check]]:
        """The largest deviation from the reference, and the checks."""
        raise NotImplementedError

    def dt(self) -> float:
        return self.n["t_end"] / (self.n["nt"] - 1)

    def grid_1d(self, a: str, b: str) -> str:
        return f"{a}:{b}:{self.n['ntheta']},0:{self.n['t_end']}:{self.n['nt']}"


class TransportGrid(Workload):
    """Constant-velocity transport on a fine grid with a long series."""

    name = "transport-grid"
    ranges = {"V": (1.01, 1.05), "omega": (2.01, 2.09)}
    sizes = {FULL: {"N": 24, "ntheta": 257, "nt": 513, "t_end": 1},
             TINY: {"N": 12, "ntheta": 17, "nt": 33, "t_end": 1}}

    def job(self, inputs, out):
        return [["solve", "transport", "--V", _num(self.c["V"]),
                 "--y0", "sin(theta_1)",
                 "--u", f"t*sin({_num(self.c['omega'])}*theta_1)",
                 "--N", str(self.n["N"]), "--grid", self.grid_1d("0", TWO_PI),
                 "--out", str(out / "y.csv")]]

    def outputs(self, out):
        return [out / "y.csv"]

    def verify(self, inputs, out, runner):
        (theta, t), y = read_field(out / "y.csv", (self.n["ntheta"], self.n["nt"]))
        err = float(np.max(np.abs(
            y - ref.transport_closed_form(theta, t, self.c["V"], self.c["omega"]))))
        return err, [_within("closed form", err, self.dt() ** 2)]


class VariableVelocity(Workload):
    """Transport with V = scale (1 + theta^2): coefficient growth."""

    name = "variable-velocity"
    ranges = {"scale": (1.001, 1.007), "omega_y0": (1.001, 1.007),
              "omega_u": (1.01, 1.05)}
    sizes = {FULL: {"N": 7, "ntheta": 65, "nt": 129, "t_end": 0.1},
             TINY: {"N": 5, "ntheta": 9, "nt": 17, "t_end": 0.1}}

    def job(self, inputs, out):
        # "--grid=" because argparse reads a value starting with "-" as
        # an option.
        return [["solve", "transport",
                 "--V", f"{_num(self.c['scale'])}*(1+theta_1^2)",
                 "--y0", f"sin({_num(self.c['omega_y0'])}*theta_1)",
                 "--u", f"t*cos({_num(self.c['omega_u'])}*theta_1)",
                 "--N", str(self.n["N"]),
                 "--grid=" + self.grid_1d("-0.5", "0.5"),
                 "--out", str(out / "y.csv")]]

    def outputs(self, out):
        return [out / "y.csv"]

    def verify(self, inputs, out, runner):
        (theta, t), y = read_field(out / "y.csv", (self.n["ntheta"], self.n["nt"]))
        exact = ref.variable_velocity_characteristics(
            theta, t, self.c["scale"], self.c["omega_y0"], self.c["omega_u"])
        err = float(np.max(np.abs(y - exact)))
        return err, [_within("characteristics", err, self.dt() ** 2)]


class SecondOrderForms(Workload):
    """One second-order problem solved in all three series forms."""

    name = "second-order-forms"
    forms = ("direct", "cascade", "partial-fraction")
    ranges = {"root1": (1.005, 1.025), "root2": (-2.025, -2.005),
              "k": (1.005, 1.025)}
    sizes = {FULL: {"N": 20, "ntheta": 129, "nt": 513, "t_end": 1},
             TINY: {"N": 12, "ntheta": 17, "nt": 33, "t_end": 1}}

    def alphas(self):
        # (mu - root1)(mu - root2) = mu^2 + alpha1 mu + alpha2: real,
        # distinct characteristic speeds.
        r1, r2 = self.c["root1"], self.c["root2"]
        return -(r1 + r2), r1 * r2

    def job(self, inputs, out):
        a1, a2 = self.alphas()
        k = _num(self.c["k"])
        return [["solve", "second-order", "--alpha1", _num(a1),
                 "--alpha2", _num(a2), "--y0", f"sin({k}*theta_1)",
                 "--y1", f"cos({k}*theta_1)", "--u", f"sin({k}*theta_1)",
                 "--N", str(self.n["N"]), "--grid", self.grid_1d("0", TWO_PI),
                 "--form", form, "--out", str(out / f"{form}.csv")]
                for form in self.forms]

    def outputs(self, out):
        return [out / f"{form}.csv" for form in self.forms]

    def verify(self, inputs, out, runner):
        a1, a2 = self.alphas()
        shape = (self.n["ntheta"], self.n["nt"])
        fields = {}
        checks = []
        err = 0.0
        for form in self.forms:
            (theta, t), y = read_field(out / f"{form}.csv", shape)
            e = float(np.max(np.abs(
                y - ref.second_order_fourier(theta, t, a1, a2, self.c["k"]))))
            checks.append(_within(f"Fourier modes ({form})", e, self.dt() ** 2))
            fields[form] = y
            err = max(err, e)
        # The forms are one series in three representations evaluated by
        # the same quadrature, so they differ by rounding only.
        scale = max(1.0, max(float(np.max(np.abs(y))) for y in fields.values()))
        spread = max(float(np.max(np.abs(fields[f] - fields["direct"])))
                     for f in self.forms[1:])
        checks.append(_within("forms agree", spread, 1e-9 * scale))
        return err, checks


class ParallelProduct2D(Workload):
    """Shuffle product of two transport series on a 2-D parameter space."""

    name = "parallel-product-2d"
    ranges = {"V1": (1.01, 1.05), "V2": (0.51, 0.55),
              "omega1": (1.01, 1.05), "omega2": (1.01, 1.05)}
    sizes = {FULL: {"N": 3, "ntheta": 17, "nt": 65, "t_end": 1},
             TINY: {"N": 2, "ntheta": 5, "nt": 17, "t_end": 1}}

    def grid(self) -> str:
        n = self.n
        return f"0:1:{n['ntheta']},0:1:{n['ntheta']},0:{n['t_end']}:{n['nt']}"

    def binds(self):
        return {"c": ["--bind", f"1=t*sin({_num(self.c['omega1'])}*theta_1)"],
                "d": ["--bind", f"2=t*cos({_num(self.c['omega2'])}*theta_2)"]}

    def prepare(self, inputs, runner):
        runner.run([sys.executable, str(Path(__file__).with_name("make_series.py")),
                    str(inputs), _num(self.c["V1"]), _num(self.c["V2"]),
                    str(self.n["N"])])

    def job(self, inputs, out):
        b = self.binds()
        return [["algebra", "shuffle", "--left", str(inputs / "c.series"),
                 "--right", str(inputs / "d.series"),
                 "--out", str(out / "p.series")],
                ["eval", "--series", str(out / "p.series"), *b["c"], *b["d"],
                 "--grid", self.grid(), "--out", str(out / "p.csv")]]

    def outputs(self, out):
        return [out / "p.series", out / "p.csv"]

    def verify(self, inputs, out, runner):
        b = self.binds()
        for part in ("c", "d"):
            runner.cf(["eval", "--series", str(inputs / f"{part}.series"),
                       *b[part], "--grid", self.grid(),
                       "--out", str(out / f"{part}.csv")])
        n = self.n
        shape = (n["ntheta"], n["ntheta"], n["nt"])
        _, p = read_field(out / "p.csv", shape)
        _, fc = read_field(out / "c.csv", shape)
        _, fd = read_field(out / "d.csv", shape)
        err = float(np.max(np.abs(p - fc * fd)))
        # E_u E_v = E_{u shuffle v} holds exactly for exact integrals; the
        # trapezoid rule breaks it at O(dt^2).
        checks = [_within("shuffle morphism", err, self.dt() ** 2)]

        # Imported here: run.py puts src/ on the path once it has found it.
        from cfpde import series as se
        text = (out / "p.series").read_text()
        p_series = se.series_from_text(text)
        again = se.series_to_text(p_series)
        checks.append(Check("text round trip",
                            again == text and se.series_from_text(again) == p_series,
                            f"{len(p_series.coeffs)} words"))
        return err, checks


WORKLOADS = {w.name: w for w in
             (TransportGrid, VariableVelocity, SecondOrderForms, ParallelProduct2D)}
