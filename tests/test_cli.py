import argparse
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cfpde import cli
from cfpde import diffop as do
from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde import series as se
from cfpde.words import word

GRID = "0:6.283185307179586:65,0:1:129"


def run(argv):
    return cli.main(argv)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def write_series(path, c):
    se.save_series(c, path)
    return str(path)


@pytest.fixture
def transport_files(tmp_path):
    left = pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=3))
    right = se.relabel_letters(
        pde.transport_series(pde.TransportSpec(V=2.0, y0=0, N=3)),
        {word("x1")[0]: word("x2")[0]})
    return (write_series(tmp_path / "c.series", left),
            write_series(tmp_path / "d.series", right))


class TestSolve:
    def test_transport_csv_and_report(self, tmp_path, capsys):
        out = tmp_path / "y.csv"
        code = run(["solve", "transport", "--V", "1", "--y0", "sin(theta_1)",
                    "--u", "t*sin(2*theta_1)", "--N", "16",
                    "--grid", GRID, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta_1,t,re,im"
        assert len(lines) == 1 + 65 * 129
        report = read_report(str(out) + ".report.json")
        assert report["command"] == "cf solve transport"
        assert report["truncation"] == 16
        assert report["bound"]["tail"] > 0
        assert set(report) == {"command", "params", "truncation", "bound",
                               "runtime_ms"}

    def test_transport_matches_closed_form(self, tmp_path):
        out = tmp_path / "y.csv"
        run(["solve", "transport", "--V", "1", "--y0", "0",
             "--u", "t*sin(2*theta_1)", "--N", "14",
             "--grid", GRID, "--out", str(out)])
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        th, t, re = rows[:, 0], rows[:, 1], rows[:, 2]
        exact = (np.sin(2 * (t - th)) + np.sin(2 * th)
                 - 2 * t * np.cos(2 * th)) / 4.0
        assert np.max(np.abs(re - exact)) <= 1e-4

    def test_wave_solver(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run(["solve", "wave", "--u", "sin(theta_1)", "--N", "11",
                    "--grid", GRID, "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        th, t, re = rows[:, 0], rows[:, 1], rows[:, 2]
        assert np.max(np.abs(re - np.sin(th) * (1 - np.cos(t)))) <= 1e-4

    def test_second_order_solver_matches_wave(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        common = ["--u", "sin(theta_1)", "--N", "11", "--grid", GRID]
        assert run(["solve", "wave", *common, "--out", str(a)]) == 0
        assert run(["solve", "second-order", "--alpha1", "0", "--alpha2", "-1",
                    "--form", "partial-fraction", *common, "--out", str(b)]) == 0
        va = np.loadtxt(a, delimiter=",", skiprows=1)
        vb = np.loadtxt(b, delimiter=",", skiprows=1)
        assert np.max(np.abs(va - vb)) <= 1e-12

    def test_determinism(self, tmp_path):
        outs = []
        reports = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(["solve", "transport", "--V", "1", "--y0", "0",
                 "--u", "t*sin(2*theta_1)", "--N", "8",
                 "--grid", GRID, "--out", str(out)])
            outs.append(out.read_bytes())
            report = read_report(str(out) + ".report.json")
            report.pop("runtime_ms")
            reports.append(report)
        assert outs[0] == outs[1]
        assert reports[0] == reports[1]

    def test_bad_expression_is_validation_failure(self, tmp_path):
        code = run(["solve", "transport", "--V", "1", "--y0", "0",
                    "--u", "t*sin(2*theta_9)", "--N", "4",
                    "--grid", GRID, "--out", str(tmp_path / "y.csv")])
        assert code == 1


class TestAlgebra:
    def test_sum_and_truncate_roundtrip(self, tmp_path, transport_files):
        left, right = transport_files
        out = tmp_path / "sum.series"
        assert run(["algebra", "sum", "--left", left, "--right", right,
                    "--out", str(out)]) == 0
        total = se.load_series(out)
        assert word("x1") in total.coeffs and word("x2") in total.coeffs
        cut = tmp_path / "cut.series"
        assert run(["algebra", "truncate", "--series", str(out), "--N", "1",
                    "--out", str(cut)]) == 0
        assert se.load_series(cut).max_len == 1

    def test_shuffle_overlapping_support_exits_one(self, tmp_path, capsys):
        c = se.series_from_coeffs(1, {word("x1"): do.monomial(ex.ONE, (1,))})
        d = se.series_from_coeffs(1, {word("x2"): do.monomial(ex.ONE, (1,))})
        left = write_series(tmp_path / "c.series", c)
        right = write_series(tmp_path / "d.series", d)
        code = run(["algebra", "shuffle", "--left", left, "--right", right,
                    "--out", str(tmp_path / "out.series")])
        assert code == 1
        assert "OverlappingSupport" in capsys.readouterr().err

    def test_compose_nonlinear_exits_one(self, tmp_path, capsys):
        c = se.series_from_coeffs(1, {word("x1", "x1"): do.identity(1)})
        d = se.series_from_coeffs(1, {word("x2"): do.identity(1)})
        left = write_series(tmp_path / "c.series", c)
        right = write_series(tmp_path / "d.series", d)
        code = run(["algebra", "compose", "--left", left, "--right", right,
                    "--out", str(tmp_path / "out.series")])
        assert code == 1
        assert "NotLinear" in capsys.readouterr().err

    def test_compose_writes_result(self, tmp_path, transport_files):
        left, right = transport_files
        out = tmp_path / "cd.series"
        assert run(["algebra", "compose", "--left", left, "--right", right,
                    "--out", str(out)]) == 0
        got = se.load_series(out)
        assert word("x0", "x2") in got.coeffs

    def test_shift(self, tmp_path, transport_files):
        left, _ = transport_files
        out = tmp_path / "shifted.series"
        assert run(["algebra", "shift", "--letter", "x0", "--series", left,
                    "--out", str(out)]) == 0
        got = se.load_series(out)
        assert word("x1") in got.coeffs  # x0 x1 shifted down


class TestEval:
    def test_eval_series_file(self, tmp_path):
        c = se.series_from_coeffs(1, {word("x1"): do.identity(1)})
        path = write_series(tmp_path / "c.series", c)
        out = tmp_path / "y.csv"
        assert run(["eval", "--series", path, "--u", "1", "--grid",
                    "0:1:17,0:1:33", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 2] - rows[:, 1])) < 1e-14  # y = t

    def test_pole_is_numeric_failure(self, tmp_path):
        c = se.series_from_coeffs(1, {word("x1"): do.identity(1)})
        path = write_series(tmp_path / "c.series", c)
        code = run(["eval", "--series", path, "--u", "theta_1^-1",
                    "--grid", "0:1:17,0:1:33", "--out", str(tmp_path / "y.csv")])
        assert code == 2


class TestBounds:
    def test_check_geometric(self, capsys):
        assert run(["bounds", "check", "--K-alpha", "1", "--M", "1",
                    "--K-u", "1", "--R", "0.5", "--s", "1",
                    "--T", "1", "--length", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converges"] is True
        assert payload["bound"] == 4.0

    def test_check_gevrey_tail(self, capsys):
        assert run(["bounds", "check", "--K-alpha", "1", "--M", "1",
                    "--K-u", "1", "--R", "1", "--s", "0",
                    "--T", "1", "--length", "1", "--N", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converges"] is True
        assert payload["tail_at_N"]["-1"] == pytest.approx(2 * math.e, abs=1e-12)

    def test_estimate_from_input(self, capsys):
        assert run(["bounds", "estimate", "--u", "t*sin(2*theta_1)",
                    "--grid", "0:6.283185307179586:257,0:1:129",
                    "--k-max", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["constants"]["R"] == pytest.approx(2.0, rel=0.05)

    def test_invalid_constants_exit_one(self, capsys):
        assert run(["bounds", "check", "--K-alpha", "-1", "--M", "1",
                    "--K-u", "1", "--R", "1", "--s", "0",
                    "--T", "1", "--length", "1"]) == 1


class TestVerify:
    def test_verify_single_fast_criterion(self, capsys):
        assert run(["verify", "--only", "8"]) == 0
        out = capsys.readouterr().out
        assert "PASS criterion 8" in out

    def test_bad_only_flag(self, capsys):
        assert run(["verify", "--only", "abc"]) == 1


class TestOutputFiles:
    def test_mode_follows_umask(self, tmp_path):
        out = tmp_path / "y.csv"
        old = os.umask(0o027)
        try:
            code = run(["solve", "transport", "--V", "1", "--u", "t", "--N", "2",
                        "--grid", "0:1:5,0:1:5", "--out", str(out)])
        finally:
            os.umask(old)
        assert code == 0
        for path in (out, tmp_path / "y.csv.report.json"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o640


class TestArgumentValidation:
    def test_negative_grid_bound_as_separate_argument(self, tmp_path):
        out = tmp_path / "y.csv"
        assert run(["solve", "transport", "--V", "1", "--u", "t", "--N", "2",
                    "--grid", "-0.5:0.5:5,0:0.1:5", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[0, 0] == -0.5 and rows[-1, 0] == 0.5

    def test_non_numeric_grid_field_exits_one(self, tmp_path, capsys):
        assert run(["solve", "transport", "--V", "1", "--u", "t", "--N", "2",
                    "--grid", "0:1:abc,0:1:5", "--out", str(tmp_path / "y.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --grid") and err.count("\n") == 1

    def test_overflowing_grid_length_exits_one(self, tmp_path, capsys):
        """Both bounds are finite but b - a is inf: one line, no numpy
        warnings, no numeric failure."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["solve", "transport", "--V", "1", "--u", "t", "--N", "2",
                        "--grid=-1e308:1e308:5,0:1:5", "--out", str(tmp_path / "y.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --grid") and err.count("\n") == 1
        assert caught == []
        assert not (tmp_path / "y.csv").exists()

    def test_unknown_subcommand_exits_one(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert run(["solve", "transport", "--u", "t", "--N", "4",
                    "--grid", GRID]) == 1


class TestNumericLimits:
    @pytest.mark.parametrize("flag, value, what", [
        ("--u", "2^99999999", "input"), ("--y0", "1e999*theta_1", "--y0")])
    def test_constant_overflow_exits_one(self, tmp_path, capsys, flag, value, what):
        argv = {"--V": "1", "--u": "t", "--y0": "0", flag: value}
        code = run(["solve", "transport", *(x for kv in argv.items() for x in kv),
                    "--N", "2", "--grid", "0:1:5,0:1:5", "--out", str(tmp_path / "y.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {what} expression") and err.count("\n") == 1

    def test_grid_past_numpy_array_limit_exits_one(self, tmp_path, capsys):
        code = run(["solve", "transport", "--V", "1", "--u", "t", "--N", "2",
                    "--grid", "0:1:5,0:1:99999999999999999999",
                    "--out", str(tmp_path / "y.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --grid") and err.count("\n") == 1

    @pytest.mark.parametrize("error, text", [
        (MemoryError("Unable to allocate 8.00 TiB for an array"),
         "numeric failure: out of memory: Unable to allocate 8.00 TiB for an array\n"),
        (MemoryError(), "numeric failure: out of memory\n"),
    ])
    def test_memory_error_exits_two(self, tmp_path, monkeypatch, capsys, error, text):
        def exhausted(*args):
            raise error
        monkeypatch.setattr(ii, "evaluate_series", exhausted)
        code = run(["solve", "transport", "--V", "1", "--u", "t", "--N", "2",
                    "--grid", "0:1:5,0:1:5", "--out", str(tmp_path / "y.csv")])
        assert code == 2
        assert capsys.readouterr().err == text
        assert not (tmp_path / "y.csv").exists()

    def test_evaluation_error_in_handler_exits_one(self, monkeypatch, capsys):
        """An EvaluationError no handler catches itself keeps main()'s
        message for model errors."""
        from cfpde import bounds
        def failing(*args):
            raise ii.EvaluationError("no fit")
        monkeypatch.setattr(bounds, "estimate_growth", failing)
        assert run(["bounds", "estimate", "--u", "t", "--grid", "0:1:5,0:1:5"]) == 1
        assert capsys.readouterr().err == "error: EvaluationError: no fit\n"


# the directory holding the cfpde package under test
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _loaded_after(argvs, cwd):
    """The modules a fresh interpreter holds after cli.main(argv) for each
    argv in turn."""
    code = ("import json, sys\n"
            "from cfpde import cli\n"
            f"rc = max(cli.main(argv) for argv in {argvs!r})\n"
            "print(json.dumps([rc, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    return set(modules)


class TestStartup:
    """Each subcommand imports only the modules it runs."""

    def test_algebra_loads_no_numpy(self, tmp_path):
        """All five algebra subcommands, on the parallel product's inputs:
        transport series on theta_1 and on theta_2."""
        def transport(v, y0):
            return pde.transport_series(pde.TransportSpec(v, ex.parse(y0, 1), 3))
        c = write_series(tmp_path / "c.series",
                         se.embed(transport(1.0, "sin(theta_1)"), 2, 0))
        d = write_series(tmp_path / "d.series", se.relabel_letters(
            se.embed(transport(2.0, "cos(theta_1)"), 2, 1), {word("x1")[0]: word("x2")[0]}))
        out = str(tmp_path / "out.series")
        argvs = [["algebra", kind, "--left", c, "--right", d, "--out", out]
                 for kind in ("shuffle", "sum", "compose")]
        argvs += [["algebra", "shift", "--letter", "x1", "--series", c, "--out", out],
                  ["algebra", "truncate", "--series", c, "--N", "1", "--out", out]]
        loaded = _loaded_after(argvs, tmp_path)
        assert not loaded & {"numpy", "cfpde.iterint", "cfpde.bounds", "cfpde.pde"}
        assert "cfpde.series" in loaded

    def test_eval_loads_no_bounds_or_pde(self, tmp_path, transport_files):
        loaded = _loaded_after([["eval", "--series", transport_files[0], "--u", "t",
                                 "--grid", "0:1:5,0:1:5", "--out", str(tmp_path / "z.csv")]],
                               tmp_path)
        assert "cfpde.iterint" in loaded
        assert not loaded & {"cfpde.bounds", "cfpde.pde"}

    def test_second_order_solve_loads_no_bounds(self, tmp_path):
        loaded = _loaded_after([["solve", "second-order", "--alpha1", "0", "--alpha2", "-1",
                                 "--u", "sin(theta_1)", "--N", "2", "--grid", "0:1:5,0:1:5",
                                 "--out", str(tmp_path / "y.csv")]], tmp_path)
        assert "cfpde.pde" in loaded
        assert "cfpde.bounds" not in loaded

    def test_package_import_is_lazy(self, tmp_path):
        code = ("import sys\n"
                "import cfpde\n"
                "assert not [m for m in sys.modules if m.startswith('cfpde.')]\n"
                "assert 'numpy' not in sys.modules\n"
                "from cfpde import iterint\n"
                "assert cfpde.Grid is iterint.Grid\n"
                "names = {}\n"
                "exec('from cfpde import *', names)\n"
                "assert set(cfpde.__all__) <= set(names)\n")
        subprocess.run([sys.executable, "-c", code], cwd=tmp_path, check=True,
                       env=dict(os.environ, PYTHONPATH=SRC))

    def test_form_choices_are_the_solver_forms(self):
        parser = cli.build_parser()
        for name in ("solve", "second-order"):
            sub = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
            parser = sub.choices[name]
        form = next(a for a in parser._actions if a.dest == "form")
        assert list(form.choices) == [f.value for f in pde.SecondOrderForm]


class TestInputFaults:
    def test_non_integer_multi_index_is_load_error(self, tmp_path, capsys):
        path = tmp_path / "bad.series"
        path.write_text("dim=1 maxlen=1 alphabet=x0,x1\nx1 :: 1 * D[a]\n")
        assert run(["eval", "--series", str(path), "--u", "t",
                    "--grid", "0:1:5,0:1:5", "--out", str(tmp_path / "z.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load series") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--u", "-t"), ("--y0", "-sin(theta_1)")])
    def test_value_starting_with_dash_and_letter(self, tmp_path, flag, value):
        def solve(out, *extra):
            args = {"--u": "t", "--y0": "0"}
            argv = ["solve", "transport", "--V", "1", "--N", "2",
                    "--grid", "0:1:5,0:0.1:5", "--out", str(out)]
            for name, default in args.items():
                if name != flag:
                    argv += [name, default]
            return run(argv + list(extra))
        assert solve(tmp_path / "a.csv", flag, value) == 0
        assert solve(tmp_path / "b.csv", f"{flag}={value}") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestTailBoundScope:
    @pytest.mark.parametrize("argv", [
        ["wave"],
        ["second-order", "--alpha1", "0", "--alpha2", "-1", "--form", "cascade"],
    ])
    def test_no_growth_fit_outside_transport(self, tmp_path, monkeypatch, argv):
        from cfpde import bounds
        calls = []
        fit = bounds.estimate_growth
        monkeypatch.setattr(bounds, "estimate_growth",
                            lambda *a, **kw: calls.append(a) or fit(*a, **kw))
        out = tmp_path / "y.csv"
        assert run(["solve", *argv, "--u", "sin(theta_1)", "--N", "6",
                    "--grid", "0:3:17,0:1:17", "--out", str(out)]) == 0
        assert calls == []
        assert read_report(str(out) + ".report.json")["bound"] is None
        # the same spy sees the transport fit
        assert run(["solve", "transport", "--V", "1", "--u", "t*sin(theta_1)",
                    "--N", "6", "--grid", "0:3:17,0:1:17", "--out", str(out)]) == 0
        assert len(calls) == 2


class TestSeparableFallback:
    def test_pole_in_time_factor_is_numeric_failure(self, tmp_path, capsys):
        code = run(["solve", "transport", "--V", "1", "--u", "t^-1*sin(theta_1)",
                    "--N", "4", "--grid", "0:1:9,0:1:9",
                    "--out", str(tmp_path / "y.csv")])
        assert code == 2
        assert "zero raised to a negative power" in capsys.readouterr().err
        assert not (tmp_path / "y.csv").exists()

    def test_mixed_input_keeps_grid_trie_bytes(self, tmp_path):
        """sin(theta_1 - t) mixes theta and t, so it takes the grid trie;
        with multiplication-only coefficients that trie sees the same
        samples whether the signal is symbolic or sampled, so the bytes
        must match those of the sampled signal."""
        theta = ex.var("theta_1")
        c = se.series_from_coeffs(1, {
            word("x1"): do.from_expr(ex.cos(theta), 1),
            word("x0", "x1"): do.from_expr(theta, 1),
            word("x1", "x0", "x1"): do.identity(1)})
        path = write_series(tmp_path / "c.series", c)
        out = tmp_path / "y.csv"
        assert run(["eval", "--series", path, "--u", "sin(theta_1-t)",
                    "--grid", "0:3:9,0:1:17", "--out", str(out)]) == 0
        grid = ii.Grid.from_spec("0:3:9,0:1:17")
        m = grid.meshes()
        samples = np.broadcast_to(np.sin(m["theta_1"] - m["t"]), grid.shape)
        field = ii.evaluate_series(
            c, ii.InputSignal.sampled(ii.GridField(grid, samples)), grid)
        buf = io.StringIO()
        ii.write_csv(field, buf)
        assert out.read_bytes() == buf.getvalue().encode()


class TestCsvStreaming:
    def field(self):
        grid = ii.Grid(((-1.0, 0.5, 4), (0.0, 2.0, 3)), 0.7, 6)
        rng = np.random.default_rng(11)
        return ii.GridField(grid, rng.standard_normal(grid.shape)
                            - 1j * rng.standard_normal(grid.shape))

    def test_bytes_match_write_csv(self, tmp_path):
        field = self.field()
        cli._write_csv_atomic(str(tmp_path / "y.csv"), field)
        buf = io.StringIO()
        ii.write_csv(field, buf)
        assert (tmp_path / "y.csv").read_bytes() == buf.getvalue().encode()

    def test_failure_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        target = tmp_path / "y.csv"
        target.write_text("old\n")
        write_csv = ii.write_csv

        def failing(field, fh):
            write_csv(field, fh)
            raise OSError("disk full")

        monkeypatch.setattr(ii, "write_csv", failing)
        with pytest.raises(OSError, match="disk full"):
            cli._write_csv_atomic(str(target), self.field())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["y.csv"]
        assert target.read_text() == "old\n"
