import argparse
import errno
import gc
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfpde import cli
from cfpde import diffop as do
from cfpde import expr as ex
from cfpde import iterint as ii
from cfpde import pde
from cfpde import series as se
from cfpde.words import word

GRID = "0:6.283185307179586:65,0:1:129"
SOLVE = ["solve", "transport", "--V", "1", "--u", "t", "--N", "2", "--grid", "0:1:5,0:1:5"]
CHECK = ["bounds", "check", "--K-alpha", "1", "--M", "1", "--K-u", "1", "--R", "0.5",
         "--s", "1", "--T", "1"]


def run(argv):
    return cli.main(argv)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def write_series(path, c):
    se.save_series(c, path)
    return str(path)


def writer_argv(kind, files):
    """A solve, an eval or an algebra call without its --out, the last
    two on the series files of the transport_files fixture."""
    return {"solve": SOLVE,
            "eval": ["eval", "--series", files[0], "--u", "t", "--grid", "0:1:5,0:1:5"],
            "algebra": ["algebra", "sum", "--left", files[0], "--right", files[1]]}[kind]


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
        assert report["truncation"] == {"max_len": 17, "exact_len": 16}
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

    SECOND_ORDER = ["solve", "second-order", "--alpha2=-1", "--u", "t", "--N", "4",
                    "--grid", "0:1:9,0:1:9"]

    def test_theta_dependent_direct_form(self, tmp_path):
        out = tmp_path / "y.csv"
        assert run([*self.SECOND_ORDER, "--alpha1", "1+0.5*sin(theta_1)",
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 9 * 9
        report = read_report(str(out) + ".report.json")
        assert report["params"]["alpha1"] == "1+0.5*sin(theta_1)"
        assert report["truncation"] == {"max_len": 5, "exact_len": 4}

    @pytest.mark.parametrize("form", ["cascade", "partial-fraction"])
    def test_theta_dependent_alpha_needs_the_direct_form(self, tmp_path, capsys, form):
        out = tmp_path / "y.csv"
        assert run([*self.SECOND_ORDER, "--alpha1", "1+0.5*sin(theta_1)",
                    "--form", form, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SeriesError: ") and err.count("\n") == 1
        assert "second_order_series_factored" in err
        assert not out.exists()

    def test_alpha_is_an_expression(self, tmp_path, capsys):
        """i marks the imaginary unit, as in every other expression; the
        j of Python's complex() is refused."""
        out = tmp_path / "y.csv"
        assert run([*self.SECOND_ORDER, "--alpha1", "1+2i", "--out", str(out)]) == 0
        assert run([*self.SECOND_ORDER, "--alpha1", "1+2j",
                    "--out", str(tmp_path / "j.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --alpha1 expression") and err.count("\n") == 1
        assert not (tmp_path / "j.csv").exists()

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

    def test_shuffle_of_loaded_files_keeps_exact_len(self, tmp_path):
        """N = 3 transport files are exact through length 3, not their
        max_len 4, and so is their shuffle, as the library computes it."""
        def transport(v, offset):
            return se.embed(pde.transport_series(pde.TransportSpec(v, 0, 3)), 2, offset)
        left = write_series(tmp_path / "c.series", transport(1.0, 0))
        right = write_series(tmp_path / "d.series", se.relabel_letters(
            transport(2.0, 1), {word("x1")[0]: word("x2")[0]}))
        out = tmp_path / "p.series"
        assert run(["algebra", "shuffle", "--left", left, "--right", right,
                    "--out", str(out)]) == 0
        truncation = read_report(str(out) + ".report.json")["truncation"]
        assert truncation == {"max_len": 8, "exact_len": 3}
        want = se.shuffle_series(se.load_series(left), se.load_series(right))
        assert want.exact_len == se.load_series(out).exact_len == 3

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

    @pytest.mark.parametrize("letter", ["", "x1 x2", "e", "y", "x01"])
    def test_shift_needs_one_letter(self, tmp_path, capsys, transport_files, letter):
        left, _ = transport_files
        out = tmp_path / "shifted.series"
        assert run(["algebra", "shift", "--letter", letter, "--series", left,
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: bad --letter {letter!r}; expected one letter such as x1\n")
        assert not out.exists()

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

    def test_solve_is_build_plus_eval(self, tmp_path):
        """cf solve writes the field and report that cf eval writes for
        the series the solve builds."""
        grid, u = "0:3:9,0:1:17", "t*sin(theta_1)"
        path = write_series(tmp_path / "c.series",
                            pde.transport_series(pde.TransportSpec(1, 0, 3)))
        solved, evaluated = tmp_path / "s.csv", tmp_path / "e.csv"
        assert run(["solve", "transport", "--V", "1", "--u", u, "--N", "3",
                    "--grid", grid, "--out", str(solved)]) == 0
        assert run(["eval", "--series", path, "--u", u, "--grid", grid,
                    "--out", str(evaluated)]) == 0
        assert solved.read_bytes() == evaluated.read_bytes()
        reports = [read_report(f"{out}.report.json") for out in (solved, evaluated)]
        for report in reports:
            assert report["truncation"] == {"max_len": 4, "exact_len": 3}
            assert (report["params"]["grid"], report["params"]["u"]) == (grid, u)
        assert reports[0]["bound"] is not None
        assert reports[0]["bound"] == reports[1]["bound"]

    def test_eval_reports_the_loaded_truncation_and_input(self, tmp_path):
        """A shuffle product is stored to length 8 but exact through 3."""
        def transport(v, offset):
            return se.embed(pde.transport_series(pde.TransportSpec(v, 0, 3)), 2, offset)
        p = se.shuffle_series(transport(1.0, 0), se.relabel_letters(
            transport(2.0, 1), {word("x1")[0]: word("x2")[0]}))
        path = write_series(tmp_path / "p.series", p)
        out = tmp_path / "p.csv"
        assert run(["eval", "--series", path, "--bind", "1=t*sin(theta_1)",
                    "--bind", "2=t*cos(theta_2)", "--grid", "0:1:5,0:1:5,0:1:9",
                    "--out", str(out)]) == 0
        report = read_report(str(out) + ".report.json")
        assert report["truncation"] == {"max_len": 8, "exact_len": 3}
        assert report["params"]["u"] == {"1": "t*sin(theta_1)", "2": "t*cos(theta_2)"}

    def test_evaluation_error_keeps_its_type_in_the_message(self, tmp_path, capsys):
        c = se.series_from_coeffs(1, {word("x1"): do.identity(1),
                                      word("x2"): do.identity(1)})
        path = write_series(tmp_path / "c.series", c)
        assert run(["eval", "--series", path, "--bind", "1=t", "--grid", "0:1:5,0:1:5",
                    "--out", str(tmp_path / "y.csv")]) == 1
        assert capsys.readouterr().err == \
            "error: EvaluationError: unbound input letters: ['x2']\n"

    def test_pole_is_numeric_failure(self, tmp_path):
        c = se.series_from_coeffs(1, {word("x1"): do.identity(1)})
        path = write_series(tmp_path / "c.series", c)
        code = run(["eval", "--series", path, "--u", "theta_1^-1",
                    "--grid", "0:1:17,0:1:33", "--out", str(tmp_path / "y.csv")])
        assert code == 2


class TestBounds:
    def test_check_geometric(self, capsys):
        assert run(CHECK) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converges"] is True
        assert payload["tail_at_N"] == {"-1": 4.0}
        assert run(CHECK + ["--N", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tail_at_N"] == {"-1": 4.0, "3": 0.75}

    def test_check_geometric_divergence(self, capsys):
        assert run(CHECK[:-2] + ["--T", "2", "--N", "3"]) == 0  # MRT = 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["MRT"] == 1.0 and payload["converges"] is False
        assert payload["tail_at_N"] == {"-1": None, "3": None}

    def test_check_gevrey_tail(self, capsys):
        assert run(["bounds", "check", "--K-alpha", "1", "--M", "1",
                    "--K-u", "1", "--R", "1", "--s", "0",
                    "--T", "1", "--N", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["MRT", "constants", "converges", "tail_at_N"]
        assert payload["converges"] is True
        assert payload["tail_at_N"]["-1"] == pytest.approx(2 * math.e, abs=1e-12)
        assert 0 < payload["tail_at_N"]["4"] < payload["tail_at_N"]["-1"]

    @pytest.mark.parametrize("s", ["0.5", "1"])
    @pytest.mark.parametrize("n", ["-1", "-7"])
    def test_check_refuses_a_negative_truncation(self, capsys, s, n):
        argv = CHECK[:-4] + ["--s", s, "--T", "1", "--N", n]
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: bad --N {n}; a truncation is at least 0\n"

    def test_check_subfactorial_sum_past_the_term_guard(self, capsys):
        """At MRT = 0.9999 the s < 1 sum is still running after 100,000
        terms; it ends in the s = 1 tail, which dominates it."""
        argv = CHECK[:-6] + ["--R", "0.9999", "--s", "0.9999", "--T", "1"]
        assert run(argv) == 0
        tail = json.loads(capsys.readouterr().out)["tail_at_N"]["-1"]
        assert run(CHECK[:-6] + ["--R", "0.9999", "--s", "1", "--T", "1"]) == 0
        assert math.isfinite(tail)
        assert tail <= json.loads(capsys.readouterr().out)["tail_at_N"]["-1"]

    def test_estimate_from_input(self, capsys):
        assert run(["bounds", "estimate", "--u", "t*sin(2*theta_1)",
                    "--grid", "0:6.283185307179586:257,0:1:129",
                    "--k-max", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["constants"]["R"] == pytest.approx(2.0, rel=0.05)

    def test_invalid_constants_exit_one(self, capsys):
        assert run(["bounds", "check", "--K-alpha", "-1", "--M", "1",
                    "--K-u", "1", "--R", "1", "--s", "0",
                    "--T", "1"]) == 1

    @pytest.mark.parametrize("both, message", [
        (True, "argument --series: not allowed with argument --u"),
        (False, "one of the arguments --u --series is required")])
    def test_estimate_takes_input_or_series(self, capsys, monkeypatch, transport_files,
                                            both, message):
        from cfpde import bounds
        monkeypatch.setattr(bounds, "estimate_growth", None)
        given = ["--u", "t*sin(theta_1)", "--series", transport_files[0]] if both else []
        assert run(["bounds", "estimate", *given, "--grid", "0:1:9,0:1:9"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("target, fitted", [
        ("--u", {"K_u", "R", "T"}), ("--series", {"K_alpha", "M", "s"})])
    def test_estimate_prints_only_the_constants_it_fitted(self, capsys, transport_files,
                                                          target, fitted):
        """An input fit gives K_u, R and T, a coefficient fit K_alpha, M
        and s; the other three were once printed as placeholders."""
        value = "t*sin(2*theta_1)" if target == "--u" else transport_files[0]
        assert run(["bounds", "estimate", target, value, "--grid", "0:1:33,0:1:33"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"constants", "log_norms", "residual"}
        assert set(payload["constants"]) == fitted

    def test_estimate_stops_at_the_input_degree(self, capsys):
        """t*theta_1^2 has exactly zero derivatives past order 2; fitting
        their clamped norms once gave K_u 7.7e-21, R 1.0e-45 and a
        residual of 185.6."""
        assert run(["bounds", "estimate", "--u", "t*theta_1^2",
                    "--grid", "0:1:33,0:1:33"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["log_norms"]) == 3
        assert payload["constants"]["K_u"] == pytest.approx(0.561, abs=1e-3)
        assert payload["constants"]["R"] == pytest.approx(math.sqrt(2), rel=1e-9)

    @pytest.mark.parametrize("k_max", ["65", "100000"])
    def test_estimate_k_max_past_the_cap_exits_one(self, capsys, k_max):
        """--k-max is 2..64; 100,000 once fitted for minutes."""
        start = time.perf_counter()
        assert run(["bounds", "estimate", "--u", "t*sin(theta_1)",
                    "--grid", "0:1:5,0:1:5", "--k-max", k_max]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == "error: k_max must be in 2..64\n" and captured.out == ""

    def test_estimate_k_max_at_the_cap_fits(self, capsys):
        assert run(["bounds", "estimate", "--u", "t*sin(theta_1)",
                    "--grid", "0:1:5,0:1:5", "--k-max", "64"]) == 0
        assert len(json.loads(capsys.readouterr().out)["log_norms"]) == 65

    @pytest.mark.parametrize("target", ["--u", "--series"])
    def test_estimate_needs_one_theta_axis(self, capsys, transport_files, target):
        value = "t*sin(theta_1)" if target == "--u" else transport_files[0]
        assert run(["bounds", "estimate", target, value,
                    "--grid", "0:1:9,0:1:9,0:1:9"]) == 1
        assert capsys.readouterr().err == (
            "error: growth fits are defined for one-parameter grids\n")


class TestVerify:
    def test_verify_single_fast_criterion(self, capsys):
        assert run(["verify", "--only", "8"]) == 0
        out = capsys.readouterr().out
        assert "PASS criterion 8" in out

    def test_bad_only_flag(self, capsys):
        """An empty selection is a bad one, not every criterion."""
        for only in ("abc", ""):
            assert run(["verify", "--only", only]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: bad --only {only!r}\n"

    @pytest.mark.parametrize("only", ["0", "11", "-1", "1,11"])
    def test_only_out_of_range_runs_nothing(self, capsys, only):
        assert run(["verify", "--only", only]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad --only {only!r}; criteria are 1-10\n"


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

    @pytest.mark.parametrize("kind", ["solve", "eval", "algebra"])
    @pytest.mark.parametrize("where", ["missing directory", "a directory"])
    def test_unwritable_out_fails_before_work(self, tmp_path, transport_files,
                                              monkeypatch, capsys, kind, where):
        def no_work(*args):
            raise AssertionError("work started")
        monkeypatch.setattr(ii, "evaluate_series", no_work)
        monkeypatch.setattr(se, "load_series", no_work)
        out = str(tmp_path / "missing" / "y.out") if where == "missing directory" \
            else str(tmp_path)
        assert run(writer_argv(kind, transport_files) + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["solve", "eval", "algebra"])
    def test_unwritable_report_fails_before_work(self, tmp_path, transport_files,
                                                 monkeypatch, capsys, kind):
        """A directory where <out>.report.json goes is refused before any
        work, and neither the out file nor a temporary file is left."""
        monkeypatch.setattr(ii, "evaluate_series", None)
        monkeypatch.setattr(se, "load_series", None)
        (tmp_path / "o").mkdir()
        out = tmp_path / "o" / "y.out"
        report = tmp_path / "o" / "y.out.report.json"
        report.mkdir()
        assert run(writer_argv(kind, transport_files) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {report}: it is a directory\n"
        assert [p.name for p in (tmp_path / "o").iterdir()] == [report.name]

    def test_failed_csv_write_is_one_line(self, tmp_path, monkeypatch, capsys):
        def disk_full(field, fh):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(ii, "write_csv", disk_full)
        out = tmp_path / "y.csv"
        assert run(SOLVE + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_report_write_is_one_line(self, tmp_path, transport_files,
                                             monkeypatch, capsys):
        replace = os.replace

        def refuse_report(src, dst):
            if dst.endswith(".report.json"):
                raise PermissionError(errno.EACCES, "Permission denied")
            replace(src, dst)
        monkeypatch.setattr(os, "replace", refuse_report)
        (tmp_path / "o").mkdir()
        out = tmp_path / "o" / "p.series"
        assert run(["algebra", "sum", "--left", transport_files[0],
                    "--right", transport_files[1], "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: cannot write {out}.report.json: Permission denied\n"
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["p.series"]


class TestOutputCollision:
    @pytest.mark.parametrize("kind", ["solve", "eval", "algebra"])
    def test_report_naming_the_out_file_exits_one(self, tmp_path, monkeypatch, capsys,
                                                  transport_files, kind):
        """A symbolic link from <out>.report.json to the out file would
        leave the report in place of the output."""
        def no_work(*args):
            raise AssertionError("work started")
        monkeypatch.setattr(ii, "evaluate_series", no_work)
        monkeypatch.setattr(se, "load_series", no_work)
        (tmp_path / "o").mkdir()
        out = tmp_path / "o" / "a.txt"
        out.write_text("old\n")
        report = tmp_path / "o" / "a.txt.report.json"
        report.symlink_to(out)
        assert run(writer_argv(kind, transport_files) + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: cannot write {report}: it is also the output {out}\n"
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [out.name, report.name]


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

    @pytest.mark.parametrize("grid", ["0:1:1_7,0:1:9", "0:1: 17,0:1:9", "0:1:+17,0:1:9",
                                      "0:1:017,0:1:9", "0:1_0:17,0:1:9"])
    def test_grid_spelled_past_cf_numbers_exits_one(self, tmp_path, capsys, grid):
        """Each of these once gave 17 points (or an interval to 10)."""
        out = tmp_path / "g.csv"
        assert run(["solve", "transport", "--V", "1", "--u", "t", "--N", "2",
                    "--grid", grid, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --grid: bad grid axis") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, option, value", [
        (SOLVE, "--N", v) for v in ["1_2", "+3", "03", "\uff13", " 3", "3 ", "3.0", "1e1"]
    ] + [
        (["algebra", "truncate", "--series", "c.series"], "--N", "1_2"),
        (CHECK, "--N", "\uff10"),
        (CHECK, "--K-alpha", "1_0"), (CHECK, "--M", " 1"), (CHECK, "--K-u", "\uff13"),
        (CHECK, "--R", "+0.5"), (CHECK, "--s", "nan"), (CHECK, "--T", "inf"),
        (["bounds", "estimate", "--u", "t", "--grid", "0:1:5,0:1:5"], "--k-max", "0_8"),
    ])
    def test_numbers_spelled_past_cf_numbers_exit_one(self, tmp_path, capsys, monkeypatch,
                                                      argv, option, value):
        """int() and float() take each of these; cf once solved --N 1_2
        at N = 12."""
        monkeypatch.chdir(tmp_path)
        out = ["--out", "y.csv"] if argv[0] in ("solve", "algebra") else []
        assert run([*argv, *out, option, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {option}: expected a number such as ")
        assert err.count("\n") == 1
        assert not (tmp_path / "y.csv").exists()

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

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_bind_below_one_exits_one(self, tmp_path, capsys, k):
        """x0 is the drift letter and negative letters do not exist."""
        out = tmp_path / "y.csv"
        c = se.series_from_coeffs(1, {word("x1"): do.identity(1)})
        argv = ["eval", "--series", write_series(tmp_path / "c.series", c),
                "--bind", "1=t", "--bind", f"{k}=t", "--grid", "0:1:5,0:1:5",
                "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: bad --bind '{k}=t'; k must be an input letter id 1, 2, ... "
            "(x0 is the drift)\n")
        assert not out.exists()

    @pytest.mark.parametrize("inputs, message", [
        (["--u", "t", "--bind", "1=t"], "argument --bind: not allowed with argument --u"),
        ([], "one of the arguments --u --bind is required"),
        (["--bind", "1=t", "--bind", "1=2*t"], "bad --bind '1=2*t'; x1 is already bound"),
        (["--bind", "1=t", "--bind", "2=t"], "bad --bind '2=t'; the series has no letter x2"),
        # one spelling per letter id: int() reads each of these as 1 or 10
        (["--bind", "01=t"], "bad input letter id '01'"),
        (["--bind", "+1=t"], "bad input letter id '+1'"),
        (["--bind", " 1=t"], "bad input letter id ' 1'"),
        (["--bind", "1_0=t"], "bad input letter id '1_0'"),
    ])
    def test_bind_faults_exit_one(self, tmp_path, capsys, monkeypatch, inputs, message):
        """--u with --bind, neither of them, a letter bound twice, a
        letter outside the series' alphabet and a letter id spelled other
        than as its digits are refused before any evaluation, and leave
        no output and no temporary file."""
        monkeypatch.setattr(ii, "evaluate_series", None)
        out = tmp_path / "y.csv"
        c = se.series_from_coeffs(1, {word("x1"): do.identity(1)})
        argv = ["eval", "--series", write_series(tmp_path / "c.series", c)]
        assert run(argv + inputs + ["--grid", "0:1:5,0:1:5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.series"]

    def test_bind_of_a_letter_id_past_int_digits_exits_one(self, tmp_path, capsys):
        """A letter id of 5000 digits, past the 4300 that int() converts,
        is a letter the series lacks, not a ValueError; the message that
        echoes it is clipped."""
        c = se.series_from_coeffs(1, {word("x1"): do.identity(1)})
        k = "1" * 5000
        assert run(["eval", "--series", write_series(tmp_path / "c.series", c),
                    "--bind", f"{k}=t", "--grid", "0:1:5,0:1:5",
                    "--out", str(tmp_path / "y.csv")]) == 1
        message = f"bad --bind '{k}=t'; the series has no letter x{k}"
        assert capsys.readouterr().err == f"error: {message[:cli._MESSAGE_WIDTH]}...\n"

    @pytest.mark.parametrize("command, option", [
        ("solve", ["--bind", "1=t"]), ("solve", ["--report", "r.json"]),
        ("eval", ["--report", "r.json"])])
    def test_one_spelling_per_input_and_output(self, tmp_path, capsys, transport_files,
                                               command, option):
        """A solve takes its input as --u alone, and every output's report
        is <out>.report.json."""
        out = tmp_path / "y.csv"
        assert run(writer_argv(command, transport_files) + option
                   + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: unrecognized arguments: {' '.join(option)}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("argv, code", [
        (["solve", "transport", "--V", "1", "--u", "exp(800*theta_1)*t", "--N", "2",
          "--grid", "0:6.28:9,0:1:5", "--out", "y.csv"], 2),
        (["bounds", "estimate", "--u", "exp(800*theta_1)*t", "--grid", "0:6.28:9,0:1:5"], 1),
    ])
    def test_overflow_in_evaluation_is_one_line(self, tmp_path, monkeypatch, capsys,
                                                argv, code):
        """numpy's overflow warnings would print lines of their own in a cf
        process; the inf they leave is reported once."""
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == code
        assert caught == []
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["solve", "eval"])
    def test_non_finite_field_leaves_no_file(self, tmp_path, capsys, transport_files, kind):
        """exp(800 theta_1) overflows on [0, 6.28]: the export finds the
        inf, and neither the CSV, nor its report, nor a temporary file
        is left."""
        (tmp_path / "o").mkdir()
        out = tmp_path / "o" / "y.csv"
        u = ["--u", "exp(800*theta_1)*t", "--grid", "0:6.28:9,0:1:5", "--out", str(out)]
        argv = {"solve": ["solve", "transport", "--V", "1", "--N", "2"],
                "eval": ["eval", "--series", transport_files[0]]}[kind]
        assert run(argv + u) == 2
        assert capsys.readouterr().err == \
            "numeric failure: output field contains NaN or infinity\n"
        assert list((tmp_path / "o").iterdir()) == []

    def test_non_finite_series_coefficient_exits_two(self, tmp_path, capsys):
        """1e200 * 1e200 overflows in the operator product; the result has
        no text form, so nothing is written."""
        left, right = tmp_path / "c.series", tmp_path / "d.series"
        left.write_text("dim=1 maxlen=1 alphabet=x0,x1\nx1 :: 1e200 * D[0]\n")
        right.write_text("dim=1 maxlen=1 alphabet=x0,x2\nx2 :: 1e200*theta_1 * D[0]\n")
        out = tmp_path / "p.series"
        assert run(["algebra", "shuffle", "--left", str(left), "--right", str(right),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.series", "d.series"]

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


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["", "1"])  # "": flushed at the end
    @pytest.mark.parametrize("argv", [CHECK, ["verify", "--only", "8"]])
    def test_closed_pipe_exits_one_without_a_traceback(self, argv, unbuffered):
        read, write = os.pipe()
        os.close(read)  # the reader has gone before cf writes
        try:
            proc = subprocess.run([sys.executable, "-m", "cfpde.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True,
                                  env=dict(os.environ, PYTHONPATH=SRC,
                                           PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestHashSeed:
    """Outputs do not depend on the hash seed.  str hashes change from
    process to process, and with them the iteration order of every set or
    dict of strings, so test_determinism, which runs both jobs in one
    process, cannot see such a dependence."""

    MAKE = ("from cfpde import expr as ex, pde, series as se\n"
            "from cfpde.words import Letter\n"
            "def transport(v, y0):\n"
            "    return pde.transport_series(\n"
            "        pde.TransportSpec(ex.parse(v, 1), ex.parse(y0, 1), 3))\n"
            "se.save_series(se.embed(transport('1.03', 'sin(theta_1)'), 2, 0), 'c.series')\n"
            "se.save_series(se.relabel_letters(\n"
            "    se.embed(transport('0.53', 'cos(theta_1)'), 2, 1),\n"
            "    {Letter(1): Letter(2)}), 'd.series')\n")
    CF = ["-m", "cfpde.cli"]
    STEPS = [
        # the parallel product flow: library-written factors, their
        # shuffle, and its evaluation with one input per letter
        ["-c", MAKE],
        CF + ["algebra", "shuffle", "--left", "c.series", "--right", "d.series",
              "--out", "p.series"],
        CF + ["eval", "--series", "p.series", "--bind", "1=t*sin(1.02*theta_1)",
              "--bind", "2=t*cos(1.04*theta_2)", "--grid", "0:1:5,0:1:5,0:1:9",
              "--out", "p.csv"],
        CF + ["solve", "transport", "--V", "1+0.5*sin(theta_1)", "--y0", "cos(theta_1)",
              "--u", "t*sin(2*theta_1)", "--N", "6",
              "--grid", "0:6.283185307179586:9,0:1:17", "--out", "y.csv"],
    ]

    def outputs(self, directory, seed: int) -> dict:
        """Every file the steps write under PYTHONHASHSEED=seed, reports
        without their runtime_ms line."""
        directory.mkdir()
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed))
        for step in self.STEPS:
            proc = subprocess.run([sys.executable, *step], cwd=directory, env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        out = {}
        for path in directory.iterdir():
            data = path.read_bytes()
            if path.name.endswith(".report.json"):
                data = re.sub(rb'\n *"runtime_ms": \d+,?', b"", data)
            out[path.name] = data
        return out

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        a = self.outputs(tmp_path / "a", 0)
        b = self.outputs(tmp_path / "b", 4242)
        assert sorted(a) == sorted([
            "c.series", "d.series", "p.series", "p.series.report.json",
            "p.csv", "p.csv.report.json", "y.csv", "y.csv.report.json"])
        assert b"exactlen=3" in a["p.series"]
        for name in a:
            assert a[name] == b[name], name


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
        assert not loaded & {"numpy", "cfpde.iterint", "cfpde.bounds", "cfpde.pde",
                             "inspect", "dataclasses"}
        assert "cfpde.series" in loaded

    @pytest.mark.parametrize("start", [
        "from cfpde import cli\nsys.exit(cli.entry())",  # the cf console script
        "import runpy\nrunpy.run_module('cfpde.cli', run_name='__main__')",  # python -m
    ])
    def test_process_entry_leaves_collector_off_and_frozen(self, tmp_path, start):
        code = ("import atexit, gc, sys\n"
                "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
                f"sys.argv = {['cf'] + CHECK!r}\n" + start + "\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False True"

    def test_library_call_keeps_default_collector(self, capsys):
        assert gc.isenabled() and gc.get_freeze_count() == 0
        assert run(CHECK) == 0
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_eval_loads_no_bounds_or_pde(self, tmp_path, transport_files):
        """A series without a certificate (a wave series) needs neither;
        one of the transport shape loads bounds for its certificate."""
        wave = write_series(tmp_path / "w.series", pde.wave_series(4))
        out = ["--u", "t", "--grid", "0:1:5,0:1:5", "--out", str(tmp_path / "z.csv")]
        loaded = _loaded_after([["eval", "--series", wave, *out]], tmp_path)
        assert "cfpde.iterint" in loaded
        assert not loaded & {"cfpde.bounds", "cfpde.pde"}
        loaded = _loaded_after([["eval", "--series", transport_files[0], *out]], tmp_path)
        assert "cfpde.bounds" in loaded and "cfpde.pde" not in loaded

    def test_series_without_a_certificate_loads_no_bounds(self, tmp_path):
        """A variable velocity has no linear degree, and a series of degree
        0 (V = 0) too few norms for the growth fits: neither imports
        bounds."""
        zero_v = write_series(tmp_path / "v0.series",
                              pde.transport_series(pde.TransportSpec(0, 0, 6)))
        out = ["--u", "t*sin(theta_1)", "--grid", "0:1:5,0:1:5",
               "--out", str(tmp_path / "y.csv")]
        loaded = _loaded_after([["solve", "transport", "--V", "1+theta_1^2", "--N", "4",
                                 *out]], tmp_path)
        assert "cfpde.pde" in loaded and "cfpde.bounds" not in loaded
        loaded = _loaded_after([["eval", "--series", zero_v, *out]], tmp_path)
        assert "cfpde.iterint" in loaded and "cfpde.bounds" not in loaded
        assert read_report(str(tmp_path / "y.csv.report.json"))["bound"] is None

    def test_second_order_solve_loads_no_bounds(self, tmp_path):
        loaded = _loaded_after([["solve", "second-order", "--alpha1", "0", "--alpha2", "-1",
                                 "--u", "sin(theta_1)", "--N", "2", "--grid", "0:1:5,0:1:5",
                                 "--out", str(tmp_path / "y.csv")]], tmp_path)
        assert "cfpde.pde" in loaded
        assert "cfpde.bounds" not in loaded

    def test_mixed_input_solve_loads_no_numpy_polynomial(self, tmp_path):
        """An input mixing theta and t is interpolated at Chebyshev points
        (33 times, so not at the grid's) without numpy.polynomial."""
        loaded = _loaded_after([["solve", "transport", "--V", "1", "--u", "sin(theta_1 - t)",
                                 "--N", "4", "--grid", "0:1:5,0:1:33",
                                 "--out", str(tmp_path / "y.csv")]], tmp_path)
        assert "cfpde.iterint" in loaded
        assert "numpy.polynomial" not in loaded

    def test_transport_solve_compiles_its_modules_before_numpy(self, tmp_path):
        """A module is looked up on sys.meta_path when its import starts,
        before it is compiled: the lookups give the order of compilation."""
        code = ("import json, sys\n"
                "order = []\n"
                "class Record:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        order.append(name)\n"
                "sys.meta_path.insert(0, Record())\n"
                "from cfpde import cli\n"
                f"rc = cli.main({SOLVE + ['--out', 'y.csv']!r})\n"
                "print(json.dumps([rc, order]))\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, check=True)
        rc, order = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0
        numpy_at = order.index("numpy")
        for name in ("cfpde.pde", "cfpde.bounds", "cfpde.iterint"):
            assert order.index(name) < numpy_at, name

    def test_certified_eval_compiles_bounds_before_numpy(self, tmp_path, transport_files):
        """cf eval of a series with a certificate imports bounds before
        numpy too, as the solve that builds such a series does."""
        argv = ["eval", "--series", transport_files[0], "--u", "t",
                "--grid", "0:1:5,0:1:5", "--out", "y.csv"]
        code = ("import json, sys\n"
                "order = []\n"
                "class Record:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        order.append(name)\n"
                "sys.meta_path.insert(0, Record())\n"
                "from cfpde import cli\n"
                f"rc = cli.main({argv!r})\n"
                "print(json.dumps([rc, order]))\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, check=True)
        rc, order = json.loads(proc.stdout.splitlines()[-1])
        assert rc == 0
        assert order.index("cfpde.bounds") < order.index("cfpde.iterint") < order.index("numpy")
        assert "cfpde.pde" not in order

    def test_peak_memory_does_not_grow_with_the_field(self, tmp_path):
        """A separable solve streams its field: the 513 x 1025 field alone
        is 8.4 MB, yet the solve's peak resident memory exceeds that of a
        65 x 129 solve by less than 4 MB."""
        # A child's ru_maxrss starts from the resident size of the process
        # that forks it, so a small interpreter starts the solve.
        launch = ("import os, subprocess, sys\n"
                  "proc = subprocess.Popen(sys.argv[1:])\n"
                  "_, status, usage = os.wait4(proc.pid, 0)\n"
                  "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")

        def peak_mb(grid):
            proc = subprocess.run(
                [sys.executable, "-c", launch, sys.executable, "-m", "cfpde.cli",
                 "solve", "transport", "--V", "1.03", "--y0", "sin(theta_1)",
                 "--u", "t*sin(2.05*theta_1)", "--N", "6", "--grid", grid,
                 "--out", str(tmp_path / "y.csv")],
                cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
                                       OPENBLAS_NUM_THREADS="1"),
                capture_output=True, text=True, check=True)
            code, maxrss_kb = map(int, proc.stdout.split())
            assert code == 0, proc.stderr
            return maxrss_kb / 1024

        small = peak_mb("0:6.283185307179586:65,0:1:129")
        large = peak_mb("0:6.283185307179586:513,0:1:1025")
        assert (tmp_path / "y.csv").stat().st_size > 513 * 1025 * 40
        assert large - small < 4.0

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
    @pytest.mark.parametrize("text", [
        "dim=1 maxlen=2 alphabet=x0,x1 extra\n",
        "dim=1 maxlen=1 alphabet=x0,x1,y\n",
        "dim=1 maxlen=1 alphabet=x0,x1\nx9q :: 1 * D[0]\n",
        "dim=1 maxlen=1 alphabet=x0,x1\nx00 :: 1 * D[0]\n",
        "dim=1 maxlen=2 exactlen=5 alphabet=x0,x1\nx1 :: 1 * D[0]\n",
        "dim=1 maxlen=2 exactlen=-1 alphabet=x0,x1\nx1 :: 1 * D[0]\n",
        "dim=1 maxlen=2 exactlen=x alphabet=x0,x1\nx1 :: 1 * D[0]\n",
        "dim=1 maxlen=1 alphabet=x0,x1\nx1 :: 1 * D[0]\nx1 :: 5 * D[1]\n",
        "dim=1 maxlen=1 alphabet=x0,x1\nx1 :: 1 * D[0] + 2 * D[0]\n",
        "dim=1 maxlen=1 alphabet=x0,x0,x1\nx1 :: 1 * D[0]\n",
        "dim=1 dim=1 maxlen=1 alphabet=x0,x1\nx1 :: 1 * D[0]\n",
        "dim=1 maxlen=1 alphabet=x0,x1\nx01 :: 1 * D[0]\n",
        # refused on its multi-index before a dim-long coefficient is built
        "dim=20000000 maxlen=1 alphabet=x0,x1\nx1 :: 1 * D[0]\n",
    ])
    def test_malformed_series_text_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "bad.series"
        path.write_text(text)
        out = tmp_path / "out.series"
        assert run(["algebra", "truncate", "--series", str(path), "--N", "1",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load series: bad ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        # a 2.0 MB line with a multi-index of 10**6 entries
        "dim=1 maxlen=1 alphabet=x0,x1\nx1 :: 1 * D[" + ",".join(["0"] * 10**6) + "]\n",
        # a 1.6 MB coefficient, a 2.1 MB word and a 1.5 MB header
        "dim=1 maxlen=1 alphabet=x0,x1\nx1 :: " + "1+" * 800_000 + " * D[0]\n",
        "dim=1 maxlen=1 alphabet=x0,x1\n" + " ".join(["x1"] * 700_000) + " :: 1 * D[0]\n",
        "dim=1 maxlen=1 alphabet=x0" + ",x1" * 500_000 + "\nx1 :: 1 * D[0]\n",
    ], ids=["multi-index", "coefficient", "word", "header"])
    def test_long_malformed_line_gives_a_short_error(self, tmp_path, capsys, text):
        """The error echoes the input, clipped: one line of at most 300
        bytes, however long the line it quotes."""
        path = tmp_path / "long.series"
        path.write_text(text)
        out = tmp_path / "out.series"
        assert run(["algebra", "truncate", "--series", str(path), "--N", "1",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load series: ") and err.count("\n") == 1
        assert len(err.encode()) <= 300 and err.endswith("...\n")
        assert not out.exists()

    def test_power_of_a_sum_past_the_expansion_cap_exits_one(self, tmp_path, capsys):
        """Inputs are expanded into canonical form when they are parsed, so
        a power of a sum past MAX_EXPANDED_POWER is refused up front."""
        out = tmp_path / "y.csv"
        assert run(["solve", "transport", "--V", "1", "--u", "(1+theta_1)^100*t",
                    "--N", "2", "--grid", "0:1:5,0:1:5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: bad input expression: a power of a sum is expanded "
                       "up to 64, not 100\n")
        assert not out.exists()
        assert run(["solve", "transport", "--V", "1", "--u", "(1+theta_1)^64*t",
                    "--N", "2", "--grid", "0:1:5,0:1:5", "--out", str(out)]) == 0

    def test_power_of_a_sum_past_the_term_budget_exits_one(self, tmp_path, capsys):
        """A power of a sum that may expand past MAX_EXPANDED_TERMS is a
        bad input, here on a dim-5 series: (six terms)^20 has 53,130."""
        (tmp_path / "c.series").write_text(
            "dim=5 maxlen=1 alphabet=x0,x1\nx1 :: 1 * D[0,0,0,0,0]\n")
        out = tmp_path / "y.csv"
        assert run(["eval", "--series", str(tmp_path / "c.series"),
                    "--u", "(theta_1+theta_2+theta_3+theta_4+theta_5+t)^20",
                    "--grid", ",".join(["0:1:2"] * 6), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: bad input expression: a power of a sum is expanded up to 10000 "
            "terms, and this one may have 53130\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "dim=1 maxlen=1 alphabet=x0,x1\nx1 :: sin( * D[0]\n"],
                             ids=["missing", "bad-coefficient"])
    @pytest.mark.parametrize("argv", [
        ["algebra", "shuffle", "--left", "c.series", "--right", "good.series"],
        ["algebra", "shuffle", "--left", "good.series", "--right", "c.series"],
        ["algebra", "sum", "--left", "c.series", "--right", "good.series"],
        ["algebra", "compose", "--left", "c.series", "--right", "good.series"],
        ["algebra", "shift", "--letter", "x0", "--series", "c.series"],
        ["algebra", "truncate", "--N", "1", "--series", "c.series"],
        ["eval", "--u", "t", "--grid", "0:1:5,0:1:5", "--series", "c.series"],
        ["bounds", "estimate", "--grid", "0:1:5,0:1:5", "--series", "c.series"],
    ], ids=["shuffle-left", "shuffle-right", "sum", "compose", "shift", "truncate",
            "eval", "estimate"])
    def test_unloadable_series_exits_one(self, tmp_path, monkeypatch, capsys, argv, text):
        """Every subcommand that reads a series file refuses one it cannot
        read or parse with one message."""
        monkeypatch.chdir(tmp_path)
        se.save_series(pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=2)),
                       "good.series")
        if text is not None:
            (tmp_path / "c.series").write_text(text)
        out = [] if argv[0] == "bounds" else ["--out", "out.file"]
        assert run(argv + out) == 1
        err = capsys.readouterr().err
        if text is None:
            assert err == ("error: cannot load series: [Errno 2] No such file or "
                           "directory: 'c.series'\n")
        else:
            assert err.startswith("error: cannot load series: ") and err.count("\n") == 1
        assert not (tmp_path / "out.file").exists()

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

    def test_help_flag_is_not_a_value(self, tmp_path, capsys):
        """-h is the parser's one single-dash option, so it is never
        joined to the option before it."""
        assert run(["solve", "transport", "--V", "1", "--N", "2", "--grid", "0:1:5,0:1:5",
                    "--out", str(tmp_path / "y.csv"), "--u", "-h"]) == 1
        assert capsys.readouterr().err == "error: argument --u: expected one argument\n"


class TestTailBoundScope:
    @pytest.mark.parametrize("V, u, grid, N, certified", [
        ("1.004*(1+theta_1^2)", "t*cos(1.03*theta_1)", "-0.5:0.5:33,0:0.1:33", 7, False),
        ("1.004*(1+theta_1^2)", "t*cos(1.03*theta_1)", "-0.5:0.5:33,0:0.5:33", 14, False),
        ("0.3*(1+theta_1^2)", "t*cos(3*theta_1)", "-1:1:33,0:1:33", 14, False),
        ("1.03", "t*sin(2.05*theta_1)", "0:6.283185307179586:33,0:1:33", 8, True),
        ("1", "t*exp(sin(theta_1))", "0:6.283185307179586:33,0:1:33", 18, True),
        ("1", "t*exp(sin(theta_1))", "0:6.283185307179586:33,0:1:33", 24, True),
        ("1", "t/theta_1", "1:2:33,0:1:33", 6, True),
        ("1", "t*theta_1^-2 + t*theta_1", "1:2:33,0:1:33", 6, True),
    ], ids=["variable-V-T0.1", "variable-V-T0.5", "variable-V-T1", "constant-V",
            "exp-sin-N18", "exp-sin-N24", "negative-power", "negative-and-positive-power"])
    def test_certificate_is_absent_or_dominates_the_truncation(
            self, tmp_path, V, u, grid, N, certified):
        """The reported tail, when there is one, is at least the truncation
        error |F_N - F_M| at M = N + 16, on the same grid and time rule,
        so no quadrature error enters.  A variable velocity makes every
        operator order up to k on x0^k x1, which the growth fit does not
        read, so its series carry no certificate.  A negative theta power
        is no polynomial degree: every derivative of it is nonzero, so its
        tail is not the exact 0 of a low degree."""
        out = tmp_path / "y.csv"
        assert run(["solve", "transport", "--V", V, "--u", u, "--N", str(N),
                    "--grid", grid, "--out", str(out)]) == 0
        bound = read_report(str(out) + ".report.json")["bound"]
        g = ii.Grid.from_spec(grid)
        signal = ii.InputSignal.symbolic(ex.parse(u, 1))
        f_n, f_m = (ii.evaluate_series(pde.transport_series(
            pde.TransportSpec(ex.parse(V, 1), 0, n)), signal, g).values
            for n in (N, N + 16))
        assert bound is None or bound["tail"] >= np.max(np.abs(f_m - f_n))
        assert bound is not None or not certified

    def test_bind_of_the_input_letter_gets_the_certificate_of_u(self, tmp_path):
        """--bind 1=EXPR and --u EXPR give the series' one input letter the
        same signal, so they write the same CSV and report the same
        certificate."""
        u, grid = "t*sin(2.05*theta_1)", "0:6.28:33,0:1:33"
        path = tmp_path / "c.series"
        se.save_series(pde.transport_series(pde.TransportSpec(1.03, 0, 8)), path)
        argv = ["eval", "--series", str(path)]
        results = []
        for i, spelling in enumerate((["--u", u], ["--bind", f"1={u}"])):
            out = tmp_path / f"{i}.csv"
            assert run([*argv, *spelling, "--grid", grid, "--out", str(out)]) == 0
            results.append((out.read_bytes(), read_report(str(out) + ".report.json")["bound"]))
        assert results[0] == results[1]
        assert results[0][1]["kind"] == "gevrey_tail"

    def test_coefficient_model_dominates_its_data_through_N(self, tmp_path):
        """alpha_k = 1.5^k, tripled at odd k, through N = 8: the
        least-squares model alone gave 2.39 at alpha_1 = 4.5 and 8.99 at
        alpha_3 = 10.125.  K_alpha is raised as K_u is, so that
        K_alpha M^k (k!)^s is at least every alpha_k (to rounding)."""
        alphas = [1.5 ** k * (3 if k % 2 else 1) for k in range(9)]
        c = se.series_from_coeffs(1, {word(*["x0"] * k, "x1"): do.monomial(ex.const(a), (k,))
                                      for k, a in enumerate(alphas)})
        out = tmp_path / "y.csv"
        assert run(["eval", "--series", write_series(tmp_path / "c.series", c),
                    "--u", "t*sin(2*theta_1)", "--grid", "0:1:33,0:1:33",
                    "--out", str(out)]) == 0
        g = read_report(str(out) + ".report.json")["bound"]["constants"]
        for k, a in enumerate(alphas):
            assert g["K_alpha"] * g["M"] ** k * math.factorial(k) ** g["s"] >= a * (1 - 1e-12)

    @pytest.mark.parametrize("u, N, kind", [
        ("t*theta_1^3", 6, "exact"), ("t*theta_1", 6, "exact"), ("t", 6, "exact"),
        ("t*theta_1^3", 2, "gevrey_tail"),
    ])
    def test_polynomial_input_tail(self, tmp_path, u, N, kind):
        """An input of theta-degree d <= N reaches no truncated input word,
        which differentiates it more than d times: its tail is exactly 0,
        from constants fitted through d.  Zero norms past d once entered
        that fit and gave K_u = 2e193 with a residual of 171."""
        out = tmp_path / "y.csv"
        grid = "0:1:65,0:1:65"
        assert run(["solve", "transport", "--V", "1", "--u", u, "--N", str(N),
                    "--grid", grid, "--out", str(out)]) == 0
        bound = read_report(str(out) + ".report.json")["bound"]
        assert bound["kind"] == kind
        assert all(map(math.isfinite, bound["constants"].values()))
        assert bound["fit_residual"]["input"] < 1
        signal = ii.InputSignal.symbolic(ex.parse(u, 1))
        f_n, f_m = (ii.evaluate_series(pde.transport_series(pde.TransportSpec(1, 0, n)),
                                       signal, ii.Grid.from_spec(grid)).values
                    for n in (N, N + 16))
        assert bound["tail"] >= np.max(np.abs(f_m - f_n))
        assert (bound["tail"] == 0) == (kind == "exact")

    def test_near_theta_free_input_is_fitted(self, tmp_path):
        """t*(1 + 1e-15*sin(theta_1)) depends on theta_1: its constants
        dominate the input norms it was fitted to, each about 3e-15, and
        its tail is not 0.  A 1e-14 test of those norms once called it
        theta-independent and reported R = 0 and a tail of 0.  t^2 has
        theta-degree 0 and keeps its exact tail with R = 0."""
        from cfpde import bounds as bd
        grid = "0:6.283185307179586:65,0:1:65"
        for u, kind in (("t*(1 + 1e-15*sin(theta_1))", "gevrey_tail"), ("t^2", "exact")):
            out = tmp_path / "y.csv"
            assert run(["solve", "transport", "--V", "1", "--u", u, "--N", "8",
                        "--grid", grid, "--out", str(out)]) == 0
            bound = read_report(str(out) + ".report.json")["bound"]
            g = bound["constants"]
            assert bound["kind"] == kind
            assert (g["R"] > 0 and bound["tail"] > 0) == (kind != "exact")
            signal = ii.InputSignal.symbolic(ex.parse(u, 1))
            grid_obj = ii.Grid.from_spec(grid)
            for k in range(9 if g["R"] else 1):
                norm = bd._input_norm_surrogate(signal, bd._split(signal, 1), grid_obj, k)
                assert g["K_u"] * g["R"] ** k >= norm * (1 - 1e-12)

    @pytest.mark.parametrize("argv", [
        ["wave"],
        ["second-order", "--alpha1", "0", "--alpha2", "-1", "--form", "cascade"],
    ])
    def test_no_growth_fit_outside_transport(self, tmp_path, monkeypatch, argv):
        from cfpde import bounds
        calls = []
        for name in ("estimate_growth", "_fit_input"):  # the coefficient and input fits
            monkeypatch.setattr(bounds, name, lambda *a, fit=getattr(bounds, name), **kw:
                                calls.append(a) or fit(*a, **kw))
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

    def test_walk_past_its_budget_exits_one(self, tmp_path, capsys):
        """sin(200 theta_1 t) needs every one of the 65 times, so x1 x1 x1 x1
        would be walked 65^4 ways: one error line, no CSV."""
        c = se.series_from_coeffs(1, {word("x1", "x1", "x1", "x1"): do.identity(1)})
        path = write_series(tmp_path / "c.series", c)
        out = tmp_path / "y.csv"
        assert run(["eval", "--series", path, "--u", "sin(200*theta_1*t)",
                    "--grid", "0:1:65,0:1:65", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: EvaluationError: the inputs' splits make the walk ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_mixed_input_keeps_grid_trie_bytes(self, tmp_path):
        """sin(theta_1 - t) mixes theta and t, so it is interpolated in t:
        cf's CSV is the library's evaluate_series and write_csv, byte for
        byte, and its values are those of the sampled signal, split by its
        SVD, to rounding."""
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
        field = ii.evaluate_series(
            c, ii.InputSignal.symbolic(ex.parse("sin(theta_1-t)", 1)), grid)
        buf = io.StringIO()
        ii.write_csv(field, buf)
        assert out.read_bytes() == buf.getvalue().encode()
        m = grid.meshes()
        samples = np.broadcast_to(np.sin(m["theta_1"] - m["t"]), grid.shape)
        sampled = ii.evaluate_series(
            c, ii.InputSignal.sampled(ii.GridField(grid, samples)), grid).values
        scale = np.max(np.abs(sampled))
        assert np.max(np.abs(field.values - sampled)) <= 1e-13 * scale


class TestCsvStreaming:
    def field(self):
        grid = ii.Grid(((-1.0, 0.5, 4), (0.0, 2.0, 3)), 0.7, 6)
        rng = np.random.default_rng(11)
        return ii.GridField(grid, rng.standard_normal(grid.shape)
                            - 1j * rng.standard_normal(grid.shape))

    def test_bytes_match_write_csv(self, tmp_path):
        field = self.field()
        with cli._atomic_file(str(tmp_path / "y.csv")) as fh:
            assert ii.write_csv(field, fh)
        assert [p.name for p in tmp_path.iterdir()] == ["y.csv"]
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
        with pytest.raises(cli.CliError, match=f"^cannot write {re.escape(str(target))}: "
                                               "disk full$"):
            with cli._atomic_file(str(target)) as fh:
                ii.write_csv(self.field(), fh)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["y.csv"]
        assert target.read_text() == "old\n"


def _mostly(valid, invalid):
    """One of the valid values four times in five, else an invalid one."""
    return st.integers(0, 4).flatmap(
        lambda k: st.sampled_from(invalid if k == 0 else valid))


class TestArgvFuzz:
    """Random argv for every subcommand but verify: cf exits 0, 1 or 2, no
    exception escapes main, no warning is issued, and a failure prints
    exactly one line.  Grids stay at 9 points per axis and truncations at
    N <= 4, so a run that gets through does little work."""

    bad_numbers = ["1e308", "-1e308", "1e-320", "nan", "inf", "-inf", "abc", "", "0", "-1"]
    numbers = _mostly(["0", "1", "-1", "0.5", "0.25", "2", "-0.75", "1+2i", "1+0.5*sin(theta_1)"],
                      bad_numbers)
    positive = _mostly(["1", "0.5", "0.25", "2", "3"], bad_numbers)
    grids = _mostly(["0:1:5,0:1:5", "0:6.283185307179586:9,0:1:9", "-0.5:0.5:9,0:0.1:4",
                     "0:1:2,0:1:2", "1:1.5:3,0:2:7"],
                    ["0:1:3,0:1:3,0:1:4", "0:1", "0:1:5", "1:0:5,0:1:5", "0:1:5,1:2:5",
                     "0:nan:5,0:1:5", "0:1:1,0:1:5", "a:b:c,0:1:5", "0:1:5,0:1:1",
                     "0:1e308:5,0:1:5", "-1e308:1e308:5,0:1:5", "0:1:5,0:1e-320:5",
                     "0:1:5,,0:1:5", ""])
    exprs = _mostly(["t", "sin(theta_1)*t", "theta_1^2", "-t", "2i*t", "0", "exp(t)^3",
                     "cos(theta_1)/2", "t*exp(-theta_1)", "1.5", "sin(theta_1 - t)",
                     "t*sin(theta_1*t)"],
                    ["t*theta_2", "1/theta_1", "1/t", "exp(1e308*t)", "exp(800*theta_1)*t",
                     "(1+theta_1)^100", "1e308*1e308", "nan", "sin(", "", "t^-1",
                     "theta_1^-2", "exp(exp(exp(10*theta_1)))"])
    thetas = _mostly(["1", "0.5", "-1", "0", "sin(theta_1)", "1+theta_1^2", "cos(2*theta_1)/4"],
                     ["t", "theta_2", "1/theta_1", "nan", "1e308*1e308", "sin(", "",
                      "exp(800*theta_1)", "(1+theta_1)^100"])
    binds = _mostly(["1=t", "1=sin(theta_1)*t", "2=t", "1=-t"],
                    ["x=t", "1", "1=", "99=t", "1=sin(", "0=t", "-1=t"])
    # the input options of eval, mostly --u alone or one or two --binds;
    # refused are neither, --u with --bind, two --binds of one letter, and
    # a bind of a letter the series lacks ("99=t", and "2=t" on a series
    # over x0, x1).  A solve takes --u alone and refuses --bind.
    inputs = _mostly([("--u",), ("--bind",), ("--bind", "--bind")], [(), ("--u", "--bind")])
    solve_inputs = _mostly([("--u",)], [(), ("--u", "--bind"), ("--bind",)])
    # bounds estimate reads --u or --series; both or neither are refused
    estimate_inputs = _mostly([("--u",), ("--series",)], [(), ("--u", "--series")])
    orders = _mostly(["0", "1", "2", "3", "4"], ["-1", "x", "1.5", ""])
    series = _mostly(["good.series", "other.series"], ["bad.series", "missing.series", "."])
    outs = _mostly(["out.file"], ["none/out.file", "."])
    input_values = {"--u": exprs, "--bind": binds, "--series": series}

    # the option strings of each subcommand and the values each can take
    two = {"--left": series, "--right": series, "--out": outs}
    solve = {"input": solve_inputs, "--N": orders, "--grid": grids, "--out": outs}
    OPTIONS = {
        ("algebra", "shuffle"): two, ("algebra", "sum"): two,
        ("algebra", "compose"): two,
        ("algebra", "shift"): {"--letter": _mostly(["x1", "x0", "x2"], ["y", "", "x", "x1 x2"]),
                               "--series": series, "--out": outs},
        ("algebra", "truncate"): {"--series": series, "--N": orders, "--out": outs},
        ("solve", "transport"): {"--V": thetas, "--y0": thetas, **solve},
        ("solve", "wave"): solve,
        ("solve", "second-order"): {
            "--alpha1": numbers, "--alpha2": numbers, "--y0": thetas, "--y1": thetas,
            "--form": _mostly(["direct", "cascade", "partial-fraction"], ["x", ""]),
            **solve},
        ("eval",): {"--series": series, "input": inputs, "--grid": grids, "--out": outs},
        ("bounds", "check"): {
            **dict.fromkeys(["--K-alpha", "--M", "--K-u", "--R", "--T"], positive),
            "--s": _mostly(["0", "0.25", "0.5", "1"], bad_numbers), "--N": orders},
        ("bounds", "estimate"): {"input": estimate_inputs, "--grid": grids,
                                 "--k-max": _mostly(["2", "3", "8"], ["1", "-1", "x"])},
    }

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command=st.sampled_from(list(OPTIONS)))
    def test_exit_codes_and_one_line_errors(self, tmp_path, monkeypatch, capsys,
                                            data, command):
        monkeypatch.chdir(tmp_path)
        if not os.path.exists("good.series"):
            se.save_series(pde.transport_series(pde.TransportSpec(V=1.0, y0=0, N=2)),
                           "good.series")
            texts = {  # other.series has no theta support, so it shuffles with good
                "other.series": "alphabet=x0,x2\nx2 :: 1 * D[0]\nx0 x2 :: 0.5 * D[0]\n",
                "bad.series": "alphabet=x0,x1\nx1 :: 1 * D[\n"}
            for name, text in texts.items():
                with open(name, "w") as fh:
                    fh.write("dim=1 maxlen=2 " + text)
        argv = list(command)
        for option, values in self.OPTIONS[command].items():
            if data.draw(st.integers(0, 9)) == 0:  # leave it out, now and then
                continue
            if option == "input":
                for flag in data.draw(values):
                    argv += [flag, data.draw(self.input_values[flag])]
            else:
                argv += [option] if values is None else [option, data.draw(values)]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        # a cf process prints each warning on stderr too
        assert [str(w.message) for w in caught] == []
        if code:
            assert err.endswith("\n") and err.count("\n") == 1, err
