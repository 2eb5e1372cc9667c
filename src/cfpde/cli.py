"""Command-line front end.

Subcommands:

* ``cf algebra {shuffle,sum,compose,shift,truncate}`` - interconnection
  algebra on series files.
* ``cf solve {transport,wave,second-order}`` - build a solution series,
  evaluate it on a grid, write the field as CSV.
* ``cf eval`` - evaluate a series file against an input on a grid.
* ``cf bounds {check,estimate}`` - convergence certificates and growth
  constant fits.
* ``cf verify`` - run the acceptance checks.

Grid syntax is ``a:b:n`` per axis, theta axes first and the time axis
last.  Every numeric output file gets a sibling ``<out>.report.json``
recording the effective parameters, the truncation level, and the tail
bound when one is available.  Files are written atomically and with a
fixed serialization order, so identical jobs produce identical bytes.

Exit codes: 1 for validation failures, 2 for numeric failures (NaN or
infinity in an output, or memory exhausted).

Each subcommand imports only the modules it runs: ``algebra`` never
loads numpy, ``iterint``, ``bounds`` or ``pde``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import time

from . import diffop as do
from . import expr as ex
from . import series as se
from .words import parse_word


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


class NumericFailure(Exception):
    """NaN/divergence in a numeric output; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file to write path's new contents into; it replaces path
    when the block ends normally and is removed when it raises."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cf-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
            # mkstemp creates the file 0600; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_atomic(path: str, data: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def _write_csv_atomic(path: str, field: ii.GridField) -> None:
    """Stream the CSV rows into the temporary file, never the whole text
    in memory."""
    from . import iterint as ii
    with _atomic_file(path) as fh:
        ii.write_csv(field, fh)


def _report(path: str, command: str, params: dict, truncation, bound,
            started: float) -> None:
    payload = {
        "command": command,
        "params": params,
        "truncation": truncation,
        "bound": bound,
        "runtime_ms": int((time.monotonic() - started) * 1000),
    }
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _check_finite(field: ii.GridField) -> None:
    import numpy as np
    if not np.all(np.isfinite(field.values)):
        raise NumericFailure("output field contains NaN or infinity")


def _parse_expr_arg(text: str, dim: int, what: str) -> ex.Expr:
    try:
        return ex.parse(text, dim)
    except ex.ExprError as e:
        raise CliError(f"bad {what} expression: {e}") from e


def _binding_from_args(args, dim: int):
    from . import iterint as ii
    binding = {}
    if args.u is not None:
        return ii.InputSignal.symbolic(_parse_expr_arg(args.u, dim, "input"))
    for item in args.bind or []:
        if "=" not in item:
            raise CliError(f"bad --bind {item!r}; expected k=expr")
        k_text, expr_text = item.split("=", 1)
        try:
            k = int(k_text)
        except ValueError:
            raise CliError(f"bad input letter id {k_text!r}") from None
        binding[k] = ii.InputSignal.symbolic(_parse_expr_arg(expr_text, dim, "input"))
    if not binding:
        raise CliError("provide --u or at least one --bind k=expr")
    return binding


def _grid_from_arg(text: str) -> ii.Grid:
    from . import iterint as ii
    try:
        return ii.Grid.from_spec(text)
    except ii.EvaluationError as e:
        raise CliError(f"bad --grid: {e}") from e


def _transport_bound(series_obj, u_signal, grid, n):
    """Gevrey tail certificate from fitted constants, when the fit lands
    in the sub-factorial regime; null otherwise."""
    from . import bounds as bd
    from . import iterint as ii
    if grid.dim != 1 or not isinstance(u_signal, ii.InputSignal) \
            or not u_signal.is_symbolic:
        return None
    try:
        coeff_fit = bd.estimate_growth(series_obj, grid, k_max=min(n, 8))
        input_fit = bd.estimate_growth(u_signal, grid, k_max=min(n, 8))
        g = dataclasses.replace(coeff_fit.data, K_u=input_fit.data.K_u, R=input_fit.data.R)
        if g.s < 1 and g.R > 0:
            tail = bd.gevrey_tail(g, n)
        elif g.R == 0:
            tail = 0.0
        else:
            geo = bd.geometric_bound(g)
            tail = geo.bound if geo.converges else math.inf
        if not math.isfinite(tail):
            return None
        return {
            "kind": "gevrey_tail" if g.s < 1 else "geometric",
            "constants": {"K_alpha": g.K_alpha, "M": g.M, "K_u": g.K_u,
                          "R": g.R, "s": g.s, "T": g.T, "length": g.length},
            "fit_residual": {"coefficients": coeff_fit.residual,
                             "input": input_fit.residual},
            "tail": tail,
        }
    except (ValueError, ArithmeticError):
        return None


def _evaluation_errors(handler):
    """Wrap a handler that imports iterint: an EvaluationError that
    reaches it exits 1 with the message main() gives the other model
    errors, so that main() itself need not import iterint."""
    @functools.wraps(handler)
    def run(args, command: str, started: float) -> int:
        from . import iterint as ii
        try:
            return handler(args, command, started)
        except ii.EvaluationError as e:
            raise CliError(f"{type(e).__name__}: {e}") from e
    return run


@_evaluation_errors
def _cmd_solve(args, command: str, started: float) -> int:
    from . import iterint as ii
    from . import pde
    grid = _grid_from_arg(args.grid)
    if grid.dim != 1:
        raise CliError("solvers are one-parameter; pass one theta axis")
    params = {"grid": args.grid, "N": args.N}
    if args.kind == "transport":
        v = _parse_expr_arg(args.V, 1, "--V")
        y0 = _parse_expr_arg(args.y0, 1, "--y0")
        series_obj = pde.transport_series(pde.TransportSpec(v, y0, args.N))
        params.update({"V": args.V, "y0": args.y0})
    elif args.kind == "wave":
        series_obj = pde.wave_series(args.N)
    else:
        form = pde.SecondOrderForm(args.form)
        y0 = _parse_expr_arg(args.y0, 1, "--y0")
        y1 = _parse_expr_arg(args.y1, 1, "--y1")
        spec = pde.SecondOrderSpec(complex(args.alpha1), complex(args.alpha2),
                                   y0, y1, args.N, form)
        series_obj = pde.second_order_series(spec)
        params.update({"alpha1": args.alpha1, "alpha2": args.alpha2,
                       "y0": args.y0, "y1": args.y1, "form": args.form})
    u = _binding_from_args(args, 1)
    params["u"] = args.u if args.u is not None else dict(
        item.split("=", 1) for item in args.bind)
    try:
        field = ii.evaluate_series(series_obj, u, grid)
    except ii.EvaluationError as e:
        raise CliError(str(e)) from e
    _check_finite(field)
    _write_csv_atomic(args.out, field)
    # the growth fit reads D^k on x0^k x1, a transport shape
    bound = (_transport_bound(series_obj, u, grid, args.N)
             if args.kind == "transport" else None)
    _report(args.report or args.out + ".report.json", command, params,
            args.N, bound, started)
    return 0


@_evaluation_errors
def _cmd_eval(args, command: str, started: float) -> int:
    from . import iterint as ii
    grid = _grid_from_arg(args.grid)
    try:
        series_obj = se.load_series(args.series)
    except (OSError, se.SeriesError, ex.ExprError, do.DiffOpError) as e:
        raise CliError(f"cannot load series: {e}") from e
    if series_obj.dim != grid.dim:
        raise CliError(
            f"series dim {series_obj.dim} does not match grid dim {grid.dim}")
    u = _binding_from_args(args, series_obj.dim)
    try:
        field = ii.evaluate_series(series_obj, u, grid)
    except ii.EvaluationError as e:
        raise CliError(str(e)) from e
    _check_finite(field)
    _write_csv_atomic(args.out, field)
    _report(args.report or args.out + ".report.json", command,
            {"series": args.series, "grid": args.grid},
            series_obj.max_len, None, started)
    return 0


def _load_two(args):
    try:
        left = se.load_series(args.left)
        right = se.load_series(args.right)
    except (OSError, se.SeriesError, ex.ExprError, do.DiffOpError) as e:
        raise CliError(f"cannot load series: {e}") from e
    return left, right


def _cmd_algebra(args, command: str, started: float) -> int:
    if args.kind in ("shuffle", "sum", "compose"):
        left, right = _load_two(args)
        try:
            if args.kind == "shuffle":
                out = se.shuffle_series(left, right)
            elif args.kind == "sum":
                out = se.parallel_sum(left, right)
            else:
                out = se.compose(left, right, unital=args.unital)
        except (se.SeriesError, do.DimensionMismatch) as e:
            raise CliError(f"{type(e).__name__}: {e}") from e
        params = {"left": args.left, "right": args.right}
    elif args.kind == "shift":
        try:
            series_obj = se.load_series(args.series)
            letter = parse_word(args.letter)[0]
            out = se.left_shift(letter, series_obj)
        except (OSError, ValueError, se.SeriesError, IndexError) as e:
            raise CliError(str(e)) from e
        params = {"series": args.series, "letter": args.letter}
    else:  # truncate
        try:
            series_obj = se.load_series(args.series)
            out = se.truncate(series_obj, args.N)
        except (OSError, se.SeriesError) as e:
            raise CliError(str(e)) from e
        params = {"series": args.series, "N": args.N}
    _write_atomic(args.out, se.series_to_text(out))
    _report(args.out + ".report.json", command, params,
            {"max_len": out.max_len, "exact_len": out.exact_len},
            None, started)
    return 0


@_evaluation_errors
def _cmd_bounds(args, command: str, started: float) -> int:
    from . import bounds as bd
    from . import iterint as ii
    if args.kind == "check":
        try:
            g = bd.GrowthData(args.K_alpha, args.M, args.K_u, args.R,
                              args.s, args.T, args.length)
        except ValueError as e:
            raise CliError(str(e)) from e
        out: dict = {"constants": {
            "K_alpha": g.K_alpha, "M": g.M, "K_u": g.K_u, "R": g.R,
            "s": g.s, "T": g.T, "length": g.length}, "MRT": g.mrt}
        if g.s == 1:
            res = bd.geometric_bound(g)
            out.update({"converges": res.converges,
                        "bound": res.bound if math.isfinite(res.bound) else None})
        else:
            out.update({"converges": True,
                        "tail_at_N": {str(n): bd.gevrey_tail(g, n)
                                      for n in (args.N, -1) if n is not None}})
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    grid = _grid_from_arg(args.grid)
    if args.u is not None:
        target = ii.InputSignal.symbolic(_parse_expr_arg(args.u, grid.dim, "input"))
    elif args.series is not None:
        try:
            target = se.load_series(args.series)
        except (OSError, se.SeriesError) as e:
            raise CliError(f"cannot load series: {e}") from e
    else:
        raise CliError("bounds estimate needs --u or --series")
    try:
        fit = bd.estimate_growth(target, grid, args.k_max)
    except ValueError as e:
        raise CliError(str(e)) from e
    g = fit.data
    print(json.dumps({
        "constants": {"K_alpha": g.K_alpha, "M": g.M, "K_u": g.K_u,
                      "R": g.R, "s": g.s, "T": g.T, "length": g.length},
        "residual": fit.residual,
        "theta_independent": fit.theta_independent,
        "log_norms": list(fit.log_norms),
    }, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args, command: str, started: float) -> int:
    from . import acceptance
    only = None
    if args.only:
        try:
            only = sorted({int(x) for x in args.only.split(",")})
        except ValueError:
            raise CliError(f"bad --only {args.only!r}") from None
    results = acceptance.run(only=only, log=print)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> _Parser:
    p = _Parser(prog="cf", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="interconnection algebra on series files")
    alg_sub = alg.add_subparsers(dest="kind", required=True)
    for kind in ("shuffle", "sum", "compose"):
        sp = alg_sub.add_parser(kind)
        sp.add_argument("--left", required=True)
        sp.add_argument("--right", required=True)
        sp.add_argument("--out", required=True)
        if kind == "compose":
            sp.add_argument("--unital", action="store_true",
                            help="treat empty-word coefficients as identity parts")
    sp = alg_sub.add_parser("shift")
    sp.add_argument("--letter", required=True)
    sp.add_argument("--series", required=True)
    sp.add_argument("--out", required=True)
    sp = alg_sub.add_parser("truncate")
    sp.add_argument("--series", required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="build and evaluate a solution series")
    solve_sub = solve.add_subparsers(dest="kind", required=True)
    for kind in ("transport", "wave", "second-order"):
        sp = solve_sub.add_parser(kind)
        if kind == "transport":
            sp.add_argument("--V", required=True)
            sp.add_argument("--y0", default="0")
        if kind == "second-order":
            sp.add_argument("--alpha1", required=True)
            sp.add_argument("--alpha2", required=True)
            sp.add_argument("--y0", default="0")
            sp.add_argument("--y1", default="0")
            # the values of pde.SecondOrderForm, spelled out so that
            # building the parser does not import pde
            sp.add_argument("--form", default="direct",
                            choices=("direct", "cascade", "partial-fraction"))
        sp.add_argument("--u", default=None)
        sp.add_argument("--bind", action="append", default=None,
                        metavar="K=EXPR")
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--grid", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--report", default=None)

    ev = sub.add_parser("eval", help="evaluate a series file on a grid")
    ev.add_argument("--series", required=True)
    ev.add_argument("--u", default=None)
    ev.add_argument("--bind", action="append", default=None, metavar="K=EXPR")
    ev.add_argument("--grid", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--report", default=None)

    b = sub.add_parser("bounds", help="convergence certificates")
    b_sub = b.add_subparsers(dest="kind", required=True)
    sp = b_sub.add_parser("check")
    sp.add_argument("--K-alpha", dest="K_alpha", type=float, required=True)
    sp.add_argument("--M", type=float, required=True)
    sp.add_argument("--K-u", dest="K_u", type=float, required=True)
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--length", type=float, required=True)
    sp.add_argument("--N", type=int, default=None)
    sp = b_sub.add_parser("estimate")
    sp.add_argument("--u", default=None)
    sp.add_argument("--series", default=None)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--k-max", dest="k_max", type=int, default=8)

    v = sub.add_parser("verify", help="run the acceptance checks")
    v.add_argument("--only", default=None,
                   help="comma-separated criterion numbers")
    return p


_HANDLERS = {
    "algebra": _cmd_algebra,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of the parser and its subcommands."""
    out = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _option_strings(sub)
    return out


def _attach_dash_values(argv: list[str], options: set[str]) -> list[str]:
    """Join "--opt VALUE" into "--opt=VALUE" when VALUE starts with a
    single "-" and is not an option string ("-t", "-sin(theta_1)",
    "-0.5:0.5:65,0:1:129"), which argparse would otherwise read as an
    unknown option."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2
                and "=" not in out[-1] and arg.startswith("-")
                and not arg.startswith("--") and arg not in options):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    started = time.monotonic()
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(
            _attach_dash_values(list(argv), _option_strings(parser)))
        command = " ".join(["cf", args.command]
                           + ([args.kind] if getattr(args, "kind", None) else []))
        return _HANDLERS[args.command](args, command, started)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NumericFailure, ex.PoleError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        detail = f": {e}" if str(e) else ""
        print(f"numeric failure: out of memory{detail}", file=sys.stderr)
        return 2
    except (se.SeriesError, do.DiffOpError, ex.ExprError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
