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

A solve is a build plus an eval: both run one handler, which differs
only in where the series comes from.

Grid syntax is ``a:b:n`` per axis, theta axes first and the time axis
last.  Every output file gets a sibling ``<out>.report.json`` recording
the effective parameters (the input among them), the ``max_len`` and
``exact_len`` of the series written or evaluated, and the tail bound of
``bounds.tail_certificate`` when one is available.  Files are written
atomically and with a fixed serialization order, so identical jobs
produce identical bytes.

Exit codes: 1 for validation failures, 2 for numeric failures (NaN or
infinity in an output field or series, a float overflow, or memory
exhausted).

Each subcommand imports only the modules it runs: ``algebra`` never
loads numpy, ``iterint``, ``bounds`` or ``pde``.  ``cf`` and ``python -m
cfpde.cli`` run through ``entry``, which keeps the cyclic garbage
collector off for the life of the process; ``main`` called as a library
function leaves it as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
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


def _check_writable(*paths: str) -> None:
    """Fail before any work starts when an output cannot be created
    because its directory is missing or the path names a directory, or
    when two outputs are one file, so that one would replace the other."""
    seen: dict[str, str] = {}  # resolved path -> path as given
    for path in paths:
        if os.path.isdir(path):
            raise CliError(f"cannot write {path}: it is a directory")
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise CliError(f"cannot write {path}: no directory {directory}")
        resolved = os.path.realpath(path)
        if resolved in seen:
            raise CliError(f"cannot write {path}: it is also the output {seen[resolved]}")
        seen[resolved] = path


@contextlib.contextmanager
def _write_errors(path: str):
    """An OSError while writing path is a one-line validation failure."""
    try:
        yield
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from e


def _write_atomic(path: str, data: str) -> None:
    with _write_errors(path), _atomic_file(path) as fh:
        fh.write(data)


def _write_csv_atomic(path: str, field: ii.GridField) -> None:
    """Stream the CSV rows into the temporary file, never the whole text
    in memory.  A NaN or infinity in the field is a numeric failure,
    raised before the file is put in place, so no file is left."""
    from . import iterint as ii
    with _atomic_file(path) as fh:
        if not ii.write_csv(field, fh):
            raise NumericFailure("output field contains NaN or infinity")


def _report(path: str, command: str, params: dict, series_obj: se.GenSeries,
            bound, started: float) -> None:
    payload = {
        "command": command,
        "params": params,
        "truncation": {"max_len": series_obj.max_len,
                       "exact_len": series_obj.exact_len},
        "bound": bound,
        "runtime_ms": int((time.monotonic() - started) * 1000),
    }
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_series(path: str) -> se.GenSeries:
    """The series stored at path; a file that cannot be read or parsed
    is a one-line validation failure."""
    try:
        return se.load_series(path)
    except (OSError, se.SeriesError, ex.ExprError, do.DiffOpError) as e:
        raise CliError(f"cannot load series: {e}") from e


def _parse_expr_arg(text: str, dim: int, what: str) -> ex.Poly:
    try:
        return ex.parse(text, dim)
    except ex.ExprError as e:
        raise CliError(f"bad {what} expression: {e}") from e


def _complex_arg(text: str, what: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise CliError(f"bad {what} {text!r}; expected a number such as "
                       "-1.5 or 1+2j") from None


def _binding_from_args(args, dim: int, letters):
    """The input of --u, or the signals of the --bind options by letter
    id; each --bind names one of the series' input letters, once."""
    from . import iterint as ii
    if args.u is not None:
        if args.bind:
            raise CliError("give --u or --bind, not both")
        return ii.InputSignal.symbolic(_parse_expr_arg(args.u, dim, "input"))
    binding = {}
    for item in args.bind or []:
        if "=" not in item:
            raise CliError(f"bad --bind {item!r}; expected k=expr")
        k_text, expr_text = item.split("=", 1)
        try:
            k = int(k_text)
        except ValueError:
            raise CliError(f"bad input letter id {k_text!r}") from None
        if k < 1:
            raise CliError(f"bad --bind {item!r}; k must be an input letter id "
                           "1, 2, ... (x0 is the drift)")
        if k in binding:
            raise CliError(f"bad --bind {item!r}; x{k} is already bound")
        if k not in letters:
            raise CliError(f"bad --bind {item!r}; the series has no letter x{k}")
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


def _evaluation_errors(handler):
    """Wrap a handler that imports iterint: an EvaluationError that
    reaches it exits 1 with the message main() gives the other model
    errors, so that main() itself need not import iterint.

    numpy's floating-point warnings are off inside it: an overflow or an
    invalid operation leaves an inf or nan, which the handler's own checks
    report in one line, and each warning would add lines to stderr."""
    @functools.wraps(handler)
    def run(args, command: str, started: float) -> int:
        # every cfpde module the handler runs is compiled before numpy is
        # imported, so that numpy's import reuses the memory the compiler
        # freed: about 2 MB less resident at the start of a solve
        if args.command == "solve":
            from . import pde  # noqa: F401
        if args.command == "bounds" or getattr(args, "kind", None) == "transport":
            from . import bounds  # noqa: F401  (it imports iterint first)
        from . import iterint as ii
        import numpy as np
        try:
            with np.errstate(all="ignore"):
                return handler(args, command, started)
        except ii.EvaluationError as e:
            raise CliError(f"{type(e).__name__}: {e}") from e
    return run


def _solver_series(args) -> tuple[se.GenSeries, dict]:
    """The series cf solve builds with pde, and the parameters it read."""
    from . import pde
    params = {"N": args.N}
    if args.kind == "transport":
        v = _parse_expr_arg(args.V, 1, "--V")
        y0 = _parse_expr_arg(args.y0, 1, "--y0")
        params.update({"V": args.V, "y0": args.y0})
        return pde.transport_series(pde.TransportSpec(v, y0, args.N)), params
    if args.kind == "wave":
        return pde.wave_series(args.N), params
    form = pde.SecondOrderForm(args.form)
    y0 = _parse_expr_arg(args.y0, 1, "--y0")
    y1 = _parse_expr_arg(args.y1, 1, "--y1")
    spec = pde.SecondOrderSpec(_complex_arg(args.alpha1, "--alpha1"),
                               _complex_arg(args.alpha2, "--alpha2"),
                               y0, y1, args.N, form)
    params.update({"alpha1": args.alpha1, "alpha2": args.alpha2,
                   "y0": args.y0, "y1": args.y1, "form": args.form})
    return pde.second_order_series(spec), params


@_evaluation_errors
def _cmd_field(args, command: str, started: float) -> int:
    """cf solve and cf eval: the field F_c[u] of a series c on a grid.  A
    solve builds c with pde and an eval loads it; from there the steps
    are the same."""
    from . import iterint as ii
    report = args.report or args.out + ".report.json"
    _check_writable(args.out, report)
    grid = _grid_from_arg(args.grid)
    if args.command == "solve":
        if grid.dim != 1:
            raise CliError("solvers are one-parameter; pass one theta axis")
        series_obj, params = _solver_series(args)
    else:
        series_obj = _load_series(args.series)
        params = {"series": args.series}
    if series_obj.dim != grid.dim:
        raise CliError(
            f"series dim {series_obj.dim} does not match grid dim {grid.dim}")
    u = _binding_from_args(args, series_obj.dim, series_obj.input_letters())
    params["grid"] = args.grid
    params["u"] = args.u if args.u is not None else dict(
        item.split("=", 1) for item in args.bind)
    field = ii.evaluate_series(series_obj, u, grid)
    with _write_errors(args.out):
        _write_csv_atomic(args.out, field)
    # the field is written; holding it through the growth fit would add
    # its size to the fit's peak memory
    del field
    bound = None
    # the growth fit reads D^k on x0^k x1, a transport shape
    if getattr(args, "kind", None) == "transport":
        from . import bounds as bd
        bound = bd.tail_certificate(series_obj, u, grid, args.N)
    _report(report, command, params, series_obj, bound, started)
    return 0


def _cmd_algebra(args, command: str, started: float) -> int:
    _check_writable(args.out, args.out + ".report.json")
    if args.kind in ("shuffle", "sum", "compose"):
        left, right = _load_series(args.left), _load_series(args.right)
        if args.kind == "shuffle":
            out = se.shuffle_series(left, right)
        elif args.kind == "sum":
            out = se.parallel_sum(left, right)
        else:
            out = se.compose(left, right, unital=args.unital)
        params = {"left": args.left, "right": args.right}
    elif args.kind == "shift":
        try:
            letters = parse_word(args.letter).letters
        except ValueError:
            letters = ()
        if len(letters) != 1:
            raise CliError(f"bad --letter {args.letter!r}; expected one letter such as x1")
        out = se.left_shift(letters[0], _load_series(args.series))
        params = {"series": args.series, "letter": args.letter}
    else:  # truncate
        out = se.truncate(_load_series(args.series), args.N)
        params = {"series": args.series, "N": args.N}
    _write_atomic(args.out, se.series_to_text(out))
    _report(args.out + ".report.json", command, params, out, None, started)
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
        out: dict = {"constants": g.as_dict(),
                     "MRT": g.mrt if math.isfinite(g.mrt) else None}
        if g.s == 1:
            res = bd.geometric_bound(g)
            out.update({"converges": res.converges,
                        "bound": res.bound if math.isfinite(res.bound) else None})
        else:
            tails = {str(n): bd.gevrey_tail(g, n) for n in (args.N, -1) if n is not None}
            out.update({"converges": True,
                        "tail_at_N": {n: tail if math.isfinite(tail) else None
                                      for n, tail in tails.items()}})
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    if args.u is not None and args.series is not None:
        raise CliError("give --u or --series, not both")
    grid = _grid_from_arg(args.grid)
    if args.u is not None:
        target = ii.InputSignal.symbolic(_parse_expr_arg(args.u, grid.dim, "input"))
    elif args.series is not None:
        target = _load_series(args.series)
    else:
        raise CliError("bounds estimate needs --u or --series")
    try:
        fit = bd.estimate_growth(target, grid, args.k_max)
    except ValueError as e:
        raise CliError(str(e)) from e
    g = fit.data
    print(json.dumps({
        "constants": g.as_dict(),
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
        if only[0] < 1 or only[-1] > len(acceptance.CRITERIA):
            raise CliError(f"bad --only {args.only!r}; criteria are "
                           f"1-{len(acceptance.CRITERIA)}")
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
    "solve": _cmd_field,
    "eval": _cmd_field,
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
    except (NumericFailure, ex.PoleError, se.NonFinite) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:  # a float overflow, or a sum that never settles
        detail = e.args[-1] if e.args else type(e).__name__
        print(f"numeric failure: {detail}", file=sys.stderr)
        return 2
    except MemoryError as e:
        detail = f": {e}" if str(e) else ""
        print(f"numeric failure: out of memory{detail}", file=sys.stderr)
        return 2
    except (se.SeriesError, do.DiffOpError, ex.ExprError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entry() -> int:
    """The process entry of ``cf`` and ``python -m cfpde.cli``.

    A ``cf`` process is short and its work path makes no reference
    cycles, so the cyclic collector would only spend time: it is off
    before the subcommand imports its modules.  ``gc.freeze()`` at the
    end moves every object to the permanent generation, which the
    collections at interpreter shutdown do not traverse."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
