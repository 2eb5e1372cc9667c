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
import gc
import json
import math
import os
import re
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
    when the block ends normally and is removed when it raises.  An
    OSError on the way is a one-line validation failure."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
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
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from e


def _report_path(out: str) -> str:
    """Every output file gets its report beside it."""
    return out + ".report.json"


def _check_writable(out: str) -> None:
    """Fail before any work starts when the output or its report cannot
    be created because its directory is missing or the path names a
    directory, or when the report is the output file, which it would
    replace."""
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory):
        raise CliError(f"cannot write {out}: no directory {directory}")
    report = _report_path(out)
    for path in (out, report):
        if os.path.isdir(path):
            raise CliError(f"cannot write {path}: it is a directory")
    if os.path.realpath(report) == os.path.realpath(out):
        raise CliError(f"cannot write {report}: it is also the output {out}")


def _report(out: str, command: str, params: dict, series_obj: se.GenSeries,
            bound, started: float) -> None:
    payload = {
        "command": command,
        "params": params,
        "truncation": {"max_len": series_obj.max_len,
                       "exact_len": series_obj.exact_len},
        "bound": bound,
        "runtime_ms": int((time.monotonic() - started) * 1000),
    }
    with _atomic_file(_report_path(out)) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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


def _spelled(pattern: str, convert, example: str):
    """An argparse type that takes a number only as cf spells it, in ASCII."""
    def number(text: str):
        if not re.fullmatch(pattern, text):
            raise argparse.ArgumentTypeError(f"expected a number such as {example}, "
                                             f"not {text!r}")
        return convert(text)  # int() refuses past 4300 digits: "invalid number value"
    return number


_integer_arg = _spelled("-?(0|[1-9][0-9]*)", int, "8")
_real_arg = _spelled(f"-?{ex.NUMBER}", float, "0.5")


def _binding_from_args(args, dim: int, letters):
    """The input of --u, or the signals of cf eval's --bind options by
    letter id; each --bind names one of the series' input letters, once."""
    from . import iterint as ii
    if args.u is not None:
        return ii.InputSignal.symbolic(_parse_expr_arg(args.u, dim, "input"))
    binding = {}
    for item in args.bind:
        if "=" not in item:
            raise CliError(f"bad --bind {item!r}; expected k=expr")
        k_text, expr_text = item.split("=", 1)
        if re.fullmatch("0|-[0-9]+", k_text):
            raise CliError(f"bad --bind {item!r}; k must be an input letter id "
                           "1, 2, ... (x0 is the drift)")
        if not re.fullmatch("[1-9][0-9]*", k_text):  # the digits of a letter xk
            raise CliError(f"bad input letter id {k_text!r}")
        if "x" + k_text not in [l.text() for l in letters]:  # int() takes <= 4300 digits
            raise CliError(f"bad --bind {item!r}; the series has no letter x{k_text}")
        k = int(k_text)
        if k in binding:
            raise CliError(f"bad --bind {item!r}; x{k} is already bound")
        binding[k] = ii.InputSignal.symbolic(_parse_expr_arg(expr_text, dim, "input"))
    return binding


def _grid_from_arg(text: str) -> ii.Grid:
    from . import iterint as ii
    try:
        return ii.Grid.from_spec(text)
    except ii.EvaluationError as e:
        raise CliError(f"bad --grid: {e}") from e


@contextlib.contextmanager
def _evaluation_errors():
    """The numeric part of a handler.  iterint and numpy are imported
    here, after the handler has imported every other cfpde module it
    runs (bounds among them, when it will), so that numpy's import reuses
    the memory the compiler freed: about 2 MB less resident at the start
    of a solve.  An EvaluationError raised inside exits 1 with the
    message main() gives the other model errors, so that main() itself
    need not import iterint.

    numpy's floating-point warnings are off inside: an overflow or an
    invalid operation leaves an inf or nan, which the handler's own checks
    report in one line, and each warning would add lines to stderr."""
    from . import iterint as ii
    import numpy as np
    try:
        with np.errstate(all="ignore"):
            yield
    except ii.EvaluationError as e:
        raise CliError(f"{type(e).__name__}: {e}") from e


def _solver_series(args) -> tuple[se.GenSeries, dict]:
    """The series cf solve builds with pde, and the parameters it read.
    Every coefficient and initial datum is an expression in theta_1; the
    names are in the order of the spec's fields."""
    from . import pde
    names = {"transport": ("V", "y0"), "wave": (),
             "second-order": ("alpha1", "alpha2", "y0", "y1")}[args.kind]
    exprs = [_parse_expr_arg(getattr(args, k), 1, "--" + k) for k in names]
    params = {"N": args.N, **{k: getattr(args, k) for k in names}}
    if args.kind == "transport":
        return pde.transport_series(pde.TransportSpec(*exprs, args.N)), params
    if args.kind == "wave":
        return pde.wave_series(args.N), params
    params["form"] = args.form
    return pde.second_order_series(pde.SecondOrderSpec(*exprs, args.N, args.form)), params


def _cmd_field(args, command: str, started: float) -> int:
    """cf solve and cf eval: the field F_c[u] of a series c on a grid.  A
    solve builds c with pde and an eval loads it; from there the steps
    are the same."""
    _check_writable(args.out)
    if args.command == "solve":
        series_obj, params = _solver_series(args)
    else:
        series_obj = _load_series(args.series)
        params = {"series": args.series}
    # only a series of the shape the growth fits read, with the three
    # norms they need, has a certificate; bounds is imported for it alone
    degree = se.linear_degree(series_obj)
    certified = degree is not None and degree >= 2
    if certified:
        from . import bounds as bd  # it imports iterint first
    with _evaluation_errors():
        from . import iterint as ii
        grid = _grid_from_arg(args.grid)
        if args.command == "solve" and grid.dim != 1:
            raise CliError("solvers are one-parameter; pass one theta axis")
        if series_obj.dim != grid.dim:
            raise CliError(
                f"series dim {series_obj.dim} does not match grid dim {grid.dim}")
        u = _binding_from_args(args, series_obj.dim, series_obj.input_letters())
        params["grid"] = args.grid
        params["u"] = args.u if args.u is not None else dict(
            item.split("=", 1) for item in args.bind)
        field = ii.evaluate_series(series_obj, u, grid)
        # the rows stream into the temporary file; a NaN or infinity is a
        # numeric failure raised before it is put in place, so no file is left
        with _atomic_file(args.out) as fh:
            if not ii.write_csv(field, fh):
                raise NumericFailure("output field contains NaN or infinity")
        # the field is written; holding it through the growth fit would
        # add its size to the fit's peak memory
        del field
        bound = bd.tail_certificate(series_obj, u, grid) if certified else None
    _report(args.out, command, params, series_obj, bound, started)
    return 0


def _cmd_algebra(args, command: str, started: float) -> int:
    _check_writable(args.out)
    if args.kind in ("shuffle", "sum", "compose"):
        left, right = _load_series(args.left), _load_series(args.right)
        if args.kind == "shuffle":
            out = se.shuffle_series(left, right)
        elif args.kind == "sum":
            out = se.parallel_sum(left, right)
        else:
            out = se.compose(left, right)
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
    with _atomic_file(args.out) as fh:
        fh.write(se.series_to_text(out))
    _report(args.out, command, params, out, None, started)
    return 0


def _cmd_bounds(args, command: str, started: float) -> int:
    from . import bounds as bd
    if args.kind == "check":
        if args.N is not None and args.N < 0:
            raise CliError(f"bad --N {args.N}; a truncation is at least 0")
        try:
            g = bd.GrowthData(args.K_alpha, args.M, args.K_u, args.R, args.s, args.T)
        except ValueError as e:
            raise CliError(str(e)) from e
        # -1 is the full series
        tails = {str(n): bd.gevrey_tail(g, n) for n in (args.N, -1) if n is not None}
        print(json.dumps({
            "constants": g.as_dict(),
            "MRT": g.mrt if math.isfinite(g.mrt) else None,
            "converges": g.s < 1 or g.mrt < 1,
            "tail_at_N": {n: tail if math.isfinite(tail) else None
                          for n, tail in tails.items()},
        }, indent=2, sort_keys=True))
        return 0
    with _evaluation_errors():
        from . import iterint as ii
        grid = _grid_from_arg(args.grid)
        if args.u is not None:
            target = ii.InputSignal.symbolic(_parse_expr_arg(args.u, grid.dim, "input"))
        else:
            target = _load_series(args.series)
        try:
            fit = bd.estimate_growth(target, grid, args.k_max)
        except ValueError as e:
            raise CliError(str(e)) from e
    # only the constants the fit produced: the input's or the coefficients'
    fitted = ("K_u", "R", "T") if args.u is not None else ("K_alpha", "M", "s")
    print(json.dumps({
        "constants": {name: getattr(fit.data, name) for name in fitted},
        "residual": fit.residual,
        "log_norms": list(fit.log_norms),
    }, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args, command: str, started: float) -> int:
    from . import acceptance
    only = None
    if args.only is not None:
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
    sp = alg_sub.add_parser("shift")
    sp.add_argument("--letter", required=True)
    sp.add_argument("--series", required=True)
    sp.add_argument("--out", required=True)
    sp = alg_sub.add_parser("truncate")
    sp.add_argument("--series", required=True)
    sp.add_argument("--N", type=_integer_arg, required=True)
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
        sp.add_argument("--u", required=True)
        sp.add_argument("--N", type=_integer_arg, required=True)
        sp.add_argument("--grid", required=True)
        sp.add_argument("--out", required=True)

    ev = sub.add_parser("eval", help="evaluate a series file on a grid")
    ev.add_argument("--series", required=True)
    given = ev.add_mutually_exclusive_group(required=True)
    given.add_argument("--u")
    given.add_argument("--bind", action="append", metavar="K=EXPR")
    ev.add_argument("--grid", required=True)
    ev.add_argument("--out", required=True)

    b = sub.add_parser("bounds", help="convergence certificates")
    b_sub = b.add_subparsers(dest="kind", required=True)
    sp = b_sub.add_parser("check")
    sp.add_argument("--K-alpha", dest="K_alpha", type=_real_arg, required=True)
    sp.add_argument("--M", type=_real_arg, required=True)
    sp.add_argument("--K-u", dest="K_u", type=_real_arg, required=True)
    sp.add_argument("--R", type=_real_arg, required=True)
    sp.add_argument("--s", type=_real_arg, required=True)
    sp.add_argument("--T", type=_real_arg, required=True)
    sp.add_argument("--N", type=_integer_arg, default=None)
    sp = b_sub.add_parser("estimate")
    given = sp.add_mutually_exclusive_group(required=True)
    given.add_argument("--u")
    given.add_argument("--series")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--k-max", dest="k_max", type=_integer_arg, default=8)

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


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join "--opt VALUE" into "--opt=VALUE" when VALUE starts with a
    single "-" ("-t", "-sin(theta_1)", "-0.5:0.5:65,0:1:129"), which
    argparse would otherwise read as an unknown option.  "-h" is the
    parser's one single-dash option and is never joined."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2
                and "=" not in out[-1] and arg.startswith("-")
                and not arg.startswith("--") and arg != "-h"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


_MESSAGE_WIDTH = 200  # characters of a failure message printed before "..."


def _fail(kind: str, message, code: int) -> int:
    """Print the one line "kind: message" on standard error and return
    code.  A message that echoes a long input line is clipped to
    _MESSAGE_WIDTH characters, so the line stays readable."""
    text = str(message)
    if len(text) > _MESSAGE_WIDTH:
        text = text[:_MESSAGE_WIDTH] + "..."
    print(f"{kind}: {text}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    started = time.monotonic()
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_dash_values(list(argv)))
        command = " ".join(["cf", args.command]
                           + ([args.kind] if getattr(args, "kind", None) else []))
        return _HANDLERS[args.command](args, command, started)
    except CliError as e:
        return _fail("error", e, 1)
    except (NumericFailure, ex.PoleError, se.NonFinite) as e:
        return _fail("numeric failure", e, 2)
    except ArithmeticError as e:  # a float overflow, or a sum that never settles
        return _fail("numeric failure", e.args[-1] if e.args else type(e).__name__, 2)
    except MemoryError as e:
        return _fail("numeric failure", "out of memory" + (f": {e}" if str(e) else ""), 2)
    except (se.SeriesError, do.DiffOpError, ex.ExprError) as e:
        return _fail("error", f"{type(e).__name__}: {e}", 1)


def entry() -> int:
    """The process entry of ``cf`` and ``python -m cfpde.cli``.

    A ``cf`` process is short and its work path makes no reference
    cycles, so the cyclic collector would only spend time: it is off
    before the subcommand imports its modules.  ``gc.freeze()`` at the
    end moves every object to the permanent generation, which the
    collections at interpreter shutdown do not traverse.  A standard
    output whose reader has gone is exit code 1, without a traceback."""
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()  # a gone reader fails here, not at shutdown
        return code
    except BrokenPipeError:  # what is left goes to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
