"""Traced execution of one `cf` call, from outside the program.

    python tracing.py SPANS_JSON CF_ARG...

runs `cfpde.cli.main(CF_ARG...)` in this process after wrapping cfpde's
public functions through their module attributes, so that calls made
inside the package pass through the wrappers too.  Nothing in cfpde is
edited.  Each outermost call of a wrapped function opens a span (name,
start, end, parent); a call made while a span of the same name is open
(recursion, or `load_series` calling `series_from_text`) is counted but
not timed again, so no interval is counted twice.  Self time
is the span's duration minus the durations of its child spans, computed
on the stack as spans close.  Spans stay in memory and are written to
SPANS_JSON with the counters when the call returns.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time
import tracemalloc

# span name -> (module, attribute) pairs wrapped under that name.  A
# module that imported a function by name holds its own binding, which
# is rebound too.
WRAPPED = {
    "expr.simplify": [("expr", "simplify")],
    "expr.evaluate": [("expr", "evaluate")],
    "expr.differentiate": [("expr", "differentiate")],
    "expr.parse": [("expr", "parse")],
    "words.shuffle_words": [("words", "shuffle_words"), ("series", "shuffle_words")],
    "diffop.op_mul": [("diffop", "op_mul")],
    "diffop.op_add": [("diffop", "op_add")],
    "diffop.op_apply": [("diffop", "op_apply")],
    "series.compose": [("series", "compose")],
    "series.shuffle_series": [("series", "shuffle_series")],
    "series.text_io": [("series", "series_to_text"), ("series", "series_from_text"),
                       ("series", "load_series")],
    "pde.build": [("pde", "transport_series"), ("pde", "second_order_series"),
                  ("pde", "wave_series")],
    "iterint.evaluate_series": [("iterint", "evaluate_series")],
    "iterint.expand_derivative": [("iterint", "expand_derivative")],
    "iterint.cumulative_trapezoid": [("iterint", "cumulative_trapezoid"),
                                     ("bounds", "cumulative_trapezoid")],
    "iterint.derivative_values": [("iterint.InputSignal", "derivative_values")],
    "iterint.write_csv": [("iterint", "write_csv")],
    "bounds.estimate_growth": [("bounds", "estimate_growth")],
}

# Spans a cumulative_trapezoid pass is attributed to.
PASS_OWNERS = ("iterint.evaluate_series", "bounds.estimate_growth")


class Tracer:
    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.counts = collections.Counter()
        self.peak_alloc_bytes = 0
        self._csv_start = 0
        self.spans: list[list] = []
        self._stack: list[list] = []  # [name, start, child_s, span index]
        self._open: set[str] = set()

    def wrap(self, name, fn, before=None, after=None):
        calls, stack, spans, is_open = self.calls, self._stack, self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in is_open:
                return fn(*args, **kwargs)
            is_open.add(name)
            parent = stack[-1][3] if stack else -1
            frame = [name, clock(), 0.0, len(spans)]
            spans.append([name, frame[1], 0.0, parent])
            stack.append(frame)
            try:
                if before is not None:
                    before(*args)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out, *args)
                return out
            finally:
                end = clock()
                stack.pop()
                is_open.discard(name)
                spans[frame[3]][2] = end
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return wrapper

    # hooks -----------------------------------------------------------------

    def _eval_before(self, c, *rest):
        self.counts["series.words"] += len(c.coeffs)
        self.counts["diffop.terms"] += sum(len(op.terms) for op in c.coeffs.values())
        tracemalloc.start()

    def _eval_after(self, out, *args):
        self.peak_alloc_bytes = max(self.peak_alloc_bytes,
                                    tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    def _pass_before(self, *args):
        for frame in reversed(self._stack[:-1]):
            if frame[0] in PASS_OWNERS:
                self.counts["passes_under." + frame[0]] += 1
                return

    def _expand_after(self, terms, *args):
        self.counts["iterint.decorated_terms"] += len(terms)

    def _csv_before(self, field, fh):
        self._csv_start = fh.tell()

    def _csv_after(self, out, field, fh):
        self.counts["iterint.csv_bytes"] += fh.tell() - self._csv_start

    def install(self, modules: dict) -> None:
        hooks = {
            "iterint.evaluate_series": (self._eval_before, self._eval_after),
            "iterint.cumulative_trapezoid": (self._pass_before, None),
            "iterint.expand_derivative": (None, self._expand_after),
            "iterint.write_csv": (self._csv_before, self._csv_after),
        }
        for name, targets in WRAPPED.items():
            before, after = hooks.get(name, (None, None))
            wrappers = {}  # one wrapper per function, shared by its bindings
            for owner, attr in targets:
                fn = getattr(modules[owner], attr)
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(name, fn, before, after)
                setattr(modules[owner], attr, wrappers[fn])

    def result(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "peak_alloc_bytes": self.peak_alloc_bytes,
                "spans": self.spans}


def main(argv) -> int:
    out_path, cf_args = argv[0], argv[1:]
    start = time.perf_counter()
    import cfpde.cli
    from cfpde import bounds, diffop, expr, iterint, pde, series, words
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install({"expr": expr, "words": words, "diffop": diffop,
                    "series": series, "pde": pde, "iterint": iterint,
                    "iterint.InputSignal": iterint.InputSignal,
                    "bounds": bounds})
    rc = cfpde.cli.main(cf_args)
    payload = tracer.result()
    payload.update({"rc": rc, "import_s": import_s})
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
