"""cfpde benchmark: four workloads of the `cf` command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Every `cf` call is a new
process, `python -m cfpde.cli` with `PYTHONPATH=src`, started one at a
time from this process (a closed loop with one client), so interpreter
start and `import cfpde` count in every job as they do for a user.

With `--trace 0` the run sets up three times (input files plus one
untimed warm-up job), then runs whole jobs until `--seconds` have
passed (at least three), checks the outputs and prints the end-to-end
metrics.  With `--trace 1` it sets up once and alternates a plain job
with the same job run under `tracing.py`, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the same object is
written to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracing  # noqa: E402  (these sit next to this file)
import workloads as wl  # noqa: E402

SETUP_REPEATS = 3
MIN_JOBS = 3
# A run must end within 180 s; a call still running at this point is killed.
RUN_DEADLINE_S = 170.0

# Per-layer metrics: the self time of every span tracing.py records, and
# the call counts of these.
SELF_TIMES = [name for name in tracing.WRAPPED if name != "iterint.expand_derivative"]
CALL_COUNTS = [
    "expr.simplify", "expr.evaluate", "expr.differentiate",
    "words.shuffle_words", "diffop.op_mul", "diffop.op_add", "series.compose",
    "bounds.estimate_growth",
]


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


class Call(NamedTuple):
    wall_s: float
    rss_mb: float
    rc: int
    stderr: str


class Runner:
    """Starts child processes one at a time, waits for each, and counts
    the operations attempted and failed."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        PYTHONPATH=os.pathsep.join(
                            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])))
        self.attempted = 0
        self.failed = 0

    def run(self, cmd: list[str]) -> Call:
        err_path = self.work / "stderr.txt"
        start = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                    err_path.read_text(errors="replace").strip())
        self.attempted += 1
        if call.rc != 0:
            last = call.stderr.splitlines()[-1] if call.stderr else ""
            self.fail(f"exit {call.rc}: {' '.join(cmd[1:])}: {last}")
        return call

    def cf(self, args: list[str]) -> Call:
        return self.run([sys.executable, "-m", "cfpde.cli", *args])

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def check(self, check: wl.Check) -> None:
        self.attempted += 1
        print(f"check {check.name}: {'ok' if check.ok else 'MISS'} ({check.detail})",
              file=sys.stderr)
        if not check.ok:
            self.fail(f"check {check.name}: {check.detail}")


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_job(workload, inputs: Path, out: Path, runner: Runner) -> list[Call]:
    _fresh(out)
    return [runner.cf(args) for args in workload.job(inputs, out)]


def job_seconds(calls: list[Call]) -> float:
    return sum(c.wall_s for c in calls)


def setup(workload, work: Path, runner: Runner) -> float:
    start = time.perf_counter()
    inputs = _fresh(work / "inputs")
    workload.prepare(inputs, runner)
    run_job(workload, inputs, work / "warmup", runner)
    return time.perf_counter() - start


def check_repeat(workload, first: Path, second: Path, runner: Runner) -> None:
    """Two repeats of the same job must give byte-identical files."""
    for a in workload.outputs(first):
        b = second / a.name
        same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
        runner.check(wl.Check(f"byte-identical {a.name}", same,
                              f"{a.stat().st_size if a.is_file() else 0} bytes"))


def verify(workload, inputs: Path, out: Path, runner: Runner) -> float:
    try:
        err, checks = workload.verify(inputs, out, runner)
    except (OSError, ValueError) as e:
        runner.attempted += 1
        runner.fail(f"reading outputs: {e}")
        return float("nan")
    for check in checks:
        runner.check(check)
    return err


def measure(workload, seconds: float, work: Path, runner: Runner) -> dict:
    setups = [setup(workload, work, runner) for _ in range(SETUP_REPEATS)]
    inputs = work / "inputs"
    jobs = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        jobs.append(run_job(workload, inputs, work / f"slot{len(jobs) % 2}", runner))
    print(f"{len(jobs)} jobs: " + " ".join(f"{job_seconds(j):.3f}" for j in jobs),
          file=sys.stderr)
    check_repeat(workload, work / "slot0", work / "slot1", runner)
    err = verify(workload, inputs, work / f"slot{(len(jobs) - 1) % 2}", runner)
    return {
        "job_s": statistics.median(job_seconds(j) for j in jobs),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in j) for j in jobs),
        "max_abs_err": err,
        "setup_s": statistics.median(setups),
    }


def run_traced_job(workload, inputs: Path, out: Path, spans: Path,
                   runner: Runner) -> tuple[float, list[dict]]:
    _fresh(out)
    wall = 0.0
    traces = []
    for k, args in enumerate(workload.job(inputs, out)):
        path = spans / f"call{k}.json"
        call = runner.run([sys.executable, str(HERE / "tracing.py"), str(path), *args])
        wall += call.wall_s
        traces.append(json.loads(path.read_text()) if path.is_file() else {})
    return wall, traces


def summarize(traces: list[dict]) -> tuple[dict, dict]:
    """Per-layer figures of one traced job, split into the counts (which
    must repeat exactly) and the times."""
    calls = collections.Counter()
    self_s = collections.Counter()
    counts = collections.Counter()
    peak = 0
    for t in traces:
        calls.update(t.get("calls", {}))
        self_s.update(t.get("self_s", {}))
        counts.update(t.get("counts", {}))
        peak = max(peak, t.get("peak_alloc_bytes", 0))
    exact = {f"{name}.calls": calls[name] for name in CALL_COUNTS}
    exact.update({
        "diffop.terms": counts["diffop.terms"],
        "series.words": counts["series.words"],
        "iterint.integration_passes": counts["passes_under.iterint.evaluate_series"],
        "iterint.decorated_terms": counts["iterint.decorated_terms"],
        "iterint.csv_mb": counts["iterint.csv_bytes"] / 1e6,
    })
    timed = {f"{name}.self_s": float(self_s[name]) for name in SELF_TIMES}
    timed["iterint.eval_peak_alloc_mb"] = peak / 1e6
    return exact, timed


def trace(workload, seconds: float, work: Path, spans_dir: Path,
          runner: Runner) -> dict:
    setup(workload, work, runner)
    inputs = work / "inputs"
    plain, traced, exact, timed, imports = [], [], [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_JOBS or time.perf_counter() - start < seconds:
        plain.append(job_seconds(run_job(workload, inputs, work / "plain", runner)))
        wall, traces = run_traced_job(workload, inputs, work / "traced",
                                      _fresh(spans_dir / f"job{len(traced)}"), runner)
        traced.append(wall)
        e, t = summarize(traces)
        exact.append(e)
        timed.append(t)
        imports.extend(tr["import_s"] for tr in traces if "import_s" in tr)
    print(f"{len(traced)} traced jobs: "
          + " ".join(f"{p:.3f}/{t:.3f}" for p, t in zip(plain, traced)),
          file=sys.stderr)
    check_repeat(workload, work / "plain", work / "traced", runner)
    runner.check(wl.Check("counts repeat", all(e == exact[0] for e in exact),
                          f"{len(exact)} traced jobs"))
    metrics = dict(exact[0])
    for name in timed[0]:
        metrics[name] = statistics.median(t[name] for t in timed)
    metrics["cli.import_s"] = statistics.median(imports) if imports else float("nan")
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), wl.FULL)


def run(name: str, seed: int, seconds: float, traced: bool, size: str) -> int:
    if not (SRC / "cfpde" / "cli.py").is_file():
        print(f"error: no cfpde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = wl.WORKLOADS[name](seed, size)
    print(f"{name} seed={seed} constants={workload.c}", file=sys.stderr)
    work = _fresh(HERE / "work" / name)
    results = HERE / "results"
    runner = Runner(work)
    if traced:
        metrics = trace(workload, seconds, work,
                        _fresh(results / f"{name}-seed{seed}-spans"), runner)
        units = {m: _unit(m) for m in metrics}
    else:
        metrics = measure(workload, seconds, work, runner)
        units = {"job_s": "s", "peak_rss_mb": "MB", "max_abs_err": "abs",
                 "setup_s": "s"}
    correct = runner.failed == 0
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    line = json.dumps(result)
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(line + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
