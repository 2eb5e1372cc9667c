"""Smoke test of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced with the `TINY` sizes and a
zero run length (so two jobs each), and checks that each run is correct
and prints exactly the metrics `BENCHMARK.json` declares, with their
units.  It takes about a minute and is not part of the repository's
test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads as wl

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(name: str, traced: bool) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.run(name, 7, 0.0, traced, wl.TINY)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert rc == 0, (name, traced, rc)
    return result


def main() -> int:
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)
    for name in SPEC["workloads"]:
        name = name["name"]
        for traced, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
            result = run_tiny(name, traced)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            assert got == want, (name, traced, set(got) ^ set(want))
            for m, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (name, m, v)
            print(f"ok {name} trace={int(traced)} attempted={result['attempted']}",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
