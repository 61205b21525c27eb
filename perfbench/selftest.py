"""Self-test of the benchmark: a tiny-load pass over every workload.

    python3 perfbench/run.py --selftest

For each workload it runs a few jobs in child processes, one at a time,
and checks that:

- two runs with one seed print the same input digest, output digest and
  exact counts, and pass every oracle;
- another seed generates other inputs;
- a planted wrong expectation raises ``fail_ratio`` above 0 and the run
  still completes and prints its result;
- the traced run reports every per-layer metric named in
  ``BENCHMARK.json``, with its unit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify", "classify", "skew", "words")
TINY_JOBS = 6
TIMEOUT_S = 120


def _run(workload: str, seed: int, *extra: str) -> tuple[dict, dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--max-jobs", str(TINY_JOBS), *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    digests = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("digests "))
    return digests, json.loads(lines[-1])


def main() -> int:
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        print(f"{workload}:")
        first, result = _run(workload, 7, "--trace", "0")
        again, _ = _run(workload, 7, "--trace", "0")
        other, _ = _run(workload, 8, "--trace", "0")
        planted_digests, planted = _run(workload, 7, "--trace", "0", "--plant")
        check(result["correct"] and result["failed"] == 0, "every oracle passes")
        check(first["input"] == again["input"], "one seed, one input digest")
        check(first["output"] == again["output"], "one seed, one output digest")
        check(first["counts"] == again["counts"], "one seed, the same exact counts")
        check(first["input"] != other["input"], "another seed, another input digest")
        check(planted["failed"] >= 1 and planted["attempted"] == result["attempted"],
              "a planted wrong expectation fails one job without aborting the run")
        check(planted_digests["output"] == first["output"], "planting changes expectations, not outputs")
    # skew and words between them call, or probe, every traced function
    for workload in ("skew", "words"):
        _, traced = _run(workload, 7, "--trace", "1")
        got = {name: m["unit"] for name, m in traced["metrics"].items()}
        check(got == PER_LAYER, f"traced {workload} reports every per-layer metric with its unit")
        check(traced["correct"], f"traced {workload} passes every oracle")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} check(s) failed"))
    return 0 if not failures else 1
