"""Closed-loop benchmark of the catsset package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

One process runs one workload: a single client calls public ``catsset``
functions (``catsset.cli.main`` included, in-process) one job at a time
and checks every job's output.  ``--seconds`` sets how much work a run
measures: a fixed number of job cycles, that many seconds' worth at the
seed commit on the reference machine.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs half as many cycles, each both
untraced and traced, and reports the per-layer metrics.  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same figures as
text, with the input and output digests and the exact counts.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

from common import Ctx, sha
from layers import COUNTS, PER_LAYER, SCALE_NS, TIMINGS, probes
from spans import MODULES, Api, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("verify", "classify", "skew", "words")
SETUP_REPEATS = 7
#: A run stops starting cycles once the loop has taken
#: min(CAP_FACTOR * --seconds, CAP_S) seconds, set-ups and traced replays
#: included, so that it ends in time even on a very slow program.
CAP_FACTOR = 5
CAP_S = 120.0
#: Each probe call is repeated at least PROBE_CALLS[0] and at most
#: PROBE_CALLS[1] times, stopping after PROBE_S seconds.
PROBE_CALLS = (11, 201)
PROBE_S = 0.2
HASH_SEED = "0"


def fresh_modules() -> dict:
    """Import the checkout's catsset from scratch; return its modules by name."""
    for name in list(sys.modules):
        if name == "catsset" or name.startswith("catsset."):
            del sys.modules[name]
    mods = {name: importlib.import_module(f"catsset.{name}") for name in (*MODULES, "library")}
    where = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if where != os.path.join(SRC, "catsset"):
        raise RuntimeError(f"catsset imported from {where}, not from this checkout")
    return mods


class Tally:
    """Correctness bookkeeping shared by every phase of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seen: dict[str, tuple[str, dict]] = {}

    def record(self, job, out: str, ctx) -> str:
        """Check one finished job; return the hash of its output."""
        digest = sha(out)
        problems = list(ctx.problems)
        earlier = self.seen.setdefault(job.key, (digest, ctx.counts))
        if earlier != (digest, ctx.counts):
            problems.append("output or counts differ from an earlier job with the same inputs")
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{job.key}: {'; '.join(problems)}")
        return digest


def run_job(plan, api, job, tally: Tally, job_id: int):
    """Run one job; return (latency in ns, output hash, counts)."""
    ctx = Ctx()
    tracer = api.tracer
    if tracer is not None:
        tracer.job_id = job_id
        span = tracer.open(f"job.{job.kind}")
    start = time.perf_counter_ns()
    try:
        out = plan.run(api, ctx, job)
    except Exception as exc:  # a job failure is counted, never fatal
        ctx.problems.append(f"unexpected {type(exc).__name__}: {exc}")
        out = ""
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.close(span)
    return elapsed, tally.record(job, out, ctx), ctx.counts


def measure(plan, api, source, n_cycles: int, cap_s: float, max_jobs: int | None, tally: Tally,
            interlude=None, traced_api=None):
    """Run ``n_cycles`` whole cycles (fewer if ``max_jobs`` or ``cap_s`` stops it).

    ``interlude(done)``, if given, runs after each cycle but the last,
    with the number of cycles done.  With ``traced_api`` every cycle
    runs a second time, traced, after its untraced run in even cycles and
    before it in odd ones, so both runs see the same host speed phase and
    neither always comes second.  Neither is part of the measured wall
    time.  Returns (cycles run, untraced latencies in ns, output hashes,
    counts per job, measured wall seconds, traced over untraced seconds
    per cycle).
    """
    cycles, lat, hashes, counts, ratios = [], [], [], [], []
    paused = 0.0

    def run_traced(cycle: list, first_id: int) -> float:
        begin = time.perf_counter()
        for k, job in enumerate(cycle):
            run_job(plan, traced_api, job, tally, first_id + k)
        return time.perf_counter() - begin

    start = time.perf_counter()
    for c, cycle in enumerate(itertools.islice(source, n_cycles)):
        if max_jobs is not None:
            cycle = cycle[: max_jobs - len(lat)]
        first_id = len(lat)
        took = 0.0
        if traced_api is not None and c % 2 == 1:
            took = run_traced(cycle, first_id)
        began = time.perf_counter()
        for job in cycle:
            ns, digest, counted = run_job(plan, api, job, tally, len(lat))
            lat.append(ns)
            hashes.append(digest)
            counts.append(counted)
        untraced = time.perf_counter() - began
        cycles.append(cycle)
        if traced_api is not None and c % 2 == 0:
            took = run_traced(cycle, first_id)
        if traced_api is not None:
            ratios.append(took / untraced)
            paused += took
        if max_jobs is not None and len(lat) >= max_jobs:
            break
        if time.perf_counter() - start >= cap_s:
            break
        if interlude is not None and c + 1 < n_cycles:
            pause = time.perf_counter()
            interlude(c + 1)
            paused += time.perf_counter() - pause
    return cycles, lat, hashes, counts, time.perf_counter() - start - paused, ratios


def set_up(workload, seed: int, tally: Tally):
    """Import catsset afresh, build the workload's inputs, run its warm-up jobs.

    Returns (seconds taken, modules, plan, untraced API).
    """
    gc.collect()
    start = time.perf_counter()
    mods = fresh_modules()
    plan = workload.setup(mods, seed, ROOT)
    api = Api(mods)
    for job in plan.warmup:
        run_job(plan, api, job, tally, -1)
    return time.perf_counter() - start, mods, plan, api


def tail_of(lat_ns: list[int]) -> tuple[int, int]:
    """Value and 1-based rank of the highest sample with at least ten samples beyond it."""
    xs = sorted(lat_ns)
    rank = max(1, len(xs) - 10)
    return xs[rank - 1], rank


def block_tail(lat_ns: list[int], block: int | None) -> tuple[float, int, int]:
    """``tail_of`` per block of ``block`` jobs (the whole run if None), median over blocks.

    Returns (value in ns, 1-based rank in a block, samples per block).
    A last block shorter than ``block`` is left out.
    """
    size = len(lat_ns) if block is None or block > len(lat_ns) else block
    tails = [tail_of(lat_ns[i:i + size]) for i in range(0, len(lat_ns) - size + 1, size)]
    return statistics.median(v for v, _ in tails), tails[0][1], size


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=None, help="stop after this many jobs (self-test)")
    parser.add_argument("--plant", action="store_true", help="give the first job one wrong expectation")
    parser.add_argument("--selftest", action="store_true", help="tiny pass over all workloads")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "catsset", "__init__.py")):
        print(f"error: no catsset sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and dict iteration over string labels follows the string hash,
        # and the sweeps' early exits follow that order: chain2 as a category
        # costs 0.8-1.3 s depending on the hash seed.  Fix it for every run.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    try:
        return bench(args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


def cycle_count(workload, seconds: float) -> int:
    """Cycles a run measures: ``seconds`` of work at the workload's reference cycle time.

    The count depends on ``--seconds`` only, never on how fast the host or
    the program is, so every run of one seed measures the same jobs and
    the tail rank stays in the same job class.  It is a whole number of
    the workload's ``CYCLE_GROUP`` (the cycles that cover every input
    class once).
    """
    group = getattr(workload, "CYCLE_GROUP", 1)
    return group * max(1, round(seconds / (workload.CYCLE_S * group)))


def bench(args) -> int:
    workload = importlib.import_module(f"workloads.{args.workload}")
    tally = Tally()
    n_cycles = cycle_count(workload, args.seconds / 2 if args.trace else args.seconds)
    cap_s = min(CAP_FACTOR * args.seconds, CAP_S)

    first, mods, plan, api = set_up(workload, args.seed, tally)
    setups = [first]

    def set_up_again(done: int) -> None:
        # The host's speed drifts in phases of tens of seconds, so the other
        # set-ups are spread over the measured run instead of following the
        # first one; the jobs keep the first set-up's modules and inputs.
        if len(setups) < SETUP_REPEATS and done >= len(setups) * n_cycles / SETUP_REPEATS:
            setups.append(set_up(workload, args.seed, Tally())[0])

    def stream():
        for c, cycle in enumerate(plan.cycles()):
            if c == 0 and args.plant:
                cycle = [plan.plant(cycle[0])] + cycle[1:]
            yield cycle

    tracer = Tracer()
    traced_api = Api(mods, tracer) if args.trace else None
    gc.collect()
    cycles, lat, hashes, counts, wall, trace_ratios = measure(
        plan, api, stream(), n_cycles, cap_s, args.max_jobs, tally,
        interlude=None if args.trace else set_up_again, traced_api=traced_api)
    if not args.trace:
        while len(setups) < SETUP_REPEATS:
            setups.append(set_up(workload, args.seed, Tally())[0])
    totals = {name: sum(c.get(name, 0) for c in counts) for name in COUNTS}
    keys = [job.key for cycle in cycles for job in cycle]
    output_digest = sha("".join(f"{k}\t{h}\n" for k, h in zip(keys, hashes)))
    planned = itertools.islice(plan.cycles(), n_cycles)
    input_digest = sha(plan.input_text + "".join(j.key + "\n" for cycle in planned for j in cycle))
    subjects = [job.params.get("subject", job.key) for cycle in cycles for job in cycle]
    repeated = 1 - len(set(subjects)) / len(subjects)

    metrics: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    if len(cycles) < n_cycles and (args.max_jobs is None or len(lat) < args.max_jobs):
        notes.append(f"stopped at the {cap_s:.0f} s time cap after {len(cycles)} of {n_cycles} cycles")
    probed: list[str] = []
    if not args.trace:
        p50 = statistics.median(lat) / 1e6
        tail_cycles = getattr(workload, "TAIL_CYCLES", None)
        tail_ns, rank, block = block_tail(lat, tail_cycles and tail_cycles * len(cycles[0]))
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["job_p50_ms"] = (p50, "ms")
        metrics["job_tail_ms"] = (tail_ns / 1e6, "ms")
        metrics["jobs_per_s"] = (len(lat) / wall, "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
        where = f"the median over {len(lat) // block} blocks of each block's " if block < len(lat) else ""
        notes.append(f"job_tail_ms is {where}p{100 * rank / block:.2f} of {block} samples "
                     f"({block - rank} beyond it)")
        notes.append(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    else:
        medians = tracer.median_self_ns()
        missing = [span for span, _ in TIMINGS if span not in medians]
        if missing:
            # The result line must carry every per-layer metric; a function
            # this workload never calls is timed on a fixed small probe call.
            tracer.job_id = -2
            calls = probes(mods)
            for span in missing:
                begin, n = time.perf_counter(), 0
                while n < PROBE_CALLS[0] or (n < PROBE_CALLS[1] and time.perf_counter() - begin < PROBE_S):
                    calls[span](traced_api)
                    n += 1
                probed.append(span)
            medians = tracer.median_self_ns()
        for span, unit in TIMINGS:
            metrics[f"{span}_{unit}"] = (medians[span] / SCALE_NS[unit], unit)
        for name in COUNTS:
            metrics[name] = (totals[name], "count")
        cand = totals["skew.candidates"]
        metrics["skew.natural_ratio"] = (totals["skew.natural_candidates"] / cand if cand else 0.0, "ratio")
        # Per-cycle ratios, so a host speed phase weighs on a few of them.
        # The first cycle runs cold and the second run of a cycle profits
        # from the first, so the first cycle is left out and the cycles
        # run traced-first and untraced-first weigh equally.
        warm = trace_ratios[1:] or trace_ratios
        by_order = [statistics.median(warm[k::2]) for k in (0, 1) if warm[k::2]]
        metrics["trace.overhead_pct"] = (100.0 * (statistics.geometric_mean(by_order) - 1), "%")
        if set(metrics) != set(PER_LAYER):
            raise RuntimeError("per-layer metrics out of step with BENCHMARK.json")
        outdir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(outdir, exist_ok=True)
        tracer.write(os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        notes.append(f"{len(tracer.names)} spans; traced over untraced time per cycle: "
                     f"{', '.join(f'{r:.3f}' for r in trace_ratios)}")
        if probed:
            notes.append(f"probed, not called by this workload (job id -2 in the span file): {', '.join(probed)}")

    fail_ratio = tally.failed / tally.attempted
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(lat)} timed jobs in {len(cycles)} cycles over {wall:.3f} s, one client, closed loop")
    for name, (value, unit) in metrics.items():
        mark = " (probed)" if name[: -len(unit) - 1] in probed else ""
        print(f"  {name:38s} {value:14.6f} {unit}{mark}")
    print(f"  {'fail_ratio':38s} {fail_ratio:14.6f} ratio ({tally.failed} of {tally.attempted})")
    print(f"  {'repeated_input_share':38s} {repeated:14.6f} ratio")
    for note in notes:
        print(f"  {note}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print("digests " + json.dumps({"input": input_digest, "output": output_digest, "jobs": len(lat),
                                   "counts": totals, "probed": probed, "info": plan.info}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
