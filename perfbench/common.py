"""Shared pieces of the workloads: jobs, per-job context, CLI capture."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

from spans import Api


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work.

    ``key`` spells out every input of the job, so equal keys mean equal
    inputs; ``params`` carries the inputs and the expectations the
    oracle checks against.
    """

    kind: str
    key: str
    params: dict = field(compare=False, hash=False)


@dataclass
class Ctx:
    """What a job reports besides its output: exact counts and problems."""

    counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class Plan:
    """A workload after set-up.

    ``cycles`` yields the job stream one cycle at a time; every cycle has
    the same mix of job kinds and sizes, and the seed picks the order and
    the concrete inputs.  ``run`` executes one job and returns its
    canonical output text.  ``plant`` returns a copy of a job with one
    wrong expectation.
    """

    warmup: list[Job]
    cycles: Callable[[], Iterator[list[Job]]]
    run: Callable[[Api, Ctx, Job], str]
    plant: Callable[[Job], Job]
    input_text: str
    info: dict


def with_params(job: Job, **changes: Any) -> Job:
    params = dict(job.params)
    params.update(changes)
    return replace(job, params=params)


def run_cli(api: Api, argv: list[str]) -> tuple[int, str]:
    """Call ``catsset.cli.main`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = api.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def cli_json(ctx: Ctx, code: int, text: str, want_code: int, what: str) -> dict:
    ctx.expect(code == want_code, f"{what}: exit code {code}, expected {want_code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        ctx.problems.append(f"{what}: stdout is not JSON")
        return {}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def random_dyck(rng, dim: int) -> str:
    """A uniformly random Dyck word of dimension ``dim`` (cycle lemma)."""
    m = dim + 1
    steps = [1] * m + [-1] * (m + 1)
    rng.shuffle(steps)
    total = low = cut = 0
    for k, step in enumerate(steps):
        total += step
        if total < low:
            low, cut = total, k + 1
    turned = steps[cut:] + steps[:cut]
    return "".join("U" if step == 1 else "D" for step in turned[:-1])
