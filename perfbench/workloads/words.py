"""words: one seeded Dyck word per job, through the word-level API.

Every job runs its word through face, degeneracy, ``ez_decompose``,
``apply_surjection``, the relation model (``to_relation``,
``from_relation``, ``relation_face``, ``filler``) and the Motzkin
conversions.  One job per dimension in each cycle of 360 asks the same
questions through ``cli.main`` (``face``, ``degeneracy``, ``decompose``,
``motzkin``, all with ``--json``), its word seeded.  This uses the word
layer one call at a time, where ``verify`` uses it in bulk.
"""

from __future__ import annotations

import json
import random

from common import Ctx, Job, Plan, cli_json, random_dyck, run_cli, with_params
from spans import Api

DIMS = range(3, 13)
#: Per cycle and dimension, this many direct jobs and one CLI job.  The
#: CLI jobs (4 in-process CLI calls each, about seven times a direct job)
#: are the top class, with enough samples per run to hold the tail rank.
WORDS_PER_DIM = 35
#: Seconds one cycle takes at the seed commit on the reference machine.
CYCLE_S = 0.8
#: job_tail_ms is taken per cycle, and the median over the cycles is
#: reported.  Over a whole run of 9000 jobs, the rank with ten samples
#: beyond it is p99.89, and the jobs there are the ones the host or the
#: collector interrupted: run again, they take a third to a tenth of that
#: time.  Per cycle it is p97.2, among the CLI jobs and the direct jobs
#: of dimension 11 and 12.
TAIL_CYCLES = 1


def _positions(word: str, letter: str) -> list[int]:
    return [p for p, c in enumerate(word) if c == letter]


def ref_face(word: str, i: int) -> str:
    drop = {_positions(word, "U")[i], _positions(word, "D")[i]}
    return "".join(c for p, c in enumerate(word) if p not in drop)


def ref_degeneracy(word: str, i: int) -> str:
    double = {_positions(word, "U")[i], _positions(word, "D")[i]}
    return "".join(c + c if p in double else c for p, c in enumerate(word))


def ref_witness(word: str) -> int | None:
    ups, downs = _positions(word, "U"), _positions(word, "D")
    for i in range(len(ups) - 1):
        if ups[i + 1] == ups[i] + 1 and downs[i + 1] == downs[i] + 1:
            return i
    return None


def ref_degenerate_along(image: list[int], core: str) -> str:
    """Apply the degeneracies of a monotone surjection's image list to ``core``."""
    ops, image = [], list(image)
    while len(image) > len(set(image)):
        j = next(x for x in range(len(image) - 1) if image[x] == image[x + 1])
        ops.append(j)
        del image[j]
    for j in reversed(ops):
        core = ref_degeneracy(core, j)
    return core


def _job(rng: random.Random, dim: int, cli: bool) -> Job:
    word = random_dyck(rng, dim)
    i, j = rng.randrange(dim + 1), rng.randrange(dim + 1)
    route = "cli" if cli else "api"
    params = {"word": word, "i": i, "j": j, "cli": cli, "expect_code": 0, "expect_face": ref_face(word, i)}
    return Job(route, f"{route}:{word}:{i}:{j}", params)


def run_api(api: Api, ctx: Ctx, p: dict) -> str:
    dyck, rel, motzkin = api.dyck, api.relations, api.motzkin
    w, i, j = p["word"], p["i"], p["j"]
    n = len(w) // 2 - 1
    f = dyck.face(w, i)
    ctx.expect(f == p["expect_face"], "face")
    s = dyck.degeneracy(w, j)
    ctx.expect(dyck.face(s, j) == w, "d_j s_j = id")
    phi, core = dyck.ez_decompose(w)
    ctx.expect(dyck.apply_surjection(phi, core) == w, "apply_surjection(ez_decompose(w)) = w")
    ctx.expect(ref_witness(core) is None, "core is non-degenerate")
    R = rel.to_relation(w)
    ctx.expect(rel.from_relation(R) == w, "from_relation(to_relation(w)) = w")
    facets = [rel.relation_face(R, k) for k in range(n + 1)]
    ctx.expect(facets[i] == rel.to_relation(f), "relation_face is natural")
    ctx.expect(rel.filler(facets) == R, "filler of the facets is the relation")
    m = motzkin.dyck_to_motzkin(core)
    ctx.expect(motzkin.motzkin_to_dyck(m) == core, "Motzkin round trip")
    return json.dumps([f, s, core, list(phi.image), R.sorted_pairs(), m])


def run_cli_route(api: Api, ctx: Ctx, p: dict) -> str:
    w, i, j, want = p["word"], p["i"], p["j"], p["expect_code"]
    outs = []
    code, text = run_cli(api, ["face", w, "--index", str(i), "--json"])
    doc = cli_json(ctx, code, text, want, "cli face")
    ctx.expect(doc.get("result") == p["expect_face"], "cli face result")
    outs.append(text)
    code, text = run_cli(api, ["degeneracy", w, "--index", str(j), "--json"])
    doc = cli_json(ctx, code, text, want, "cli degeneracy")
    ctx.expect(doc.get("result") == ref_degeneracy(w, j), "cli degeneracy result")
    outs.append(text)
    code, text = run_cli(api, ["decompose", w, "--json"])
    doc = cli_json(ctx, code, text, want, "cli decompose")
    core = doc.get("core", "UD")
    ctx.expect(ref_witness(core) is None, "cli decompose core is non-degenerate")
    ctx.expect(ref_degenerate_along(doc.get("image", []), core) == w, "cli decompose round trip")
    outs.append(text)
    code, text = run_cli(api, ["motzkin", "--from-dyck", core, "--json"])
    doc = cli_json(ctx, code, text, want, "cli motzkin")
    m = doc.get("result", "")
    ctx.expect(len(m) == len(core) // 2 - 1 and set(m) <= set("UDC"), "cli motzkin result")
    outs.append(text)
    return "".join(outs)


def setup(mods: dict, seed: int, root: str) -> Plan:
    def cycles():
        rng = random.Random(seed)
        while True:
            jobs = [_job(rng, dim, cli) for dim in DIMS for cli in [True] + [False] * WORDS_PER_DIM]
            rng.shuffle(jobs)
            yield jobs

    def run(api: Api, ctx: Ctx, job: Job) -> str:
        return run_cli_route(api, ctx, job.params) if job.params["cli"] else run_api(api, ctx, job.params)

    warm = random.Random(-1)
    warmup = [_job(warm, dim, False) for dim in DIMS] + [_job(warm, 5, True)]

    def plant(job: Job) -> Job:
        if job.params["cli"]:
            return with_params(job, expect_code=1)
        return with_params(job, expect_face=job.params["word"])

    return Plan(
        warmup=warmup,
        cycles=cycles,
        run=run,
        plant=plant,
        input_text="",
        info={"dims": [DIMS.start, DIMS.stop - 1], "cli_share": 1 / (WORDS_PER_DIM + 1)},
    )
