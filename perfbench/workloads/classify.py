"""classify: one seeded strict monoidal structure per job.

Jobs validate the structure and run the three classification legs:
``classify_maps`` (generator conditions), ``enumerate_monoids`` and the
engine leg ``simplicial_maps(catalan_sset(4), monoidal_nerve(m, 4), 3)``
read through ``map_triple``; the three triple sets must agree.  A
quarter of the jobs runs ``catsset classify FILE --json`` in-process on
JSON written at set-up instead: every CYCLE_GROUP cycles run each
structure CLI_PERIOD times, once through the CLI, and the seed picks
which cycle that is.  Cost is nerve size, finmon tables and map search;
every boundary search stays at dimension <= 4.
"""

from __future__ import annotations

import json
import random

from common import Ctx, Job, Plan, cli_json, run_cli, with_params
from spans import Api
from structures import structure_pool

#: Structures whose nerve truncated at 3 has more simplices are left out:
#: the five of them cost 0.2-0.5 s a job, and a cycle must stay short.
MAX_NERVE3 = 250
#: Structures in size order are taken STRATUM at a time; each cycle runs
#: one structure of every stratum, so cycles cost alike.
STRATUM = 2
#: Each stratum's job goes through the CLI for one of every CLI_PERIOD
#: pairs of cycles, and every cycle sends about the same number of strata
#: through the CLI.
CLI_PERIOD = 4
#: Cycles that run every structure CLI_PERIOD times, once through the CLI.
CYCLE_GROUP = STRATUM * CLI_PERIOD
#: Seconds one cycle takes at the seed commit on the reference machine.
CYCLE_S = 2.2


def setup(mods: dict, seed: int, root: str) -> Plan:
    rng = random.Random(seed)
    pool = structure_pool(mods)
    size3 = {name: mods["nerve"].monoidal_nerve(m, 3).size() for name, m in pool.items()}
    names = sorted((n for n in pool if size3[n] <= MAX_NERVE3), key=lambda n: (size3[n], n))
    dropped = sorted(set(pool) - set(names))
    pool = {n: pool[n] for n in names}
    for name, m in pool.items():
        with open(f"{name}.json", "w", encoding="utf-8") as handle:
            handle.write(m.to_json_text())
    strata = [names[k:k + STRATUM] for k in range(0, len(names), STRATUM)]
    phase = [rng.randrange(STRATUM) for _ in strata]
    cli_phase = [k % CLI_PERIOD for k in range(len(strata))]
    rng.shuffle(cli_phase)

    def make(name: str, cli: bool) -> Job:
        route = "cli" if cli else "api"
        return Job(route, f"{route}:{name}", {"name": name, "cli": cli, "subject": name,
                                               "expect_code": 0, "expect_agree": True})

    def cycles():
        order_rng = random.Random(seed)
        c = 0
        while True:
            jobs = [make(s[(c + p) % len(s)], (c // STRATUM + q) % CLI_PERIOD == 0)
                    for s, p, q in zip(strata, phase, cli_phase)]
            order_rng.shuffle(jobs)
            yield jobs
            c += 1

    def run(api: Api, ctx: Ctx, job: Job) -> str:
        p = job.params
        if p["cli"]:
            code, text = run_cli(api, ["classify", f"{p['name']}.json", "--json"])
            doc = cli_json(ctx, code, text, p["expect_code"], "cli classify")
            ctx.expect(doc.get("three_way_agreement") is True, "cli three-way agreement")
            ctx.expect(doc.get("count") == len(doc.get("records", [])), "cli record count")
            ctx.count("classify.records", len(doc.get("records", [])))
            return text
        m = pool[p["name"]]
        problems = api.finmon.validate_strict_monoidal(m)
        ctx.expect(not problems, "structure is strict monoidal")
        T = api.nerve.monoidal_nerve(m, 4)
        ctx.count("nerve.simplices_built", T.size())
        records = api.classify.classify_maps(m)
        ctx.count("classify.records", len(records))
        monoids = api.finmon.enumerate_monoids(m)
        S = api.sset.catalan_sset(4)
        ctx.count("sset.simplices_built", S.size())
        maps = api.sset.simplicial_maps(S, T, 3)
        ctx.count("sset.maps_found", len(maps))
        by_records = sorted(r.triple() for r in records)
        by_monoids = sorted((mo.carrier, mo.mu, mo.eta) for mo in monoids)
        by_maps = sorted(api.classify.map_triple(T, f) for f in maps)
        agree = by_records == by_monoids == by_maps
        ctx.expect(agree == p["expect_agree"], "three-way classification agreement")
        return json.dumps([T.size(), by_records, by_monoids, by_maps])

    warmup = [make("library-two-or", False), make("library-two-or", True)]

    def plant(job: Job) -> Job:
        if job.params["cli"]:
            return with_params(job, expect_code=1)
        return with_params(job, expect_agree=False)

    text = "".join(f"{name}\n{m.to_json_text()}\n" for name, m in pool.items())
    return Plan(
        warmup=warmup,
        cycles=cycles,
        run=run,
        plant=plant,
        input_text=text,
        info={
            "structures": len(pool),
            "by_source": {
                src: sum(1 for n in names if n.startswith(src))
                for src in ("library", "poset", "monoid")
            },
            "left_out": dropped,
            "cli_share": 1 / CLI_PERIOD,
        },
    )

