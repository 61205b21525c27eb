"""skew: candidate sweeps over six carriers plus pointwise checks.

Sweeps run ``sweep_equivalence`` over the posets chain2, chain3 and
antichain3 and the categories zmonoid, chain2 as a category and the
monoid {1, a, b} with b absorbing and a idempotent.  The two categories
split the skew work two ways: raw tensor-table filtering (chain2 as a
category, 4 candidates) and condition evaluation ({1, a, b}, 2916
candidates, 624 of them natural).  Carriers keep their canonical labels:
a sweep's early exits follow the iteration order of label sets, so a
relabeled carrier costs something else.  Each cycle also checks every
strict structure of the pool as skew data (``skew_from_strict``, with
identity kappa and with each non-identity kappa) for naturality, the
axioms and the pentagons: directly, or for a seeded quarter of them
through ``catsset skew check FILE --json`` on files written at set-up,
plus the two docs examples.  The seed picks the job order and which
checks go through the CLI.  No ``sset`` or ``dyck`` code runs here.
"""

from __future__ import annotations

import json
import os
import random
import shutil

from common import Ctx, Job, Plan, cli_json, run_cli, with_params
from spans import Api
from structures import monoid_category, structure_pool

#: One sweep per carrier per cycle, with the expected
#: (candidates, natural candidates, skew structures).
CARRIERS = {
    "chain2": (4, 4, 4),
    "chain3": (29, 29, 29),
    "antichain3": (33, 33, 33),
    "zmonoid": (64, 36, 1),
    "chain2-category": (4, 4, 4),
    "monoid-1ab": (2916, 624, 1),
}
#: One check subject in CLI_PERIOD goes through the CLI.
CLI_PERIOD = 4
#: Seconds one cycle takes at the seed commit on the reference machine.
CYCLE_S = 2.8
#: docs/examples files for ``skew check`` and their documented exit codes.
DOCS = {"skew-two-or.json": 0, "skew-kappa-z.json": 1}
MONOID_1AB = {
    ("1", "1"): "1", ("1", "a"): "a", ("1", "b"): "b",
    ("a", "1"): "a", ("a", "a"): "a", ("a", "b"): "b",
    ("b", "1"): "b", ("b", "a"): "b", ("b", "b"): "b",
}


def build_carrier(mods: dict, carrier: str):
    finmon = mods["finmon"]
    if carrier == "chain2":
        return finmon.chain_poset(["0", "1"])
    if carrier == "chain3":
        return finmon.chain_poset(["0", "1", "2"])
    if carrier == "antichain3":
        return finmon.antichain_poset(["0", "1", "2"])
    if carrier == "chain2-category":
        return finmon.poset_category(finmon.chain_poset(["0", "1"]))
    if carrier == "zmonoid":
        return mods["library"].zmonoid_category()
    if carrier == "monoid-1ab":
        return monoid_category(finmon, MONOID_1AB)
    raise ValueError(f"unknown carrier {carrier!r}")


def setup(mods: dict, seed: int, root: str) -> Plan:
    skew = mods["skew"]
    pool = structure_pool(mods)
    # check subjects: every structure with identity kappa, and every
    # non-identity endomorphism of the unit as kappa
    subjects: list[tuple[str, str | None]] = []
    for name, m in pool.items():
        unit_id = m.category.id_of(m.unit)
        subjects.append((name, None))
        subjects.extend((name, k) for k in m.category.hom(m.unit, m.unit) if k != unit_id)
    files: dict[tuple[str, str | None], str] = {}
    for k, (name, kappa) in enumerate(subjects):
        files[(name, kappa)] = f"skew-{k}.json"
        doc = skew.skew_from_strict(pool[name], kappa).to_json_dict()
        with open(files[(name, kappa)], "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
    for doc_name in DOCS:
        shutil.copyfile(os.path.join(root, "docs", "examples", doc_name), doc_name)

    def sweep_job(carrier: str) -> Job:
        params = {"carrier": carrier, "subject": carrier, "expect": list(CARRIERS[carrier])}
        return Job("sweep", f"sweep:{carrier}", params)

    def check_job(subject: tuple[str, str | None], cli: bool) -> Job:
        name, kappa = subject
        params = {"name": name, "kappa": kappa, "cli": cli, "subject": f"{name}:{kappa}",
                  "expect_pentagons": kappa is None, "expect_code": 0 if kappa is None else 1}
        route = "cli-check" if cli else "check"
        return Job(route, f"{route}:{name}:{kappa}", params)

    def docs_job(doc_name: str) -> Job:
        params = {"file": doc_name, "cli": True, "subject": doc_name, "expect_code": DOCS[doc_name]}
        return Job("cli-check", f"cli-check:{doc_name}", params)

    # one check in each group of CLI_PERIOD like-sized subjects goes through
    # the CLI, so every seed leaves the same cost mix on the direct route
    rng = random.Random(seed)
    ranked = sorted(subjects, key=lambda s: (len(pool[s[0]].category.objects),
                                             len(pool[s[0]].category.morphisms), s[1] is None))
    via_cli = {ranked[g + rng.randrange(min(CLI_PERIOD, len(ranked) - g))]
               for g in range(0, len(ranked), CLI_PERIOD)}
    checks = [check_job(s, s in via_cli) for s in subjects]

    def cycles():
        rng = random.Random(seed)
        while True:
            jobs = [sweep_job(c) for c in CARRIERS]
            jobs += checks + [docs_job(d) for d in DOCS]
            rng.shuffle(jobs)
            yield jobs

    def run(api: Api, ctx: Ctx, job: Job) -> str:
        p = job.params
        if job.kind == "sweep":
            carrier = build_carrier(mods, p["carrier"])
            s = api.skew.sweep_equivalence(carrier)
            ctx.count("skew.candidates", s.candidates)
            ctx.count("skew.natural_candidates", s.natural_candidates)
            got = [s.candidates, s.natural_candidates, s.skew_structure_count]
            ctx.expect(got == p["expect"], f"sweep counts {got}, expected {p['expect']}")
            flags = [s.equivalence_holds, s.a5_forces_identity_kappa, s.a8_a9_pass_with_identity_kappa]
            ctx.expect(all(flags), "every sweep summary flag is true")
            return json.dumps(got + flags)
        if p["cli"]:
            path = p.get("file") or files[(p["name"], p["kappa"])]
            code, text = run_cli(api, ["skew", "check", path, "--json"])
            doc = cli_json(ctx, code, text, p["expect_code"], "cli skew check")
            ctx.expect(doc.get("equivalence_consistent") is True, "cli equivalence consistent")
            ctx.expect(doc.get("passed") is (p["expect_code"] == 0), "cli passed flag")
            return text
        d = api.skew.skew_from_strict(pool[p["name"]], p["kappa"])
        natural = api.skew.check_naturality(d)
        axioms = api.skew.check_axioms(d)
        pentagons = api.skew.check_pentagons(d)
        ctx.expect(not natural, "strict data is natural")
        ctx.expect(axioms.all_hold, "strict data satisfies the axioms")
        ctx.expect(pentagons.all_hold == p["expect_pentagons"], "pentagons hold iff kappa is the identity")
        return json.dumps([str(r) for r in axioms.results + pentagons.results])

    warmup = [sweep_job("chain2"), sweep_job("zmonoid"),
              check_job(subjects[0], False), check_job(subjects[0], True), docs_job("skew-kappa-z.json")]

    def plant(job: Job) -> Job:
        if job.kind == "sweep":
            return with_params(job, expect=[job.params["expect"][0] + 1] + job.params["expect"][1:])
        if job.params["cli"]:
            return with_params(job, expect_code=1 - job.params["expect_code"])
        return with_params(job, expect_pentagons=not job.params["expect_pentagons"])

    return Plan(
        warmup=warmup,
        cycles=cycles,
        run=run,
        plant=plant,
        input_text="".join(f"{files[s]} {s}\n" for s in subjects),
        info={
            "sweeps_per_cycle": list(CARRIERS),
            "check_subjects": len(subjects),
            "cli_share_of_checks": 1 / CLI_PERIOD,
            "docs_checks_per_cycle": len(DOCS),
        },
    )
