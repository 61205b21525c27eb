"""verify: the ``catsset verify`` suites at seeded dimensions.

Each job rebuilds its objects, as each CLI run does.  This is the only
workload that reaches the skeleton boundary search (dimension > 4) and
bulk Dyck construction.
"""

from __future__ import annotations

import random
from math import comb

from common import Ctx, Job, Plan, with_params
from spans import Api

#: One job of each entry per cycle; the seed picks the job order and the
#: Motzkin and binomial bounds.  Two coskeletal-6 jobs make the skeleton
#: boundary search the tail class.  Left out, each for taking over the
#: cycle: identities at 8 (about 0.9 s, over half of a cycle),
#: coskeletal-7 (about 1.9 s) and the 3-coskeletality of the three larger
#: library nerves at 5 (0.9-1.9 s).
MIX = (
    ("identities", 6),
    ("identities", 7),
    ("coskeletal", 5),
    ("coskeletal", 6),
    ("coskeletal", 6),
    ("nerve-coskeletal", "two-or"),
    ("nerve-coskeletal", "antichain2"),
    ("nerve-iso", 4),
    ("nerve-iso", 5),
    ("motzkin", None),
    ("binomial", None),
)
MOTZKIN_N = range(5, 8)
#: Seconds one cycle takes at the seed commit on the reference machine.
CYCLE_S = 1.2
BINOMIAL_N = range(8, 17)


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _motzkin(n: int) -> int:
    """Motzkin numbers by their three-term recurrence (independent of catsset)."""
    m = [1, 1]
    for k in range(2, n + 1):
        m.append(((2 * k + 1) * m[k - 1] + (3 * k - 3) * m[k - 2]) // (k + 2))
    return m[n]


def _job(kind: str, size, rng: random.Random) -> Job:
    if kind == "motzkin":
        size = rng.choice(MOTZKIN_N)
    elif kind == "binomial":
        size = rng.choice(BINOMIAL_N)
    params = {"size": size, "expect_pass": True}
    return Job(kind, f"{kind}:{size}", params)


def setup(mods: dict, seed: int, root: str) -> Plan:
    structures = mods["library"].structure_library()

    def cycles():
        rng = random.Random(seed)
        while True:
            jobs = [_job(kind, size, rng) for kind, size in MIX]
            rng.shuffle(jobs)
            yield jobs

    def run(api: Api, ctx: Ctx, job: Job) -> str:
        size, want = job.params["size"], job.params["expect_pass"]
        sset = api.sset
        if job.kind == "identities":
            S = sset.catalan_sset(size)
            ctx.count("sset.simplices_built", S.size())
            sizes = [len(S.level(n)) for n in range(size + 1)]
            ctx.expect(sizes == [_catalan(n + 1) for n in range(size + 1)], "Catalan level sizes")
            bad = sset.check_simplicial_identities(S)
            T = api.nerve.monoidal_nerve(structures["two-or"], min(size, 5))
            ctx.count("nerve.simplices_built", T.size())
            bad_nerve = sset.check_simplicial_identities(T)
            ctx.expect((not bad and not bad_nerve) == want, "simplicial identities")
            return f"{sizes} {len(bad)} {T.size()} {len(bad_nerve)}"
        if job.kind == "coskeletal":
            S = sset.catalan_sset(size)
            ctx.count("sset.simplices_built", S.size())
            two = sset.is_r_coskeletal_up_to(S, 2, size)
            low = sset.catalan_sset(4)
            ctx.count("sset.simplices_built", low.size())
            one = sset.is_r_coskeletal_up_to(low, 1, 4)
            ctx.expect(two == want, "2-coskeletal up to N")
            ctx.expect(not one, "not 1-coskeletal at 4")
            return f"{two} {one}"
        if job.kind == "nerve-coskeletal":
            T = api.nerve.monoidal_nerve(structures[size], 5)
            ctx.count("nerve.simplices_built", T.size())
            three = sset.is_r_coskeletal_up_to(T, 3, 5)
            ctx.expect(three == want, "library nerve 3-coskeletal at 5")
            return f"{[len(T.level(n)) for n in range(6)]} {three}"
        if job.kind == "nerve-iso":
            S = sset.catalan_sset(size)
            T = api.nerve.monoidal_nerve(structures["two-or"], size)
            ctx.count("sset.simplices_built", S.size())
            ctx.count("nerve.simplices_built", T.size())
            isos = sset.isomorphisms(S, T)
            ctx.count("sset.maps_found", len(isos))
            ctx.expect((len(isos) == 1) == want, "exactly one nerve isomorphism")
            edges = [isos[0](1, "UDUD"), isos[0](1, "UUDD")] if isos else []
            ctx.expect(not isos or edges == ["top", "bot"], "free edge to top, unit edge to bot")
            return f"{len(isos)} {edges}"
        if job.kind == "motzkin":
            dyck, motzkin = api.dyck, api.motzkin
            counts = [len(dyck.nondegenerate_dyck(n)) for n in range(size + 1)]
            trips = 0
            for n in range(size + 1):
                for w in dyck.nondegenerate_dyck(n):
                    trips += motzkin.motzkin_to_dyck(motzkin.dyck_to_motzkin(w)) == w
            ok = counts == [_motzkin(n) for n in range(size + 1)] and trips == sum(counts)
            ctx.expect(ok == want, "Motzkin counts and round trips")
            return f"{counts} {trips}"
        if job.kind == "binomial":
            ok = all(api.motzkin.verify_binomial_identity(n) for n in range(size + 1))
            direct = all(
                _catalan(n + 1) == sum(comb(n, k) * _motzkin(k) for k in range(n + 1))
                for n in range(size + 1)
            )
            ctx.expect(ok == direct == want, "binomial identity")
            return f"{ok}"
        raise ValueError(f"unknown job kind {job.kind!r}")

    warmup = [
        Job("identities", "identities:4", {"size": 4, "expect_pass": True}),
        Job("coskeletal", "coskeletal:5", {"size": 5, "expect_pass": True}),
        Job("nerve-iso", "nerve-iso:4", {"size": 4, "expect_pass": True}),
        Job("motzkin", "motzkin:5", {"size": 5, "expect_pass": True}),
    ]
    return Plan(
        warmup=warmup,
        cycles=cycles,
        run=run,
        plant=lambda job: with_params(job, expect_pass=not job.params["expect_pass"]),
        input_text="",
        info={
            "mix": [kind if size is None else f"{kind}:{size}" for kind, size in MIX],
            "motzkin_n": [MOTZKIN_N.start, MOTZKIN_N.stop - 1],
            "binomial_n": [BINOMIAL_N.start, BINOMIAL_N.stop - 1],
        },
    )
