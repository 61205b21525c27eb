"""Wall times and exact output counts of catsset's level kernels and commands.

Usage, from the root of a checkout:

    python3 bench/run.py --side change --out BENCH.json

The script imports ``catsset`` from ``src/`` of the checkout it sits in,
builds each case's inputs untimed, runs the case once to warm up and then
``REPEATS`` times, and records the median as ``wall_s``.  ``counters``
are exact output counts (boundary tuples, identity violations with and
without planted faults, coskeletality verdicts, simplices built and table cells, maps
found, checks passed, sweep candidates, conditions that hold, fillers,
faces, words rebuilt, classification records, their distinct maps and
three-way agreements, CLI exit codes); they do not depend on the
machine, and the script stops if two runs of one case disagree on them.  CLI cases call ``catsset.cli.main`` in-process with
``--json``.

A ``frontier`` section records, per verify suite, the largest
``--max-dim`` whose median wall time over ``FRONTIER_REPEATS`` runs is
under ``FRONTIER_S`` on the host, with that case's counters: the
desk-scale frontier as a number.  It is recorded, not gated.

A ``work`` section records, per case and in all and by level, what its
warm-up run did: the boundary joins it made and the tuples they
returned, the table cells the ``TruncatedSSet`` constructor checked
(``_checked``), and the filler indexes built on a cache miss
(``_filler_index``).  These are wrapped in this process only, and the
timed runs call them unwrapped.  The counts are exact, but a change may
lower them, so they are recorded per side and kept out of the
``counters`` comparison.

A ``source`` section records the non-blank lines of each module under
``src/catsset`` and their total, so a change can report its net source
lines, and each module's compile heap peak: the peak traced by
tracemalloc while ``compile()`` turns the module's source into code,
which bounds the heap peak of importing the package fresh.  It is
recorded, not compared between sides.

One file can hold several sides, such as a parent commit and a change:
run the script in each checkout (copy it into one that lacks it) with the
same ``--out`` and a different ``--side``.  A side that is written again
is replaced.  The script exits 1 when a case's counters differ from those
of another side in the file, and 2 when the file was written by another
Python version or platform.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from catsset import cli  # noqa: E402
from catsset import nerve as nerve_module  # noqa: E402
from catsset import sset as sset_module  # noqa: E402
from catsset.classify import _classification, classify_maps  # noqa: E402
from catsset.dyck import apply_surjection, enumerate_dyck, ez_decompose, face  # noqa: E402
from catsset.finmon import (  # noqa: E402
    FinCategory,
    antichain_poset,
    chain_poset,
    enumerate_monoids,
    validate_strict_monoidal,
)
from catsset.library import boolean_or, structure_library, zmonoid_category  # noqa: E402
from catsset.nerve import monoidal_nerve  # noqa: E402
from catsset.relations import enumerate_k_relations, filler, relation_face, to_relation  # noqa: E402
from catsset.skew import check_axioms, check_pentagons, enumerate_skew_structures, sweep_equivalence  # noqa: E402
from catsset.sset import (  # noqa: E402
    TruncatedSSet,
    _boundaries,
    catalan_sset,
    check_simplicial_identities,
    is_r_coskeletal_up_to,
    simplicial_maps,
)

REPEATS = 5


def _join(n: int):
    def run(S) -> dict:
        return {"boundary_tuples": len(_boundaries(S.levels, S.faces, n))}

    return lambda: catalan_sset(n), run


def _catalan(n: int):
    def run(_) -> dict:
        S = catalan_sset(n)
        cells = sum(len(table) for tables in (*S.faces, *S.degens) for table in tables)
        return {"simplices_built": S.size(), "table_cells": cells}

    return lambda: None, run


def _planted(S: TruncatedSSet) -> TruncatedSSet:
    """``S`` with d_0 and s_0 of the last simplex of every level rerouted to the next index."""
    faces = [[list(t) for t in level] for level in S.faces]
    degens = [[list(t) for t in level] for level in S.degens]
    for tables, step in ((faces, -1), (degens, 1)):
        for n, level in enumerate(tables):
            if level:
                level[0][-1] = (level[0][-1] + 1) % len(S.levels[n + step])
    return TruncatedSSet(S.levels, faces, degens)


def _identities(N: int, planted: bool = False):
    """``check_simplicial_identities`` of ``catalan_sset(N)``, with a fault in every level if ``planted``.

    The planted faults break instances of every identity family at every
    level where that family can fail, so the violation count changes if
    the check skips a family or a level.
    """

    def run(S) -> dict:
        return {"violations": len(check_simplicial_identities(S))}

    return (lambda: _planted(catalan_sset(N))) if planted else (lambda: catalan_sset(N)), run


def _coskeletal(r: int, N: int):
    def run(S) -> dict:
        # each run starts from an empty filler index, as on a freshly built set
        S._filler_cache.clear()
        return {"coskeletal": int(is_r_coskeletal_up_to(S, r, N))}

    return lambda: catalan_sset(N), run


def _nerve(n: int):
    def run(_) -> dict:
        return {"simplices_built": monoidal_nerve(boolean_or(), n).size()}

    return lambda: None, run


def _nerve_coskeletal():
    """``monoidal_nerve(m, 4)`` of each structure of the library, then ``is_r_coskeletal_up_to(T, 3, 4)``."""

    def run(structures) -> dict:
        nerves = [monoidal_nerve(m, 4) for m in structures]
        return {
            "simplices_built": sum(T.size() for T in nerves),
            "coskeletal": sum(is_r_coskeletal_up_to(T, 3, 4) for T in nerves),
        }

    return lambda: list(structure_library().values()), run


def _classify_jobs():
    """perfbench's classify API job on each structure of the library.

    It validates the structure, builds its nerve at 4, runs
    ``classify_maps`` and ``enumerate_monoids``, builds ``catalan_sset(4)``
    and runs ``simplicial_maps(S, T, 3)``.
    """

    def run(structures) -> dict:
        counters = dict.fromkeys(("valid", "simplices_built", "records", "monoids", "maps_found"), 0)
        for m in structures:
            counters["valid"] += not validate_strict_monoidal(m)
            T = monoidal_nerve(m, 4)
            counters["simplices_built"] += T.size()
            counters["records"] += len(classify_maps(m))
            counters["monoids"] += len(enumerate_monoids(m))
            counters["maps_found"] += len(simplicial_maps(catalan_sset(4), T, 3))
        return counters

    return lambda: list(structure_library().values()), run


def _fillers(n: int):
    """``filler`` of the face tuple of every word of dimension n."""

    def prepare() -> list:
        return [([to_relation(face(w, k)) for k in range(n + 1)], to_relation(w)) for w in enumerate_dyck(n)]

    def run(cases) -> dict:
        return {"fillers_equal": sum(filler(facets) == rel for facets, rel in cases)}

    return prepare, run


def _relation_faces(n: int):
    def run(rels) -> dict:
        return {"faces": sum(relation_face(rel, k).n == n - 1 for rel in rels for k in range(n + 1))}

    return lambda: enumerate_k_relations(n), run


def _to_relations(n: int):
    """``to_relation`` of every word of dimension n."""

    def run(words) -> dict:
        return {"pairs": sum(len(to_relation(w).pairs) for w in words)}

    return lambda: enumerate_dyck(n), run


def _surjections(n: int):
    """``apply_surjection`` of the ``ez_decompose`` of every word of dimension n."""

    def prepare() -> list:
        return [(ez_decompose(w), w) for w in enumerate_dyck(n)]

    def run(cases) -> dict:
        return {"words_rebuilt": sum(apply_surjection(phi, core) == w for (phi, core), w in cases)}

    return prepare, run


def _classify_library():
    """``classify_maps`` of each structure of the library."""

    def run(structures) -> dict:
        return {"records": sum(len(classify_maps(m)) for m in structures)}

    return lambda: list(structure_library().values()), run


def _verify_classification_library():
    """``verify_classification`` of each structure of the library, from the records and verdict it reads."""

    def run(structures) -> dict:
        results = [_classification(m) for m in structures]
        return {
            "records": sum(len(records) for records, _ in results),
            "maps": sum(len({r.map for r in records}) for records, _ in results),
            "agreements": sum(verdict for _, verdict in results),
        }

    return lambda: list(structure_library().values()), run


def _face_calls(count: int):
    """``count`` in-process ``catsset face`` calls over words of dimension 6."""

    def prepare() -> list:
        words = enumerate_dyck(6)
        return [["face", words[c % len(words)], "--index", str(c % 7), "--json"] for c in range(count)]

    def run(argvs) -> dict:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return {"exit_0": sum(cli.main(argv) == 0 for argv in argvs)}

    return prepare, run


def monoid_1ab() -> FinCategory:
    """One object; endomorphisms {1, a, b} with a idempotent and b absorbing."""
    absorbing = {("1", x): x for x in "1ab"} | {(x, "1"): x for x in "1ab"}
    table = absorbing | {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "b"}
    return FinCategory(["*"], [(e, "*", "*") for e in "1ab"], {"*": "1"}, table)


#: The carriers of the sweep cases, by name.
SWEEP_CARRIERS = {
    "chain3": lambda: chain_poset(["0", "1", "2"]),
    "antichain3": lambda: antichain_poset(["0", "1", "2"]),
    "zmonoid": zmonoid_category,
    "monoid-1ab": monoid_1ab,
}


#: The docs examples of ``catsset skew check``.
SKEW_DOCS = ["docs/examples/skew-two-or.json", "docs/examples/skew-kappa-z.json"]


def _sweep(carrier: str):
    def run(built) -> dict:
        s = sweep_equivalence(built)
        return {
            "candidates": s.candidates,
            "natural_candidates": s.natural_candidates,
            "skew_structures": s.skew_structure_count,
        }

    return SWEEP_CARRIERS[carrier], run


def _strict_checks(carrier: str):
    """``check_axioms`` and ``check_pentagons`` of each strict structure among the skew
    structures on ``carrier``."""

    def prepare() -> list:
        structures = enumerate_skew_structures(SWEEP_CARRIERS[carrier]())
        return [d for d in structures if not validate_strict_monoidal(d)]

    def run(structures) -> dict:
        reports = [(check_axioms(d), check_pentagons(d)) for d in structures]
        return {
            "structures": len(reports),
            "axioms_hold": sum(a.all_hold for a, _ in reports),
            "pentagons_hold": sum(p.all_hold for _, p in reports),
        }

    return prepare, run


def _skew_check_calls(files: list[str], rounds: int):
    """``rounds`` in-process ``catsset skew check FILE --json`` calls per file, tallied by exit code."""

    def run(_) -> dict:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for _ in range(rounds):
                codes.extend(cli.main(["skew", "check", path, "--json"]) for path in files)
        return {f"exit_{code}": codes.count(code) for code in sorted(set(codes))}

    return lambda: None, run


def _command(*argv: str):
    """A CLI case; its counters are the exit code and counts read off the JSON output."""

    def run(_) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--json"])
        doc = json.loads(out.getvalue())
        counters = {"exit_code": code}
        if doc["command"] == "verify":
            checks = doc["checks"]
            counters["checks"] = len(checks)
            counters["checks_passed"] = sum(c["passed"] for c in checks)
            for c in checks:
                if c["name"] == "nerve-iso-count":
                    counters["maps_found"] = int(c["detail"].split()[0])
        else:
            counters["maps_found"] = doc["count"]
        return counters

    return lambda: None, run


#: (layer, case, params, (prepare, run)); ``run(prepare())`` returns the counters.
CASES = [
    ("sset", "catalan_sset", {"N": 9}, _catalan(9)),
    ("sset", "catalan_sset", {"N": 10}, _catalan(10)),
    ("sset", "_boundaries", {"set": "catalan_sset(9)", "n": 9}, _join(9)),
    ("sset", "_boundaries", {"set": "catalan_sset(10)", "n": 10}, _join(10)),
    ("sset", "check_simplicial_identities", {"set": "catalan_sset(7)"}, _identities(7)),
    ("sset", "check_simplicial_identities", {"set": "catalan_sset(8)"}, _identities(8)),
    (
        "sset",
        "check_simplicial_identities",
        {"set": "catalan_sset(8)", "planted": "d_0 and s_0 of each level's last simplex"},
        _identities(8, planted=True),
    ),
    ("sset", "is_r_coskeletal_up_to", {"set": "catalan_sset(7)", "r": 2, "maxdim": 7}, _coskeletal(2, 7)),
    ("nerve", "monoidal_nerve", {"structure": "boolean_or", "N": 9}, _nerve(9)),
    ("nerve", "monoidal_nerve", {"structure": "boolean_or", "N": 10}, _nerve(10)),
    (
        "nerve",
        "monoidal_nerve+is_r_coskeletal_up_to",
        {"structures": "structure_library()", "N": 4, "r": 3},
        _nerve_coskeletal(),
    ),
    *(
        ("cli", "verify", {"argv": argv}, _command(*argv))
        for argv in (
            ["verify", "--suite", "identities", "--max-dim", "9"],
            ["verify", "--suite", "identities", "--max-dim", "10"],
            ["verify", "--suite", "coskeletal", "--max-dim", "9"],
            ["verify", "--suite", "coskeletal", "--max-dim", "10"],
            ["verify", "--suite", "nerve-iso", "--max-dim", "8"],
            ["verify", "--suite", "nerve-iso", "--max-dim", "9"],
        )
    ),
    (
        "cli",
        "classify",
        {"argv": ["classify", "docs/examples/chain3-max.json"]},
        _command("classify", "docs/examples/chain3-max.json"),
    ),
    *(("skew", "sweep_equivalence", {"carrier": c}, _sweep(c)) for c in SWEEP_CARRIERS),
    ("skew", "check_axioms+check_pentagons", {"structures": "strict on chain3"}, _strict_checks("chain3")),
    (
        "cli",
        "skew check",
        {"files": SKEW_DOCS, "rounds": 20},
        _skew_check_calls(SKEW_DOCS, 20),
    ),
    ("relations", "filler", {"words": "enumerate_dyck(8)"}, _fillers(8)),
    ("relations", "relation_face", {"relations": "enumerate_k_relations(8)"}, _relation_faces(8)),
    ("relations", "to_relation", {"words": "enumerate_dyck(9)"}, _to_relations(9)),
    ("cli", "face", {"calls": 200, "words": "enumerate_dyck(6)"}, _face_calls(200)),
    ("dyck", "apply_surjection", {"words": "ez_decompose of enumerate_dyck(8)"}, _surjections(8)),
    ("classify", "classify_maps", {"structures": "structure_library()"}, _classify_library()),
    (
        "classify",
        "verify_classification",
        {"structures": "structure_library()"},
        _verify_classification_library(),
    ),
    ("classify", "classify job", {"structures": "structure_library()", "N": 4}, _classify_jobs()),
]


#: The verify suites of the frontier section, searched from ``FRONTIER_FROM`` up to the dyck cap.
FRONTIER_SUITES = ("identities", "coskeletal", "nerve-iso")
FRONTIER_FROM = 4
#: The wall-time limit of the frontier, and the runs whose median is held against it.
FRONTIER_S = 1.0
FRONTIER_REPEATS = 3


#: The work counts of :func:`work_counted`; each also has a ``*_by_level`` breakdown.
WORK = ("joins", "tuples", "checked_cells", "filler_indexes")


@contextlib.contextmanager
def work_counted():
    """Count, inside the block, the boundary joins run and the tuples they return, the table
    cells the constructor checks and the filler indexes built, in all and by level."""
    work: dict = {key: 0 for key in WORK} | {f"{key}_by_level": {} for key in WORK}

    def tally(key: str, n: int, amount: int) -> None:
        work[key] += amount
        by_level = work[f"{key}_by_level"]
        by_level[str(n)] = by_level.get(str(n), 0) + amount

    real_join = sset_module._boundaries
    real_checked = TruncatedSSet._checked
    real_index = TruncatedSSet._filler_index

    def counted(levels, faces, n):
        found = real_join(levels, faces, n)
        tally("joins", n, 1)
        tally("tuples", n, len(found))
        return found

    def checked(self, tables, n, step):
        out = real_checked(self, tables, n, step)
        tally("checked_cells", n, sum(map(len, out)))
        return out

    def indexed(self, n):
        if n not in self._filler_cache:
            tally("filler_indexes", n, 1)
        return real_index(self, n)

    # every namespace that calls the join by this name: the engine's, the nerve's and this script's
    namespaces = (vars(sset_module), vars(nerve_module), globals())
    for space in namespaces:
        space["_boundaries"] = counted
    TruncatedSSet._checked, TruncatedSSet._filler_index = checked, indexed
    try:
        yield work
    finally:
        for space in namespaces:
            space["_boundaries"] = real_join
        TruncatedSSet._checked, TruncatedSSet._filler_index = real_checked, real_index


def measure(prepare, run, repeats: int = REPEATS) -> tuple[float, dict, dict]:
    """The median wall time of ``repeats`` runs after one warm-up, their counters, and the
    warm-up's work (:func:`work_counted`)."""
    inputs = prepare()
    with work_counted() as work:
        counters = run(inputs)
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        got = run(inputs)
        times.append(time.perf_counter() - start)
        if got != counters:
            raise SystemExit(f"counters changed between runs: {counters} then {got}")
    return statistics.median(times), counters, work


def frontier() -> list[dict]:
    """Per suite, the largest ``--max-dim`` whose median wall time is under ``FRONTIER_S``.

    Each entry holds that case's wall time and counters, and ``over``, the
    first dimension past it with its wall time, or None when the search
    reached the dyck cap.  It is recorded, not compared between sides.
    """
    found = []
    for suite in FRONTIER_SUITES:
        entry: dict = {"suite": suite, "max_dim": None, "wall_s": None, "counters": None, "over": None}
        for dim in range(FRONTIER_FROM, cli.DEFAULT_CAPS["dyck"] + 1):
            case = _command("verify", "--suite", suite, "--max-dim", str(dim))
            wall, counters, _ = measure(*case, FRONTIER_REPEATS)
            if wall >= FRONTIER_S:
                entry["over"] = {"max_dim": dim, "wall_s": round(wall, 4)}
                break
            entry.update(max_dim=dim, wall_s=round(wall, 4), counters=counters)
        found.append(entry)
        print(f"frontier  {suite:17} {json.dumps(entry)}")
    return found


def source_lines() -> dict:
    """The non-blank line count of each ``src/catsset/*.py``, their total, and each module's
    compile heap peak in MB."""
    package = os.path.join(ROOT, "src", "catsset")
    modules, peaks = {}, {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            modules[name] = sum(1 for line in text.splitlines() if line.strip())
            gc.collect()
            tracemalloc.start()
            compile(text, path, "exec")
            peaks[name] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
            tracemalloc.stop()
    return {"modules": modules, "total": sum(modules.values()), "compile_peak_mb": peaks}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True, help="name of this checkout's side, e.g. parent or change")
    parser.add_argument("--out", required=True, help="JSON file to write this side into")
    args = parser.parse_args()
    out = os.path.abspath(args.out)
    os.chdir(ROOT)
    doc = {"python": platform.python_version(), "platform": platform.platform(), "repeats": REPEATS}
    if os.path.exists(out):
        with open(out) as fh:
            old = json.load(fh)
        if any(old[key] != doc[key] for key in doc):
            print(f"error: {out} was written by another Python, platform or repeat count", file=sys.stderr)
            return 2
        doc = old
    entries, works = [], []
    for layer, case, params, (prepare, run) in CASES:
        wall, counters, work = measure(prepare, run)
        entries.append(
            {"layer": layer, "case": case, "params": params, "wall_s": round(wall, 4), "counters": counters}
        )
        works.append({"case": case, "params": params, **work})
        print(f"{layer:9} {case:17} {json.dumps(params):62} {wall:8.3f} s  {json.dumps(counters)}")
        print(f"{'work':9} {case:17} {json.dumps(params):62} {json.dumps(work)}")
    doc.setdefault("work", {})[args.side] = works
    doc.setdefault("frontier", {})[args.side] = frontier()
    source = doc.setdefault("source", {})[args.side] = source_lines()
    print(f"source    {json.dumps(source)}")
    sides = doc.setdefault("sides", {})
    sides[args.side] = entries
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    status = 0
    for name, others in sides.items():
        if name == args.side:
            continue
        theirs = {(e["case"], json.dumps(e["params"])): e for e in others}
        their_work = {(w["case"], json.dumps(w["params"])): w for w in doc["work"].get(name, [])}
        for mine, work in zip(entries, works):
            key = (mine["case"], json.dumps(mine["params"]))
            other = theirs.get(key)
            same = other is not None and other["counters"] == mine["counters"]
            status |= not same
            ratio = f"{mine['wall_s'] / other['wall_s']:6.2f}" if other and other["wall_s"] else "     -"
            before = their_work.get(key, {})
            moved = "  ".join(f"{k} {before.get(k, '-')} -> {work[k]}" for k in WORK)
            print(
                f"{args.side}/{name} {mine['case']:17} {json.dumps(mine['params']):62} "
                f"{ratio}  counters {'equal' if same else 'DIFFER'}  {moved}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
