"""Wall times and exact output counts of catsset's kernels and commands, parent against change.

Usage, from the root of a checkout (standard library and the ``git`` command only):

    python3 bench/run.py [--against REV] --out BENCH.json

The change is this checkout's ``src/catsset``, uncommitted edits
included, imported as ``catsset``.  The parent is ``src/catsset`` at the
git revision REV (default ``HEAD``), extracted by ``git archive`` into a
temporary directory and imported as ``catsset_parent``.  The package's
imports are relative, so each tree loads its own modules.  A revision
that cannot be extracted exits 2.

Each case takes one tree's modules (``api.sset``, ``api.cli``, ...),
builds its inputs from that tree, untimed, and returns the run to time:
each tree prepares its own inputs, because one tree's objects are not
instances of the other's classes.  Both trees run every case once to
warm up.  Then each round times each tree once on each case that runs
at least ``REPEATS`` rounds, or more while short (``MAX_ROUNDS``); even
rounds take the cases in order and the parent first, odd ones the cases
in reverse and the change first, so that no case always runs after the
same neighbour.  ``gc.collect()`` runs before each timing.  ``sides``
holds each tree's median as ``wall_s``.  ``ratios`` holds ``min_ratio``, the change's fastest run
over the parent's (below 1 is faster), and ``round_ratios``, the
quartiles of the change/parent ratios within one round.  When the host
changes speed during a case, the two minima can come from different
speeds and ``min_ratio`` falls outside the quartiles by more than 1.5
interquartile distances, the fence past which a reading is an outlier
rather than scatter; ``ratios`` then records ``min_outside_rounds`` true
and the case's line is marked, and the quartiles are the reading to
trust.
A run against a revision equal to the checkout (an A/A run) shows the
noise band.

``counters`` are exact output counts, such as boundary tuples, identity
violations, simplices built, maps found, sweep candidates and CLI exit
codes; they do not depend on the machine.  The script stops if two runs
of a case on one tree disagree on them.  It exits 1 when the trees'
counters differ, or when a case raises on one tree (say, it calls a
name the other tree lacks), which is recorded as that side's ``error``.
CLI cases call the tree's ``cli.main`` in-process with ``--json``.

Three sections are recorded per tree and not compared: ``frontier``
(:func:`frontier`: the verify suites by dimension and ``classify`` by
chain size), ``source`` (:func:`source_lines`) and ``work``,
what each case's warm-up did (:func:`work_counted`), which a change may
lower and so is not a counter.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
import traceback
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The modules of a tree that the cases reach through ``api``.
MODULES = ("classify", "cli", "dyck", "finmon", "library", "nerve", "relations", "skew", "sset")

#: A case runs at least ``REPEATS`` rounds, and a short one more, up to ``MAX_ROUNDS``, while a tree's
#: runs fit in ``ROUNDS_S`` seconds: a few runs of a few milliseconds each see one moment of the host.
REPEATS, MAX_ROUNDS, ROUNDS_S = 7, 50, 0.5


def load_tree(package_dir: str, name: str) -> SimpleNamespace:
    """Import the package in ``package_dir`` under the name ``name``; its :data:`MODULES` by short name."""
    init = os.path.join(package_dir, "__init__.py")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[package_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{module: importlib.import_module(f"{name}.{module}") for module in MODULES})


def extract_tree(rev: str, into: str) -> str:
    """Extract ``src/catsset`` at the git revision ``rev`` under ``into``; the package's directory."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src/catsset"], capture_output=True)
    if archive.returncode:
        reason = " ".join(archive.stderr.decode(errors="replace").split())
        print(f"error: cannot extract src/catsset at {rev!r}: {reason}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return os.path.join(into, "src", "catsset")


def _join(api, n: int):
    S = api.sset.catalan_sset(n)
    return lambda: {"boundary_tuples": len(api.sset._boundaries(S.levels, S.faces, n))}


def _catalan(api, n: int):
    def run() -> dict:
        S = api.sset.catalan_sset(n)
        cells = sum(len(table) for tables in (*S.faces, *S.degens) for table in tables)
        return {"simplices_built": S.size(), "table_cells": cells}

    return run


def _planted(S):
    """``S`` with d_0 and s_0 of the last simplex of every level rerouted to the next index."""
    faces = [[list(t) for t in level] for level in S.faces]
    degens = [[list(t) for t in level] for level in S.degens]
    for tables, step in ((faces, -1), (degens, 1)):
        for n, level in enumerate(tables):
            if level:
                level[0][-1] = (level[0][-1] + 1) % len(S.levels[n + step])
    return type(S)(S.levels, faces, degens)


def _identities(api, N: int, planted: bool = False):
    """``check_simplicial_identities`` of ``catalan_sset(N)``, with a fault in every level if ``planted``.

    The planted faults break instances of every identity family at every
    level where that family can fail, so the violation count changes if
    the check skips a family or a level.
    """
    S = api.sset.catalan_sset(N)
    S = _planted(S) if planted else S
    return lambda: {"violations": len(api.sset.check_simplicial_identities(S))}


def _coskeletal(api, r: int, N: int):
    S = api.sset.catalan_sset(N)

    def run() -> dict:
        # each run starts from an empty filler index, as on a freshly built set
        S._filler_cache.clear()
        return {"coskeletal": int(api.sset.is_r_coskeletal_up_to(S, r, N))}

    return run


def _nondegenerate(api, N: int):
    S = api.sset.catalan_sset(N)

    def run() -> dict:
        # each run starts from no degeneracy witnesses, as on a freshly built set
        S._witness_cache.clear()
        return {"nondegenerate": sum(len(S.nondegenerate(n)) for n in range(N + 1))}

    return run


def _nerve(api, n: int):
    return lambda: {"simplices_built": api.nerve.monoidal_nerve(api.library.boolean_or(), n).size()}


def _chain_nerve(api, size: int, n: int):
    """``monoidal_nerve`` of the ``size``-chain with max at ``n``."""
    m = _chain_max(api, size)
    return lambda: {"simplices_built": api.nerve.monoidal_nerve(m, n).size()}


def _library_nerves(api, n: int):
    """``monoidal_nerve(m, n)`` of each structure of the library."""
    structures = list(api.library.structure_library().values())
    return lambda: {"simplices_built": sum(api.nerve.monoidal_nerve(m, n).size() for m in structures)}


def _nerve_coskeletal(api):
    """``monoidal_nerve(m, 4)`` of each structure of the library, then ``is_r_coskeletal_up_to(T, 3, 4)``."""
    structures = list(api.library.structure_library().values())

    def run() -> dict:
        nerves = [api.nerve.monoidal_nerve(m, 4) for m in structures]
        return {
            "simplices_built": sum(T.size() for T in nerves),
            "coskeletal": sum(api.sset.is_r_coskeletal_up_to(T, 3, 4) for T in nerves),
        }

    return run


def _classify_jobs(api):
    """perfbench's classify API job on each structure of the library.

    It validates the structure, builds its nerve at 4, runs
    ``classify_maps`` and ``enumerate_monoids``, builds ``catalan_sset(4)``
    and runs ``simplicial_maps(S, T, 3)``.
    """
    structures = list(api.library.structure_library().values())

    def run() -> dict:
        counters = dict.fromkeys(("valid", "simplices_built", "records", "monoids", "maps_found"), 0)
        for m in structures:
            counters["valid"] += not api.finmon.validate_strict_monoidal(m)
            T = api.nerve.monoidal_nerve(m, 4)
            counters["simplices_built"] += T.size()
            counters["records"] += len(api.classify.classify_maps(m))
            counters["monoids"] += len(api.finmon.enumerate_monoids(m))
            counters["maps_found"] += len(api.sset.simplicial_maps(api.sset.catalan_sset(4), T, 3))
        return counters

    return run


def _fillers(api, n: int):
    """``filler`` of the face tuple of every word of dimension n."""
    dyck, relations = api.dyck, api.relations
    cases = [
        ([relations.to_relation(dyck.face(w, k)) for k in range(n + 1)], relations.to_relation(w))
        for w in dyck.enumerate_dyck(n)
    ]
    return lambda: {"fillers_equal": sum(relations.filler(facets) == rel for facets, rel in cases)}


def _relation_faces(api, n: int):
    rels = api.relations.enumerate_k_relations(n)
    return lambda: {"faces": sum(api.relations.relation_face(rel, k).n == n - 1 for rel in rels for k in range(n + 1))}


def _relation_degeneracies(api, n: int):
    """Every degeneracy of every relation on {0..n}; the distinct ones are the degenerate (n+1)-simplices."""
    rels = api.relations.enumerate_k_relations(n)
    return lambda: {"distinct": len({api.relations.relation_degeneracy(rel, i) for rel in rels for i in range(n + 1)})}


def _from_relations(api, n: int):
    """``from_relation`` of every relation on {0..n}."""
    rels = api.relations.enumerate_k_relations(n)
    return lambda: {"distinct_words": len({api.relations.from_relation(rel) for rel in rels})}


def _to_relations(api, n: int):
    """``to_relation`` of every word of dimension n.  The count reads no ``pairs``, which a
    relation stored as its reach vector derives when first read."""
    words = api.dyck.enumerate_dyck(n)
    return lambda: {"distinct": len({api.relations.to_relation(w) for w in words})}


def _surjections(api, n: int):
    """``apply_surjection`` of the ``ez_decompose`` of every word of dimension n."""
    dyck = api.dyck
    cases = [(dyck.ez_decompose(w), w) for w in dyck.enumerate_dyck(n)]
    return lambda: {"words_rebuilt": sum(dyck.apply_surjection(phi, core) == w for (phi, core), w in cases)}


def _structure_library(api):
    """``structure_library()``: the library's structures, each built from its tables and checked."""

    def run() -> dict:
        structures = api.library.structure_library().values()
        return {"structures": len(structures), "morphisms": sum(len(m.category.morphisms) for m in structures)}

    return run


def _classify_library(api):
    """``classify_maps`` of each structure of the library."""
    structures = list(api.library.structure_library().values())
    return lambda: {"records": sum(len(api.classify.classify_maps(m)) for m in structures)}


def _verify_classification_library(api):
    """``verify_classification`` of each structure of the library, from the records and verdict it reads;
    ``maps`` counts the distinct records, each a map by its images on C_3."""
    structures = list(api.library.structure_library().values())

    def run() -> dict:
        results = [api.classify._classification(m) for m in structures]
        return {
            "records": sum(len(records) for records, _ in results),
            "maps": sum(len(set(records)) for records, _ in results),
            "agreements": sum(verdict for _, verdict in results),
        }

    return run


def _face_calls(api, count: int):
    """``count`` in-process ``catsset face`` calls over words of dimension 6."""
    words = api.dyck.enumerate_dyck(6)
    argvs = [["face", words[c % len(words)], "--index", str(c % 7), "--json"] for c in range(count)]

    def run() -> dict:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return {"exit_0": sum(api.cli.main(argv) == 0 for argv in argvs)}

    return run


def monoid_1ab(api):
    """One object; endomorphisms {1, a, b} with a idempotent and b absorbing."""
    absorbing = {("1", x): x for x in "1ab"} | {(x, "1"): x for x in "1ab"}
    table = absorbing | {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "b"}
    return api.finmon.FinCategory(["*"], [(e, "*", "*") for e in "1ab"], {"*": "1"}, table)


def isomorphic_pair(api):
    """Objects I and X with inverse isomorphisms f: I -> X and g: X -> I; thin, not a poset."""
    table = {("1I", "1I"): "1I", ("1X", "1X"): "1X", ("f", "1I"): "f", ("1X", "f"): "f"}
    table |= {("g", "1X"): "g", ("1I", "g"): "g", ("g", "f"): "1I", ("f", "g"): "1X"}
    morphisms = [("1I", "I", "I"), ("1X", "X", "X"), ("f", "I", "X"), ("g", "X", "I")]
    return api.finmon.FinCategory(["I", "X"], morphisms, {"I": "1I", "X": "1X"}, table)


#: The carriers of the sweep cases, by name, each built from a tree's modules.
SWEEP_CARRIERS = {
    "chain3": lambda api: api.finmon.chain_poset(["0", "1", "2"]),
    "antichain3": lambda api: api.finmon.antichain_poset(["0", "1", "2"]),
    "zmonoid": lambda api: api.library.zmonoid_category(),
    "monoid-1ab": monoid_1ab,
    "chain2-category": lambda api: api.finmon.poset_category(api.finmon.chain_poset(["0", "1"])),
    "isomorphic-pair": isomorphic_pair,
}
#: The sweep budget of a carrier whose raw tensor tables exceed the default one.
SWEEP_BUDGETS = {"isomorphic-pair": 2**4 * 4**16}


#: The docs examples of ``catsset skew check``.
SKEW_DOCS = ["docs/examples/skew-two-or.json", "docs/examples/skew-kappa-z.json"]


def _sweep(api, carrier: str):
    built = SWEEP_CARRIERS[carrier](api)

    def run() -> dict:
        s = api.skew.sweep_equivalence(built, SWEEP_BUDGETS.get(carrier, 1_000_000))
        return {
            "candidates": s.candidates,
            "natural_candidates": s.natural_candidates,
            "skew_structures": s.skew_structure_count,
        }

    return run


def _candidates(api, carrier: str):
    """Every candidate of ``skew_candidates`` over the carrier, drawn and counted."""
    built = SWEEP_CARRIERS[carrier](api)
    return lambda: {"candidates": sum(1 for _ in api.skew.skew_candidates(built))}


def _structures(api, carrier: str):
    """``enumerate_skew_structures`` over the carrier."""
    built = SWEEP_CARRIERS[carrier](api)
    return lambda: {"structures": len(api.skew.enumerate_skew_structures(built))}


def _strict_checks(api, carrier: str):
    """``check_axioms`` and ``check_pentagons`` of each strict structure among the skew
    structures on ``carrier``.  Each run checks structures whose index rows are not built
    yet, as freshly loaded ones, on a tree whose checks keep them on the structure."""
    skew = api.skew
    structures = skew.enumerate_skew_structures(SWEEP_CARRIERS[carrier](api))
    strict = [d for d in structures if not api.finmon.validate_strict_monoidal(d)]

    def run() -> dict:
        for d in strict:
            vars(d).pop("_rows", None)
        reports = [(skew.check_axioms(d), skew.check_pentagons(d)) for d in strict]
        return {
            "structures": len(reports),
            "axioms_hold": sum(a.all_hold for a, _ in reports),
            "pentagons_hold": sum(p.all_hold for _, p in reports),
        }

    return run


def _library_checks(api):
    """``skew_from_strict(m, kappa)``, then ``check_axioms`` and ``check_pentagons``, for each
    library structure with identity kappa and with each other endomorphism of the unit."""
    skew = api.skew
    subjects = []
    for m in api.library.structure_library().values():
        unit_id = m.category.id_of(m.unit)
        subjects += [(m, None)] + [(m, k) for k in m.category.hom(m.unit, m.unit) if k != unit_id]

    def run() -> dict:
        reports = []
        for m, kappa in subjects:
            d = skew.skew_from_strict(m, kappa)
            reports += [skew.check_axioms(d), skew.check_pentagons(d)]
        return {"reports": len(reports), "reports_hold": sum(r.all_hold for r in reports)}

    return run


def _skew_check_calls(api, files: list[str], rounds: int):
    """``rounds`` in-process ``catsset skew check FILE --json`` calls per file, tallied by exit code."""

    def run() -> dict:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for _ in range(rounds):
                codes.extend(api.cli.main(["skew", "check", path, "--json"]) for path in files)
        return {f"exit_{code}": codes.count(code) for code in sorted(set(codes))}

    return run


def _command(api, argv: list[str]):
    """A CLI case; its counters are the exit code and counts read off the JSON output."""

    def run() -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = api.cli.main([*argv, "--json"])
        counters = {"exit_code": code}
        if not out.getvalue():  # an error, reported on stderr alone
            return counters
        doc = json.loads(out.getvalue())
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

    return run


#: (layer, case, params, make, *args); ``make(api, *args)`` prepares the case on one tree and
#: returns the run to time, which returns the counters.
CASES = [
    ("sset", "catalan_sset", {"N": 9}, _catalan, 9),
    ("sset", "catalan_sset", {"N": 10}, _catalan, 10),
    ("sset", "_boundaries", {"set": "catalan_sset(9)", "n": 9}, _join, 9),
    ("sset", "_boundaries", {"set": "catalan_sset(10)", "n": 10}, _join, 10),
    ("sset", "check_simplicial_identities", {"set": "catalan_sset(7)"}, _identities, 7),
    ("sset", "check_simplicial_identities", {"set": "catalan_sset(8)"}, _identities, 8),
    (
        "sset",
        "check_simplicial_identities",
        {"set": "catalan_sset(8)", "planted": "d_0 and s_0 of each level's last simplex"},
        _identities,
        8,
        True,
    ),
    ("sset", "is_r_coskeletal_up_to", {"set": "catalan_sset(7)", "r": 2, "maxdim": 7}, _coskeletal, 2, 7),
    ("sset", "nondegenerate", {"set": "catalan_sset(9)", "levels": "0..9"}, _nondegenerate, 9),
    ("nerve", "monoidal_nerve", {"structure": "boolean_or", "N": 9}, _nerve, 9),
    ("nerve", "monoidal_nerve", {"structure": "boolean_or", "N": 10}, _nerve, 10),
    ("nerve", "monoidal_nerve", {"structure": "12-chain with max", "N": 3}, _chain_nerve, 12, 3),
    ("nerve", "monoidal_nerve", {"structures": "structure_library()", "N": 4}, _library_nerves, 4),
    ("nerve", "monoidal_nerve", {"structures": "structure_library()", "N": 5}, _library_nerves, 5),
    (
        "nerve",
        "monoidal_nerve+is_r_coskeletal_up_to",
        {"structures": "structure_library()", "N": 4, "r": 3},
        _nerve_coskeletal,
    ),
    *(
        ("cli", argv[0], {"argv": argv}, _command, argv)
        for argv in (
            ["verify", "--suite", "identities", "--max-dim", "9"],
            ["verify", "--suite", "identities", "--max-dim", "10"],
            ["verify", "--suite", "coskeletal", "--max-dim", "9"],
            ["verify", "--suite", "coskeletal", "--max-dim", "10"],
            ["verify", "--suite", "nerve-iso", "--max-dim", "8"],
            ["verify", "--suite", "nerve-iso", "--max-dim", "9"],
            ["classify", "docs/examples/chain3-max.json"],
        )
    ),
    *(("skew", "sweep_equivalence", {"carrier": c}, _sweep, c) for c in SWEEP_CARRIERS),
    ("skew", "skew_candidates", {"carrier": "monoid-1ab"}, _candidates, "monoid-1ab"),
    ("skew", "enumerate_skew_structures", {"carrier": "chain3"}, _structures, "chain3"),
    ("skew", "check_axioms+check_pentagons", {"structures": "strict on chain3"}, _strict_checks, "chain3"),
    (
        "skew",
        "skew_from_strict+check_axioms+check_pentagons",
        {"structures": "structure_library()", "kappa": "each endomorphism of the unit"},
        _library_checks,
    ),
    ("cli", "skew check", {"files": SKEW_DOCS, "rounds": 20}, _skew_check_calls, SKEW_DOCS, 20),
    ("relations", "filler", {"words": "enumerate_dyck(8)"}, _fillers, 8),
    ("relations", "relation_face", {"relations": "enumerate_k_relations(8)"}, _relation_faces, 8),
    ("relations", "relation_degeneracy", {"relations": "enumerate_k_relations(8)"}, _relation_degeneracies, 8),
    ("relations", "to_relation", {"words": "enumerate_dyck(9)"}, _to_relations, 9),
    ("relations", "from_relation", {"relations": "enumerate_k_relations(9)"}, _from_relations, 9),
    ("cli", "face", {"calls": 200, "words": "enumerate_dyck(6)"}, _face_calls, 200),
    ("dyck", "apply_surjection", {"words": "ez_decompose of enumerate_dyck(8)"}, _surjections, 8),
    ("finmon", "structure_library", {}, _structure_library),
    ("classify", "classify_maps", {"structures": "structure_library()"}, _classify_library),
    ("classify", "verify_classification", {"structures": "structure_library()"}, _verify_classification_library),
    ("classify", "classify job", {"structures": "structure_library()", "N": 4}, _classify_jobs),
]


#: The verify suites of the frontier section, searched from ``FRONTIER_FROM`` up to the dyck cap.
FRONTIER_SUITES = ("identities", "coskeletal", "nerve-iso")
FRONTIER_FROM = 4
#: The wall-time limit of the frontier, and the runs whose median is held against it.
FRONTIER_S = 1.0
FRONTIER_REPEATS = 3
#: The sizes of the n-chains with max that the frontier classifies, in the order searched.
FRONTIER_CHAINS = (14, 18, 22, 26, 30)


#: The work counts of :func:`work_counted`; each also has a ``*_by_level`` breakdown.
WORK = ("joins", "tuples", "checked_cells", "filler_indexes", "skew_tables", "skew_conditions")


@contextlib.contextmanager
def work_counted(api):
    """Count, inside the block, the boundary joins that tree runs and the tuples they return,
    the table cells its constructor checks (``TruncatedSSet._checked``) and the filler indexes
    it builds, in all and by level, the object and morphism tensor tables the skew search
    draws (``skew._fill``), by their number of cells, and the skew conditions it evaluates
    (``skew._witness``), by their arity.  The join is ``sset._join``, which returns columns, on
    a tree that has it and ``sset._boundaries``, which returns tuples, on an older one.  An
    ``api`` without ``skew`` counts no tables and no conditions.  The timed runs call these
    functions unwrapped."""
    work: dict = {key: 0 for key in WORK} | {f"{key}_by_level": {} for key in WORK}

    def tally(key: str, n: int, amount: int) -> None:
        work[key] += amount
        by_level = work[f"{key}_by_level"]
        by_level[str(n)] = by_level.get(str(n), 0) + amount

    TruncatedSSet = api.sset.TruncatedSSet
    join = "_join" if hasattr(api.sset, "_join") else "_boundaries"
    real_join, real_checked, real_index = getattr(api.sset, join), TruncatedSSet._checked, TruncatedSSet._filler_index

    def counted(levels, faces, n, *order):
        found = real_join(levels, faces, n, *order)
        tally("joins", n, 1)
        tally("tuples", n, len(found[0]) if join == "_join" else len(found))
        return found

    def checked(self, tables, n, step):
        out = real_checked(self, tables, n, step)
        tally("checked_cells", n, sum(map(len, out)))
        return out

    def indexed(self, n):
        if n not in self._filler_cache:
            tally("filler_indexes", n, 1)
        return real_index(self, n)

    skew = getattr(api, "skew", None)
    real_fill, real_witness = getattr(skew, "_fill", None), getattr(skew, "_witness", None)

    def filled(domains, admits):
        for table in real_fill(domains, admits):
            tally("skew_tables", len(domains), 1)
            yield table

    def witnessed(r, arity, fn):
        tally("skew_conditions", arity, 1)
        return real_witness(r, arity, fn)

    # the modules that call the join by this name: the engine and the nerve
    modules = (api.sset, api.nerve)
    for module in modules:
        setattr(module, join, counted)
    TruncatedSSet._checked, TruncatedSSet._filler_index = checked, indexed
    if skew:
        skew._fill, skew._witness = filled, witnessed
    try:
        yield work
    finally:
        for module in modules:
            setattr(module, join, real_join)
        TruncatedSSet._checked, TruncatedSSet._filler_index = real_checked, real_index
        if skew:
            skew._fill, skew._witness = real_fill, real_witness


def measure(cases: list, trees: dict, repeats: int = REPEATS) -> list[dict]:
    """Per case ``(make, args)``, per tree, the case ``make(api, *args)``: its run times over at least
    ``repeats`` rounds after one warm-up, its counters and the warm-up's work (:func:`work_counted`),
    or the error it raised.

    Every case is warmed up first.  Then every round times each tree of each case once, in turn:
    even rounds take the cases, and each case's trees, in order, and odd rounds take both in
    reverse, so that no case always runs after the same neighbour.
    """
    runs: list[dict] = []
    got: list[dict] = []
    rounds = []
    for make, args in cases:
        case_runs, case_got, warm = {}, {}, 0.0
        for side, api in trees.items():
            try:
                run = make(api, *args)
                start = time.perf_counter()
                with work_counted(api) as work:
                    counters = run()
                warm = max(warm, time.perf_counter() - start)
            except Exception as exc:  # a name the case calls may be missing from this tree
                traceback.print_exc()
                case_got[side] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            case_runs[side] = run
            case_got[side] = {"times": [], "counters": counters, "work": work}
        runs.append(case_runs)
        got.append(case_got)
        rounds.append(max(repeats, min(MAX_ROUNDS, int(ROUNDS_S / max(warm, 1e-9)))))
    for r in range(max(rounds, default=0)):
        order = [k for k, last in enumerate(rounds) if r < last]
        for k in reversed(order) if r % 2 else order:
            for side in reversed(runs[k]) if r % 2 else runs[k]:
                gc.collect()
                start = time.perf_counter()
                counters = runs[k][side]()
                got[k][side]["times"].append(time.perf_counter() - start)
                if counters != got[k][side]["counters"]:
                    raise SystemExit(f"{side}: counters changed between runs: {got[k][side]['counters']} then {counters}")
    return got


def _chain_max(api, n: int):
    """The n-chain with max as tensor and its bottom as unit, built by the tree."""
    labels = [str(k) for k in range(n)]
    tensor = {(a, b): labels[max(int(a), int(b))] for a in labels for b in labels}
    return api.finmon.poset_as_category(api.finmon.MonoidalPoset(api.finmon.chain_poset(labels), tensor, "0"))


def _chain_file(api, n: int, directory: str) -> str:
    """:func:`_chain_max`, written by the tree as a ``classify`` file in ``directory``; its path."""
    path = os.path.join(directory, f"chain{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_chain_max(api, n).to_json_text())
    return path


def _largest(api, entry: dict, key: str, sizes, argv_of) -> dict:
    """``entry`` with the largest of ``sizes`` whose command ``argv_of(size)`` exits 0 with a median
    wall time on this tree under ``FRONTIER_S``, its wall time and counters, and ``over``, the first
    size past it with its wall time and exit code, or None when every size passed."""
    entry |= {key: None, "wall_s": None, "counters": None, "over": None}
    for size in sizes:
        got = measure([(_command, [argv_of(size)])], {"tree": api}, FRONTIER_REPEATS)[0]["tree"]
        if "error" in got:
            entry["error"] = got["error"]
            break
        wall = round(statistics.median(got["times"]), 4)
        if wall >= FRONTIER_S or got["counters"]["exit_code"]:
            entry["over"] = {key: size, "wall_s": wall, "exit_code": got["counters"]["exit_code"]}
            break
        entry.update({key: size, "wall_s": wall, "counters": got["counters"]})
    return entry


def frontier(api) -> list[dict]:
    """Per verify suite, the largest ``--max-dim`` up to the dyck cap, and for ``classify`` the
    largest n-chain with max of ``FRONTIER_CHAINS``, that exits 0 with a median wall time on this
    tree under ``FRONTIER_S`` (:func:`_largest`)."""
    dims = range(FRONTIER_FROM, api.cli.DEFAULT_CAPS["dyck"] + 1)
    found = [
        _largest(api, {"suite": suite}, "max_dim", dims, lambda dim: ["verify", "--suite", suite, "--max-dim", str(dim)])
        for suite in FRONTIER_SUITES
    ]
    with tempfile.TemporaryDirectory() as tmp:
        found.append(
            _largest(api, {"command": "classify"}, "chain", FRONTIER_CHAINS, lambda n: ["classify", _chain_file(api, n, tmp)])
        )
    return found


def source_lines(package_dir: str) -> dict:
    """The non-blank line count of each module in ``package_dir``, their total, and each
    module's compile heap peak in MB: tracemalloc's peak while ``compile()`` turns its source
    into code, which bounds the heap peak of importing the package fresh."""
    modules, peaks = {}, {}
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            path = os.path.join(package_dir, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            modules[name] = sum(1 for line in text.splitlines() if line.strip())
            gc.collect()
            tracemalloc.start()
            compile(text, path, "exec")
            peaks[name] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
            tracemalloc.stop()
    return {"modules": modules, "total": sum(modules.values()), "compile_peak_mb": peaks}


def compare(layer: str, case: str, params: dict, got: dict, doc: dict) -> bool:
    """Record one case's readings on both trees in ``doc`` and print them; whether the trees ran
    it with equal counters."""
    key = {"case": case, "params": params}
    for side, m in got.items():
        found = m if "error" in m else {"wall_s": round(statistics.median(m["times"]), 4), "counters": m["counters"]}
        doc["sides"][side].append({"layer": layer, **key, **found})
        if "work" in m:
            doc["work"][side].append({**key, **m["work"]})
    parent, change = got["parent"], got["change"]
    equal = "counters" in parent and parent["counters"] == change.get("counters")
    ratio = {**key, "counters_equal": equal, "min_ratio": None, "round_ratios": None, "min_outside_rounds": None}
    notes = []
    if "times" in parent and "times" in change:
        rounds = [c / p for c, p in zip(change["times"], parent["times"])]
        min_ratio = round(min(change["times"]) / min(parent["times"]), 3)
        quartiles = [round(q, 3) for q in statistics.quantiles(rounds, n=4)]
        fence = 1.5 * (quartiles[2] - quartiles[0])
        outside = not quartiles[0] - fence <= min_ratio <= quartiles[2] + fence
        ratio.update(min_ratio=min_ratio, round_ratios=quartiles, min_outside_rounds=outside)
        before, after = parent["work"], change["work"]
        notes = ["MIN OUTSIDE ROUNDS"] * outside
        notes += [f"{k} {before[k]} -> {after[k]}" for k in WORK if before[k] != after[k]]
    doc["ratios"].append(ratio)
    medians = [doc["sides"][side][-1].get("wall_s", "error") for side in ("parent", "change")]
    print(
        f"{layer:9} {case:17} {json.dumps(params):62} {medians[0]} -> {medians[1]} s  min-ratio {ratio['min_ratio']}"
        f" {ratio['round_ratios']}  counters {'equal' if equal else 'DIFFER'}  {'  '.join(notes)}"
    )
    return equal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD", help="git revision of the parent tree (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    out = os.path.abspath(args.out)
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {
            "parent": load_tree(extract_tree(args.against, tmp), "catsset_parent"),
            "change": load_tree(os.path.join(ROOT, "src", "catsset"), "catsset"),
        }
        doc: dict = {"against": args.against, "repeats": REPEATS, "ratios": []}
        doc |= {section: {side: [] for side in trees} for section in ("sides", "work")}
        status = 0
        results = measure([(make, case_args) for _, _, _, make, *case_args in CASES], trees)
        for (layer, case, params, *_), got in zip(CASES, results):
            status |= not compare(layer, case, params, got, doc)
        doc["frontier"] = {side: frontier(api) for side, api in trees.items()}
        doc["source"] = {side: source_lines(os.path.dirname(api.sset.__file__)) for side, api in trees.items()}
    for section in ("frontier", "source"):
        for side, found in doc[section].items():
            print(f"{section:9} {side:7} {json.dumps(found)}")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
