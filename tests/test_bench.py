"""The tree loader of ``bench/run.py``: a copy of the package imported under another name."""

import contextlib
import importlib.util
import io
import os
import shutil
import sys
from types import SimpleNamespace

import pytest

import catsset
import catsset.library
from catsset.library import boolean_or, zmonoid
from catsset.nerve import monoidal_nerve
from catsset.sset import _boundaries

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(ROOT, "bench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_importing_the_bench_loads_no_tree():
    before = set(sys.modules)
    bench = load_bench()
    assert not [name for name in set(sys.modules) - before if name.startswith("catsset")]
    # every case reaches catsset through the tree it is given, never through a module-level name
    origins = [getattr(value, "__module__", None) or getattr(value, "__name__", "") for value in vars(bench).values()]
    assert not [origin for origin in origins if str(origin).startswith("catsset")]


def test_a_copied_tree_loads_its_own_modules(tmp_path):
    copy = tmp_path / "catsset"
    shutil.copytree(os.path.dirname(catsset.__file__), copy, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        api = load_bench().load_tree(str(copy), "catsset_copy")
        loaded = {name: module for name, module in sys.modules.items() if name.startswith("catsset_copy")}
        files = {name[:-3] for name in os.listdir(copy) if name.endswith(".py")}
        assert set(loaded) == {"catsset_copy"} | {f"catsset_copy.{name}" for name in files - {"__init__"}}
        assert all(module.__file__.startswith(str(copy) + os.sep) for module in loaded.values())
        assert api.sset.catalan_sset(4).to_json_text() == catsset.catalan_sset(4).to_json_text()
        assert api.sset.TruncatedSSet is not catsset.TruncatedSSet
    finally:
        for name in [name for name in sys.modules if name.startswith("catsset_copy")]:
            del sys.modules[name]


def test_every_case_runs_on_this_tree(monkeypatch):
    # each case once, untimed, on this checkout's modules: a case that reads a name the tree
    # lacks fails here rather than in a run against a parent
    bench = load_bench()
    api = SimpleNamespace(**{name: importlib.import_module(f"catsset.{name}") for name in bench.MODULES})
    monkeypatch.chdir(ROOT)
    for layer, case, params, make, *args in bench.CASES:
        counters = make(api, *args)()
        assert counters and all(type(v) is int for v in counters.values()), (layer, case, params)
        assert counters.get("exit_code", 0) == 0, (layer, case, params)


def test_work_counts_the_level_joins_the_builders_run():
    bench = load_bench()
    join = catsset.sset._join
    with bench.work_counted(SimpleNamespace(sset=catsset.sset, nerve=catsset.nerve)) as work:
        T = monoidal_nerve(boolean_or(), 6)
    assert catsset.sset._join is join and catsset.nerve._join is join
    # the nerve joins its level 3 and each level above once; a poset's squares all commute
    assert work["joins_by_level"] == {str(n): 1 for n in range(3, 7)}
    assert work["tuples_by_level"] == {str(n): len(T.levels[n]) for n in range(3, 7)}
    assert len(_boundaries(T.levels, T.faces, 3)) == len(T.levels[3])


def test_work_counts_the_skew_conditions_a_check_evaluates():
    bench = load_bench()
    witness = catsset.skew._witness
    api = SimpleNamespace(sset=catsset.sset, nerve=catsset.nerve, skew=catsset.skew)
    for kappa in (None, "z"):
        with bench.work_counted(api) as work:
            d = catsset.skew.skew_from_strict(zmonoid(), kappa)
            catsset.skew.check_axioms(d)
            catsset.skew.check_pentagons(d)
        assert catsset.skew._witness is witness
        # A1 is 5.1, kept from the axioms: one arity-4 condition, 5.2-5.4 and A2-A4, 5.5 and A5-A7, A8-A9
        assert work["skew_conditions"] == 13
        assert work["skew_conditions_by_level"] == {"4": 1, "2": 6, "0": 4, "1": 2}
    # on a thin category every condition holds by rule (finmon._thin), so the checks evaluate none
    with bench.work_counted(api) as work:
        d = catsset.skew.skew_from_strict(boolean_or())
        assert catsset.skew.check_axioms(d).all_hold and catsset.skew.check_pentagons(d).all_hold
    assert work["skew_conditions"] == 0


def test_work_counts_one_index_rows_build_per_structure():
    bench = load_bench()
    api = SimpleNamespace(sset=catsset.sset, nerve=catsset.nerve, skew=catsset.skew, finmon=catsset.finmon)
    init = catsset.finmon._Rows.__init__
    with bench.work_counted(api) as work:
        library = catsset.library.structure_library()
    assert catsset.finmon._Rows.__init__ is init
    # each constructor builds the rows it checks its structure on, and nothing else builds any
    assert work["index_rows"] == len(library) == 5
    assert work["index_rows_by_level"] == {"1": 1, "2": 2, "3": 2}
    for m, builds in ((boolean_or(), 0), (zmonoid(), 1)):
        with bench.work_counted(api) as work:
            d = catsset.skew.skew_from_strict(m)
            for check in (catsset.skew.check_naturality, catsset.skew.check_axioms, catsset.skew.check_pentagons):
                check(d)
                check(d)
        # skew data from a strict structure builds its rows on first read, which thin data never reaches
        assert work["index_rows"] == builds


@pytest.mark.parametrize("poset, tables", (("chain_poset", 29), ("antichain_poset", 33)))
def test_work_counts_the_object_tables_a_sweep_draws(poset, tables):
    # a thin carrier draws no morphism tables, and the search drops an object table as soon
    # as an alpha hom-set is empty: each table drawn is one unit's candidate here
    bench = load_bench()
    api = SimpleNamespace(sset=catsset.sset, nerve=catsset.nerve, skew=catsset.skew)
    with bench.work_counted(api) as work:
        summary = catsset.skew.sweep_equivalence(getattr(catsset.finmon, poset)(["0", "1", "2"]))
    assert work["skew_tables"] == summary.candidates == tables
    assert work["skew_tables_by_level"] == {"9": tables}


def test_work_counts_the_identity_cells_a_check_composes():
    bench = load_bench()
    columns = catsset.sset._identity_columns
    S, planted = catsset.sset.catalan_sset(5), bench._planted(catsset.sset.catalan_sset(5))
    with bench.work_counted(SimpleNamespace(sset=catsset.sset, nerve=catsset.nerve)) as work:
        assert catsset.sset.check_simplicial_identities(S) == []
    assert catsset.sset._identity_columns is columns
    size = [len(level) for level in S.levels]
    nondegenerate = [len(S.nondegenerate(n)) for n in range(6)]
    # both sides of each instance: d_i d_j on the non-degenerate simplices of levels 2..5, s_i s_j
    # on every simplex of levels 0..3 and d_i s_j on every simplex of levels 0..4
    face_face = sum(n * (n + 1) * nondegenerate[n] for n in range(2, 6))
    degeneracy = sum((n + 1) * (n + 2) * size[n] for n in range(4))
    face_degeneracy = sum(2 * (n + 1) * (n + 2) * size[n] for n in range(5))
    assert work["identity_cells"] == face_face + degeneracy + face_degeneracy
    # a failing set is read once more in full
    with bench.work_counted(SimpleNamespace(sset=catsset.sset, nerve=catsset.nerve)) as failing:
        assert catsset.sset.check_simplicial_identities(planted)
    everything = sum(n * (n + 1) * size[n] for n in range(2, 6)) + degeneracy + face_degeneracy
    assert everything < failing["identity_cells"] <= everything + work["identity_cells"]

def _compared(bench, parent_times, change_times):
    """The ``ratios`` entry and printed line of one case read off the given run times."""
    work = {key: 0 for key in bench.WORK}
    got = {
        side: {"times": times, "counters": {"n": 1}, "work": work}
        for side, times in (("parent", parent_times), ("change", change_times))
    }
    doc = {"ratios": [], "sides": {"parent": [], "change": []}, "work": {"parent": [], "change": []}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert bench.compare("sset", "case", {}, got, doc)
    return doc["ratios"][-1], out.getvalue()


def test_a_min_ratio_outside_the_round_quartiles_is_flagged():
    bench = load_bench()
    # the host sped up for the parent's last run only: the minima pair runs taken at two speeds
    ratio, line = _compared(bench, [1.0] * 6 + [0.5], [1.0] * 7)
    assert ratio["min_ratio"] == 2.0 and ratio["round_ratios"][2] < 2.0
    assert ratio["min_outside_rounds"] is True and "MIN OUTSIDE ROUNDS" in line
    # one speed throughout: the minimum agrees with the rounds
    ratio, line = _compared(bench, [1.0, 1.1, 1.0, 1.2, 1.0, 1.0, 1.1], [0.8, 0.9, 0.8, 1.0, 0.8, 0.8, 0.9])
    assert ratio["round_ratios"][0] <= ratio["min_ratio"] <= ratio["round_ratios"][2]
    assert ratio["min_outside_rounds"] is False and "MIN OUTSIDE ROUNDS" not in line
    # routine scatter: a minimum just below the quartiles lies inside the fence
    ratio, line = _compared(bench, [1.0] * 7, [0.972, 0.974, 0.974, 1.0, 1.018, 1.018, 1.05])
    assert ratio["min_ratio"] == 0.972 and ratio["round_ratios"][0] == 0.974 and ratio["round_ratios"][2] == 1.018
    assert ratio["min_outside_rounds"] is False and "MIN OUTSIDE ROUNDS" not in line


def test_odd_rounds_take_the_cases_and_trees_in_reverse():
    bench = load_bench()
    bench.MAX_ROUNDS = 2
    calls = []

    def make(api, name):
        def run():
            calls.append((name, api.tag))
            return {"n": 1}

        return run

    trees = {tag: SimpleNamespace(sset=catsset.sset, nerve=catsset.nerve, tag=tag) for tag in ("parent", "change")}
    got = bench.measure([(make, ["a"]), (make, ["b"])], trees, repeats=2)
    warm_ups = [("a", "parent"), ("a", "change"), ("b", "parent"), ("b", "change")]
    # each case after a different neighbour in the two rounds
    assert calls == warm_ups + warm_ups + warm_ups[::-1]
    assert [len(case[side]["times"]) for case in got for side in trees] == [2] * 4
