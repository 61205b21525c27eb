"""The tree loader of ``bench/run.py``: a copy of the package imported under another name."""

import importlib.util
import os
import shutil
import sys

import catsset

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
