"""Per-layer metrics of the traced run, and the probes that back them.

The metric names and units are those of ``per_layer`` in
``BENCHMARK.json``.  A metric with unit ``us`` or ``ms`` is a timing:
``<module>.<function>_<unit>`` is the median self time per call of the
span of that name, and ``cli.<subcommand>_ms`` times ``cli.main`` per
subcommand.  A metric with unit ``count`` is an exact total over the
run's jobs.  ``skew.natural_ratio`` and ``trace.overhead_pct`` are
derived in ``run.py``.

The result line must carry every per-layer metric on every workload.  A
function a workload never calls is therefore timed on a fixed small
probe call; the run's text output and its ``digests`` line name those
metrics as probed, and their spans carry job id -2.
"""

from __future__ import annotations

import json
import os
from typing import Callable

from common import run_cli
from spans import Api

SCALE_NS = {"us": 1e3, "ms": 1e6}

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    #: Every per-layer metric name with its unit, as BENCHMARK.json lists them.
    PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in json.load(_handle)["per_layer"]}
#: (span name, unit) of every timing metric.
TIMINGS = tuple((name[: -len(unit) - 1], unit) for name, unit in PER_LAYER.items() if unit in SCALE_NS)
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit == "count")


def probes(mods: dict) -> dict[str, Callable[[Api], object]]:
    """One small fixed call per timed span, made through the traced API."""
    dyck, relations, finmon, skew = mods["dyck"], mods["relations"], mods["finmon"], mods["skew"]
    two = mods["library"].boolean_or()
    phi, core = dyck.ez_decompose("UUDDUD")
    rel = relations.to_relation("UUDUDDUD")
    facets = [relations.relation_face(rel, k) for k in range(4)]
    data = skew.skew_from_strict(two)
    S4 = mods["sset"].catalan_sset(4)
    T4 = mods["nerve"].monoidal_nerve(two, 4)
    with open("probe-two-or.json", "w", encoding="utf-8") as handle:
        handle.write(two.to_json_text())
    with open("probe-skew-two-or.json", "w", encoding="utf-8") as handle:
        json.dump(data.to_json_dict(), handle)

    def cli(argv: list[str]) -> Callable[[Api], object]:
        return lambda api: run_cli(api, argv)

    return {
        "dyck.face": lambda api: api.dyck.face("UUDUDD", 1),
        "dyck.degeneracy": lambda api: api.dyck.degeneracy("UDUD", 0),
        "dyck.ez_decompose": lambda api: api.dyck.ez_decompose("UUDDUD"),
        "dyck.apply_surjection": lambda api: api.dyck.apply_surjection(phi, core),
        "dyck.nondegenerate_dyck": lambda api: api.dyck.nondegenerate_dyck(4),
        "relations.to_relation": lambda api: api.relations.to_relation("UUDUDDUD"),
        "relations.from_relation": lambda api: api.relations.from_relation(rel),
        "relations.relation_face": lambda api: api.relations.relation_face(rel, 1),
        "relations.filler": lambda api: api.relations.filler(facets),
        "motzkin.dyck_to_motzkin": lambda api: api.motzkin.dyck_to_motzkin("UUDUDD"),
        "motzkin.motzkin_to_dyck": lambda api: api.motzkin.motzkin_to_dyck("UCD"),
        "motzkin.verify_binomial_identity": lambda api: api.motzkin.verify_binomial_identity(8),
        "sset.catalan_sset": lambda api: api.sset.catalan_sset(4),
        "sset.check_simplicial_identities": lambda api: api.sset.check_simplicial_identities(S4),
        "sset.isomorphisms": lambda api: api.sset.isomorphisms(S4, T4),
        "sset.is_r_coskeletal_up_to": lambda api: api.sset.is_r_coskeletal_up_to(S4, 2, 4),
        "sset.simplicial_maps": lambda api: api.sset.simplicial_maps(S4, T4, 3),
        "finmon.validate_strict_monoidal": lambda api: api.finmon.validate_strict_monoidal(two),
        "finmon.enumerate_monoids": lambda api: api.finmon.enumerate_monoids(two),
        "nerve.monoidal_nerve": lambda api: api.nerve.monoidal_nerve(two, 4),
        "classify.classify_maps": lambda api: api.classify.classify_maps(two),
        "skew.sweep_equivalence": lambda api: api.skew.sweep_equivalence(finmon.chain_poset(["0", "1"])),
        "skew.skew_from_strict": lambda api: api.skew.skew_from_strict(two),
        "skew.check_naturality": lambda api: api.skew.check_naturality(data),
        "skew.check_axioms": lambda api: api.skew.check_axioms(data),
        "skew.check_pentagons": lambda api: api.skew.check_pentagons(data),
        "cli.face": cli(["face", "UUDUDD", "--index", "1", "--json"]),
        "cli.degeneracy": cli(["degeneracy", "UDUD", "--index", "0", "--json"]),
        "cli.decompose": cli(["decompose", "UUDDUD", "--json"]),
        "cli.motzkin": cli(["motzkin", "--from-dyck", "UUDUDD", "--json"]),
        "cli.classify": cli(["classify", "probe-two-or.json", "--json"]),
        "cli.skew": cli(["skew", "check", "probe-skew-two-or.json", "--json"]),
    }
