import dataclasses
import hashlib
import json
import re
import sys

import pytest

import catsset.classify
import catsset.finmon
import catsset.nerve
from catsset.classify import (
    MUL_TRIANGLE,
    UNIT_TRIANGLE,
    ClassificationRecord,
    check_fk_automatic,
    classify_maps,
    map_triple,
    verify_classification,
)
from catsset.dyck import FREE_EDGE
from catsset.errors import StructuralError
from catsset.finmon import FinCategory, FinMonoidalStructure, enumerate_monoids, validate_strict_monoidal
from catsset.nerve import _ImplicitNerve, monoidal_nerve, two_simplex_data
from catsset.sset import _enumerate_level_maps, _indexed, catalan_sset, simplicial_maps

EXPECTED_COUNTS = {
    "two-or": 2,
    "chain3-max": 3,
    "chain3-truncated-add": 2,
    # counts below were fixed by the first verified run
    "antichain2": 1,
    "zmonoid": 1,
}


def test_a_lawless_category_is_rejected_before_the_map_search():
    # identities only, with 1y . 1y = 1x: the strict laws read composability, not typing,
    # so they pass, and the category's constructor names the broken identity law, so no
    # such structure reaches a classification
    tables = (
        ["x", "y"], [("1x", "x", "x"), ("1y", "y", "y")], {"x": "1x", "y": "1y"},
        {("1x", "1x"): "1x", ("1y", "1y"): "1x"},
    )
    tensor = {("x", "x"): "x", ("x", "y"): "y", ("y", "x"): "y", ("y", "y"): "x"}
    mor_tensor = {(f, g): "1" + tensor[f[1], g[1]] for f in ("1x", "1y") for g in ("1x", "1y")}
    m = FinMonoidalStructure(FinCategory._trusted(*tables), tensor, mor_tensor, "x")
    assert validate_strict_monoidal(m) == []
    with pytest.raises(StructuralError, match=r"left identity at \('1y',\): id \. 1y = 1x \(2 total\)"):
        FinCategory(*tables)


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_record_counts(name, library):
    records = classify_maps(library[name])
    assert len(records) == EXPECTED_COUNTS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_three_way_agreement(name, library):
    assert verify_classification(library[name])


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_engine_leg_is_the_public_map_search(name, library, catalan4):
    # the classification searches maps without the public coskeletality
    # check; its engine triples equal those of simplicial_maps
    m = library[name]
    nerve = monoidal_nerve(m, 4)
    public = [map_triple(nerve, f) for f in simplicial_maps(catalan4, nerve, 3)]
    records, verdict = catsset.classify._classification(m)
    assert verdict and len(records) == len(public)
    assert {r.triple() for r in records} == set(public)


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_unit_square_condition_is_automatic(name, library):
    assert check_fk_automatic(library[name])


def test_records_carry_monoids(library):
    m = library["two-or"]
    records = classify_maps(m)
    monoid_triples = {(mo.carrier, mo.mu, mo.eta) for mo in enumerate_monoids(m)}
    for record in records:
        # strict tensor: eta and eta' coincide
        assert record.monoid.eta == record.eta_prime
        assert record.triple() in monoid_triples


def _as_data(T, comps):
    """Index components into a materialized nerve T, each image named by its data as the
    implicit nerve names it: 0, an object, (A12, A02, A01, f) or its four faces."""
    triangles = [two_simplex_data(label) for label in T.levels[2]]
    return (
        tuple(comps[0]),
        tuple(T.levels[1][y] for y in comps[1]),
        tuple(triangles[y] for y in comps[2]),
        tuple(tuple(triangles[face[y]] for face in T.faces[3]) for y in comps[3]),
    )


#: The names of ``structures``.
STRUCTURES = (*sorted(EXPECTED_COUNTS), "left-zero-antichain", "chain3-left-zero", "vee-right-zero")


@pytest.fixture(scope="module")
def structures(library, left_zero_antichain, non_commutative):
    """The library, the non-commutative antichain and the ``non_commutative`` structures by name."""
    found = dict(library) | {"left-zero-antichain": left_zero_antichain} | non_commutative
    assert sorted(found) == sorted(STRUCTURES)
    return found


def test_record_maps_are_maps(catalan4, structures, record_maps):
    # a record's images on C_3 are those of the engine's map with its triple, levels 0..3
    for name, m in structures.items():
        T = monoidal_nerve(m, 4)
        records = classify_maps(m)
        assert records, name
        for record, f in zip(records, record_maps(m, records)):
            comps = _indexed(catalan4, T, [f.level_map(n) for n in range(4)])
            assert record._images == _as_data(T, comps), name


#: sha256 of each library structure's records (triple, eta and map
#: components, in triple order), first 16 hex digits; taken while the
#: records still built their maps from the generator images by hand.
#: Each record's map is the engine map with its triple.
RECORD_DIGESTS = {
    "two-or": "131fba982aa6f6fd",
    "chain3-max": "4c2069a48b69af0f",
    "chain3-truncated-add": "059aeb469795bb0e",
    "antichain2": "81fa4ba379b754d9",
    "zmonoid": "00b1ffe000af469c",
}


@pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
def test_record_digests(name, library, record_maps):
    m = library[name]
    records = sorted(classify_maps(m), key=ClassificationRecord.triple)
    doc = [
        [list(r.triple()), r.monoid.eta, [[list(p) for p in c] for c in f.components]]
        for r, f in zip(records, record_maps(m, records))
    ]
    text = json.dumps(doc, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == RECORD_DIGESTS[name]


def test_records_hash_and_compare_by_value(library):
    # records are values: they go into sets, and classifying again gives equal records
    for name, m in library.items():
        records = classify_maps(m)
        assert len(set(records)) == len(records), name
        assert classify_maps(m) == records, name
        assert {hash(r) for r in classify_maps(m)} == {hash(r) for r in records}, name


def test_record_fields_are_its_images_monoid_and_eta_prime(structures):
    # a record is its images on C_3, as data, its monoid and eta'; all of them compare
    compared = {f.name: f.compare for f in dataclasses.fields(ClassificationRecord)}
    assert compared == {"_images": True, "monoid": True, "eta_prime": True}
    sizes = [len(level) for level in catalan_sset(3).levels]
    for name, m in structures.items():
        for record in classify_maps(m):
            assert type(record._images) is tuple and all(type(c) is tuple for c in record._images), name
            assert [len(c) for c in record._images] == sizes, name


def _counting_nerves(monkeypatch):
    """The nerves built from here on, by dimension: each materialization of an implicit nerve,
    and each coskeletal extension that builds a nerve's levels above 3."""
    built = []
    real_materialized, real_extended = catsset.nerve._ImplicitNerve.materialized, catsset.nerve._extended

    def materialized(self, n, max_simplices=1_000_000):
        built.append(("materialized", n))
        return real_materialized(self, n, max_simplices)

    def extended(S, n, max_simplices):
        built.append(("_extended", n))
        return real_extended(S, n, max_simplices)

    monkeypatch.setattr(catsset.nerve._ImplicitNerve, "materialized", materialized)
    monkeypatch.setattr(catsset.nerve, "_extended", extended)
    return built


@pytest.mark.parametrize("name", STRUCTURES)
def test_classification_builds_no_nerve_and_validates_once(name, structures, monkeypatch):
    m = structures[name]
    built = _counting_nerves(monkeypatch)
    checked = []
    real = catsset.finmon.validate_strict_monoidal

    def counting(m):
        checked.append(m)
        return real(m)

    # every module of the package that holds the validator calls the counting one
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("catsset.") and hasattr(module, "validate_strict_monoidal"):
            monkeypatch.setattr(module, "validate_strict_monoidal", counting)
    # the strict laws are checked once, by the constructor, and never inside a classification
    m = FinMonoidalStructure(m.category, m.obj_tensor, m.mor_tensor, m.unit)
    assert checked == [m]
    records, verdict = catsset.classify._classification(m)
    assert verdict and records and checked == [m]
    assert classify_maps(m) == records and checked == [m]
    assert built == []


def test_implicit_search_is_the_search_on_the_nerve(structures):
    for name, m in structures.items():
        T = monoidal_nerve(m, 3)
        want = [_as_data(T, comps) for comps in _enumerate_level_maps(catalan_sset(3), T, 3, False)]
        got = [tuple(map(tuple, comps)) for comps in _enumerate_level_maps(catalan_sset(3), _ImplicitNerve(m), 3, False)]
        assert want and len(set(want)) == len(want), name
        assert sorted(got) == sorted(want), name
    assert any(m.obj_tensor[a, b] != m.obj_tensor[b, a] for m in structures.values() for a, b in m.obj_tensor)


def test_shared_catalan_set_is_left_unchanged(structures):
    # every classification searches from the one module-level C_3
    for m in structures.values():
        classify_maps(m)
    shared, fresh = catsset.classify._CATALAN3, catalan_sset(3)
    assert shared.levels == fresh.levels
    assert shared.faces == fresh.faces
    assert shared.degens == fresh.degens


def test_maps_are_determined_by_generator_images(catalan4, library):
    # two maps agreeing on the edge and both triangles are equal
    for name, m in library.items():
        T = monoidal_nerve(m, 4)
        maps = simplicial_maps(catalan4, T, 3)
        triples = {map_triple(T, f) for f in maps}
        assert len(triples) == len(maps), name


def test_boolean_case_images(catalan4, library):
    m = library["two-or"]
    T = monoidal_nerve(m, 4)
    triples = {map_triple(T, f) for f in simplicial_maps(catalan4, T, 3)}
    assert triples == {
        ("bot", "bot<=bot", "bot<=bot"),
        ("top", "top<=top", "bot<=top"),
    }


def test_generator_words_are_the_nondegenerate_ones(catalan4):
    assert set(catalan4.nondegenerate(1)) == {FREE_EDGE}
    assert set(catalan4.nondegenerate(2)) == {MUL_TRIANGLE, UNIT_TRIANGLE}


def test_candidate_that_does_not_extend_is_an_error(monkeypatch, library):
    # with every square condition waived, a zmonoid candidate reaches the
    # map search and has no commuting extension; in a poset every
    # candidate still extends
    monkeypatch.setattr(catsset.classify, "_squares", lambda r, a, mu, etap: ())
    with pytest.raises(StructuralError, match=re.escape("('*', '1', 'z')")):
        classify_maps(library["zmonoid"])
    for name in ("two-or", "chain3-max", "chain3-truncated-add", "antichain2"):
        classify_maps(library[name])
