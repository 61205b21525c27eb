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
from catsset.finmon import enumerate_monoids
from catsset.library import boolean_or, chain3_max
from catsset.nerve import _ImplicitNerve, monoidal_nerve, two_simplex_data
from catsset.sset import _enumerate_level_maps, catalan_sset, is_simplicial_map, simplicial_maps

EXPECTED_COUNTS = {
    "two-or": 2,
    "chain3-max": 3,
    "chain3-truncated-add": 2,
    # counts below were fixed by the first verified run
    "antichain2": 1,
    "zmonoid": 1,
}


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


def test_record_maps_are_maps(catalan4, library):
    for name, m in library.items():
        T = monoidal_nerve(m, 4)
        for record in classify_maps(m):
            comps = [record.map.level_map(n) for n in range(5)]
            assert is_simplicial_map(catalan4, T, comps), name
            assert map_triple(T, record.map) == record.triple(), name


#: sha256 of each library structure's records (triple, eta and map
#: components, in triple order), first 16 hex digits; taken while the
#: records still built their maps from the generator images by hand.
RECORD_DIGESTS = {
    "two-or": "131fba982aa6f6fd",
    "chain3-max": "4c2069a48b69af0f",
    "chain3-truncated-add": "059aeb469795bb0e",
    "antichain2": "81fa4ba379b754d9",
    "zmonoid": "00b1ffe000af469c",
}


@pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
def test_record_digests(name, library):
    records = sorted(classify_maps(library[name]), key=ClassificationRecord.triple)
    doc = [
        [list(r.triple()), r.monoid.eta, [[list(p) for p in c] for c in r.map.components]]
        for r in records
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


def test_record_fields_are_tuples_and_the_context_does_not_compare(library):
    # records compare by their images, as data; the index components are read from the nerve
    compared = {f.name: f.compare for f in dataclasses.fields(ClassificationRecord)}
    assert compared == {
        "_images": True,
        "monoid": True,
        "eta_prime": True,
        "structure": False,
        "nerve4": False,
    }
    for m in library.values():
        for record in classify_maps(m):
            for images in (record._images, record.components):
                assert len(images) == 4
                assert type(images) is tuple
                assert all(type(c) is tuple for c in images)
            assert [len(c) for c in record._images] == [len(c) for c in record.components]


def _counting_nerves(monkeypatch):
    """The nerves built from here on, by dimension: each materialization of an implicit nerve,
    which a record's nerve at 4 is, and each coskeletal extension that builds a nerve's levels
    above 3."""
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


#: The one nerve a classification builds when a record's map or components are read.
ONE_NERVE = [("materialized", 4), ("_extended", 4)]


@pytest.mark.parametrize("make", (boolean_or, chain3_max))
def test_record_maps_share_one_level_four_nerve(make, monkeypatch):
    built = _counting_nerves(monkeypatch)
    m = make()
    records = classify_maps(m)
    assert len(records) > 1 and built == []
    maps = [r.map for r in records]
    # the first read builds the level-4 nerve for every record; reading again builds nothing
    assert built == ONE_NERVE
    assert [r.map for r in records] == maps and built == ONE_NERVE
    assert all(f.target is maps[0].target for f in maps)
    assert maps[0].target.to_json_text() == monoidal_nerve(m, 4).to_json_text()


def test_classification_builds_no_nerve_until_a_record_is_read(library, monkeypatch):
    built = _counting_nerves(monkeypatch)
    for name, m in library.items():
        records, verdict = catsset.classify._classification(m)
        assert verdict and records and built == [], name
        # the components read the nerve at 4, and the maps read the same one
        components = [r.components for r in records]
        assert built == ONE_NERVE, name
        assert [r.map.target for r in records] == [records[0].nerve4()] * len(records), name
        assert [r.components for r in records] == components and built == ONE_NERVE, name
        built.clear()


def test_reading_every_record_validates_the_structure_once(library, monkeypatch):
    checked = []
    real = catsset.finmon.validate_strict_monoidal

    def counting(m):
        checked.append(m)
        return real(m)

    # every module of the package that holds the validator calls the counting one
    for name, module in list(sys.modules.items()):
        if name.startswith("catsset.") and hasattr(module, "validate_strict_monoidal"):
            monkeypatch.setattr(module, "validate_strict_monoidal", counting)
    for name, m in library.items():
        checked.clear()
        records = classify_maps(m)
        assert records and [r.map for r in records] and [r.components for r in records], name
        assert checked == [m], name


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


def test_implicit_search_is_the_search_on_the_nerve(library, left_zero_antichain, non_commutative):
    structures = dict(library) | {"left-zero-antichain": left_zero_antichain} | non_commutative
    for name, m in structures.items():
        T = monoidal_nerve(m, 3)
        want = [_as_data(T, comps) for comps in _enumerate_level_maps(catalan_sset(3), T, 3, False)]
        got = [tuple(map(tuple, comps)) for comps in _enumerate_level_maps(catalan_sset(3), _ImplicitNerve(m), 3, False)]
        assert want and len(set(want)) == len(want), name
        assert sorted(got) == sorted(want), name
    assert any(m.obj_tensor[a, b] != m.obj_tensor[b, a] for m in structures.values() for a, b in m.obj_tensor)


def test_shared_catalan_set_is_left_unchanged(library):
    # every classification searches from the one module-level C_3, and every record map leaves C_4
    for m in library.values():
        [r.map for r in classify_maps(m)]
    c3, c4 = catsset.classify._CATALAN3, catsset.classify._CATALAN4
    for N, shared in ((3, c3), (4, c4)):
        fresh = catalan_sset(N)
        assert shared.levels == fresh.levels
        assert shared.faces == fresh.faces
        assert shared.degens == fresh.degens
    # a record's level-3 components index C_4 as they index C_3
    assert c3.levels == c4.levels[:4] and c3.faces == c4.faces[:4] and c3.degens[:3] == c4.degens[:3]


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
    monkeypatch.setattr(catsset.classify, "_CONDITIONS", (lambda m, a, mu, etap: True,))
    with pytest.raises(StructuralError, match=re.escape("('*', '1', 'z')")):
        classify_maps(library["zmonoid"])
    for name in ("two-or", "chain3-max", "chain3-truncated-add", "antichain2"):
        classify_maps(library[name])
