import dataclasses
import hashlib
import json
import re

import pytest

import catsset.classify
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
from catsset.nerve import monoidal_nerve
from catsset.sset import catalan_sset, is_simplicial_map, simplicial_maps

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
    compared = {f.name: f.compare for f in dataclasses.fields(ClassificationRecord)}
    assert compared == {
        "components": True,
        "monoid": True,
        "eta_prime": True,
        "structure": False,
        "nerve4": False,
    }
    for m in library.values():
        for record in classify_maps(m):
            assert len(record.components) == 4
            assert type(record.components) is tuple
            assert all(type(c) is tuple for c in record.components)


@pytest.mark.parametrize("make", (boolean_or, chain3_max))
def test_record_maps_share_one_level_four_nerve(make, monkeypatch):
    # the nerves the classification builds, by dimension: monoidal_nerve and
    # the coskeletal extension of its 3-truncation, which is the nerve at 4
    built = []
    real_nerve, real_extended = catsset.classify.monoidal_nerve, catsset.classify._extended

    def nerve(m, n):
        built.append(n)
        return real_nerve(m, n)

    def extended(S, n, max_simplices):
        built.append(n)
        return real_extended(S, n, max_simplices)

    monkeypatch.setattr(catsset.classify, "monoidal_nerve", nerve)
    monkeypatch.setattr(catsset.classify, "_extended", extended)
    m = make()
    records = classify_maps(m)
    assert len(records) > 1 and built == [3]
    maps = [r.map for r in records]
    # the first read builds the level-4 nerve for every record; reading again builds nothing
    assert built == [3, 4]
    assert [r.map for r in records] == maps and built == [3, 4]
    assert all(f.target is maps[0].target for f in maps)
    assert maps[0].target.to_json_text() == real_nerve(m, 4).to_json_text()


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
