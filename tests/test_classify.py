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


def test_shared_catalan_set_is_left_unchanged(library):
    # every classification reads the one module-level C_4
    for m in library.values():
        classify_maps(m)
    fresh, shared = catalan_sset(4), catsset.classify._CATALAN4
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
    monkeypatch.setattr(catsset.classify, "_CONDITIONS", (lambda m, a, mu, etap: True,))
    with pytest.raises(StructuralError, match=re.escape("('*', '1', 'z')")):
        classify_maps(library["zmonoid"])
    for name in ("two-or", "chain3-max", "chain3-truncated-add", "antichain2"):
        classify_maps(library[name])
