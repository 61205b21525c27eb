"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; all
checks are exact (integer or structural equality).
"""

import math
import time
from contextlib import contextmanager

from catsset.classify import check_fk_automatic, classify_maps, verify_classification
from catsset.dyck import (
    enumerate_dyck,
    face,
    nondegenerate_dyck,
)
from catsset.finmon import chain_poset, enumerate_monoids
from catsset.library import zmonoid_category
from catsset.motzkin import (
    catalan_number,
    dyck_to_motzkin,
    motzkin_number,
    motzkin_to_dyck,
    verify_binomial_identity,
)
from catsset.nerve import monoidal_nerve
from catsset.relations import (
    enumerate_k_relations,
    from_relation,
    relation_degeneracy,
    relation_face,
    to_relation,
)
from catsset.dyck import degeneracy
from catsset.skew import sweep_equivalence
from catsset.sset import (
    boundaries,
    catalan_sset,
    check_simplicial_identities,
    fillers,
    is_r_coskeletal_up_to,
    isomorphisms,
    simplicial_maps,
)


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_census():
    with criterion(1, "census"):
        counts = [len(enumerate_dyck(n)) for n in range(9)]
        assert counts == [1, 2, 5, 14, 42, 132, 429, 1430, 4862]
        closed_form = [
            math.comb(2 * n + 2, n + 1) // (n + 2) for n in range(9)
        ]
        assert counts == closed_form
        assert closed_form == [catalan_number(n + 1) for n in range(9)]


def test_criterion_2_low_dimension_tables():
    with criterion(2, "low-dimension tables"):
        star, e, c = "UD", "UUDD", "UDUD"
        assert enumerate_dyck(0) == [star]
        assert degeneracy(star, 0) == e
        face_tuples = {
            w: tuple(face(w, i) for i in range(3)) for w in enumerate_dyck(2)
        }
        assert face_tuples == {
            "UUUDDD": (e, e, e),
            "UUDDUD": (c, c, e),          # s0(c)
            "UDUUDD": (e, c, c),          # s1(c)
            "UDUDUD": (c, c, c),          # t
            "UUDUDD": (e, c, e),          # i
        }
        t, i = "UDUDUD", "UUDUDD"
        s0c, s1c = degeneracy(c, 0), degeneracy(c, 1)
        three_tuples = {
            w: tuple(face(w, q) for q in range(4)) for w in nondegenerate_dyck(3)
        }
        assert three_tuples == {
            "UDUDUDUD": (t, t, t, t),        # a
            "UDUUDUDD": (i, s1c, t, s1c),    # l
            "UUDUDDUD": (s0c, t, s0c, i),    # r
            "UUDUDUDD": (i, s1c, s0c, i),    # k
        }


def test_criterion_3_simplicial_identities(catalan8, nerve_two5):
    with criterion(3, "simplicial identities"):
        assert check_simplicial_identities(catalan8) == []
        assert check_simplicial_identities(nerve_two5) == []


def test_criterion_4_two_coskeletal(catalan7):
    with criterion(4, "2-coskeletality"):
        for n in range(3, 8):
            found = boundaries(catalan7, n)
            for b in found:
                assert len(fillers(catalan7, b)) == 1
            # the boundaries are exactly the face vectors of the n-simplices
            assert sorted(found) == sorted(
                catalan7.face_vector(n, x) for x in catalan7.level(n)
            )
        assert is_r_coskeletal_up_to(catalan7, 2, 7)
        # negative control: one 2-boundary has no filler
        assert fillers(catalan7, ("UDUD", "UUDD", "UDUD")) == []
        assert not is_r_coskeletal_up_to(catalan_sset(4), 1, 4)


def test_criterion_5_relation_model():
    with criterion(5, "relation model"):
        for n in range(8):
            words = enumerate_dyck(n)
            for w in words:
                rel = to_relation(w)
                assert from_relation(rel) == w
                for i in range(n + 1):
                    if n >= 1:
                        assert to_relation(face(w, i)) == relation_face(rel, i)
                    assert to_relation(degeneracy(w, i)) == relation_degeneracy(rel, i)
            rels = enumerate_k_relations(n)
            assert len(rels) == len(words)
            assert {to_relation(w) for w in words} == set(rels)


def test_criterion_6_motzkin():
    with criterion(6, "Motzkin bridge"):
        assert [len(nondegenerate_dyck(n)) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]
        assert [motzkin_number(n) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]
        for n in range(8):
            for w in nondegenerate_dyck(n):
                assert motzkin_to_dyck(dyck_to_motzkin(w)) == w
        assert all(verify_binomial_identity(n) for n in range(13))


def test_criterion_7_nerve_isomorphism(catalan4, nerve_two4):
    with criterion(7, "nerve isomorphism"):
        isos = isomorphisms(catalan4, nerve_two4)
        assert len(isos) == 1
        assert isos[0](1, "UDUD") == "top"
        assert isos[0](1, "UUDD") == "bot"


def test_criterion_8_classification(catalan4, library):
    with criterion(8, "classification"):
        expected = {
            "two-or": 2,
            "chain3-max": 3,
            "chain3-truncated-add": 2,
            # fixed as regression constants on the first verified run
            "antichain2": 1,
            "zmonoid": 1,
        }
        for name, m in library.items():
            records = classify_maps(m)
            monoids = enumerate_monoids(m)
            maps = simplicial_maps(catalan4, monoidal_nerve(m, 4), 3)
            assert len(records) == len(monoids) == len(maps) == expected[name], name
            assert verify_classification(m), name
            assert check_fk_automatic(m), name


def test_criterion_9_skew_equivalence():
    with criterion(9, "skew equivalence"):
        for carrier in (chain_poset(["0", "1"]), zmonoid_category()):
            summary = sweep_equivalence(carrier)
            assert summary.equivalence_holds
            assert summary.a5_forces_identity_kappa
            assert summary.a8_a9_pass_with_identity_kappa
