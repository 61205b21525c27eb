import hashlib
import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from catsset import sset
from catsset.dyck import degeneracy, enumerate_dyck, face, require_dyck
from catsset.errors import BoundaryError, CatssetError, RelationConditionError
from catsset.relations import (
    EdgeRelation,
    enumerate_k_relations,
    filler,
    from_relation,
    is_k_relation,
    relation_degeneracy,
    relation_face,
    to_relation,
)


def test_is_k_relation_examples():
    assert is_k_relation(set(), 2)
    assert not is_k_relation({(0, 2)}, 2)
    assert is_k_relation({(0, 1), (1, 2), (0, 2)}, 2)
    assert not is_k_relation({(1, 0)}, 2)
    assert not is_k_relation({(0, 3)}, 2)


@pytest.mark.parametrize(
    "pairs",
    [{(0.0, 1.0)}, [(0, 1, 2)], [5], ["ab"], {(False, True)}, [(0, 1), ("a", "b")], [([0], [1])]],
)
def test_malformed_pair_sets_are_rejected(pairs):
    assert not is_k_relation(pairs, 2)
    with pytest.raises(RelationConditionError):
        EdgeRelation(2, pairs)


def test_pairs_may_be_any_two_int_sequence():
    assert EdgeRelation(2, [[0, 1], (1, 2), [0, 2]]).pairs == {(0, 1), (1, 2), (0, 2)}


def _all_pair_subsets(n):
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    for r in range(len(pairs) + 1):
        for subset in combinations(pairs, r):
            yield frozenset(subset)


@pytest.mark.parametrize("n", range(5))
def test_enumerate_matches_brute_force(n):
    brute = {s for s in _all_pair_subsets(n) if is_k_relation(s, n)}
    enumerated = {rel.pairs for rel in enumerate_k_relations(n)}
    assert enumerated == brute


@pytest.mark.parametrize("n", range(8))
def test_relation_count_equals_simplex_count(n):
    assert len(enumerate_k_relations(n)) == len(enumerate_dyck(n))


@given(
    st.integers(1, 4),
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
)
def test_constructor_enforces_conditions(n, pairs):
    if is_k_relation(pairs, n):
        EdgeRelation(n, frozenset(pairs))
    else:
        with pytest.raises(RelationConditionError):
            EdgeRelation(n, frozenset(pairs))


def test_to_relation_examples():
    assert to_relation("UUDD").pairs == {(0, 1)}
    assert to_relation("UDUDUD").pairs == frozenset()
    assert to_relation("UDUUDD").pairs == {(1, 2)}


def test_from_relation_examples():
    assert from_relation(EdgeRelation(1, frozenset())) == "UDUD"
    assert from_relation(EdgeRelation(2, frozenset({(1, 2)}))) == "UDUUDD"
    full = frozenset({(0, 1), (0, 2), (1, 2)})
    assert from_relation(EdgeRelation(2, full)) == "UUUDDD"


@pytest.mark.parametrize("n", range(8))
def test_mutual_inverse(n):
    for w in enumerate_dyck(n):
        rel = to_relation(w)
        assert from_relation(rel) == w
    for rel in enumerate_k_relations(n):
        assert to_relation(from_relation(rel)) == rel


@pytest.mark.parametrize("n", range(7))
def test_relation_sets_agree(n):
    via_words = {to_relation(w) for w in enumerate_dyck(n)}
    assert via_words == set(enumerate_k_relations(n))


def test_relation_face_examples():
    rel = EdgeRelation(2, frozenset({(0, 1), (0, 2), (1, 2)}))
    assert relation_face(rel, 1).pairs == {(0, 1)}
    assert relation_face(EdgeRelation(2, frozenset()), 0).pairs == frozenset()
    assert relation_face(EdgeRelation(2, frozenset({(1, 2)})), 2).pairs == frozenset()
    with pytest.raises(IndexError):
        relation_face(rel, 3)


@pytest.mark.parametrize("n", range(1, 8))
def test_face_naturality(n):
    for w in enumerate_dyck(n):
        rel = to_relation(w)
        for i in range(n + 1):
            assert to_relation(face(w, i)) == relation_face(rel, i)


@pytest.mark.parametrize("n", range(7))
def test_degeneracy_naturality(n):
    for w in enumerate_dyck(n):
        rel = to_relation(w)
        for i in range(n + 1):
            assert to_relation(degeneracy(w, i)) == relation_degeneracy(rel, i)


def _word_facets(word):
    n = len(word) // 2 - 1
    return [to_relation(face(word, i)) for i in range(n + 1)]


def test_filler_examples():
    # the all-free-edge 3-simplex
    assert filler(_word_facets("UDUDUDUD")).pairs == frozenset()
    # the totally degenerate 3-simplex
    w = degeneracy(degeneracy(degeneracy("UD", 0), 0), 0)
    assert filler(_word_facets(w)).pairs == {
        (i, j) for i in range(4) for j in range(i + 1, 4)
    }
    # the 3-simplex whose faces are (i, s1 c, t, s1 c)
    target = next(
        w
        for w in enumerate_dyck(3)
        if tuple(face(w, q) for q in range(4))
        == ("UUDUDD", "UDUUDD", "UDUDUD", "UDUUDD")
    )
    expected = to_relation(target)
    assert expected.pairs == {(1, 2), (2, 3)}
    assert filler(_word_facets(target)) == expected


def test_filler_accepts_words():
    facets = ["UDUDUD"] * 4
    assert filler(facets).pairs == frozenset()


@pytest.mark.parametrize("n", (3, 4))
def test_filler_reproduces_every_simplex(n):
    for w in enumerate_dyck(n):
        assert filler(_word_facets(w)) == to_relation(w)


def test_filler_errors():
    with pytest.raises(ValueError):
        filler(["UDUD", "UUDD", "UDUD"])  # dimension 2 has no canonical filler
    good = _word_facets("UDUDUDUD")
    bad = good[:3] + [to_relation(degeneracy("UUDD", 0))]
    with pytest.raises(BoundaryError):
        filler(bad)


def _assert_valid(rel):
    """``rel`` passes the full validator and equals the checked relation on its pairs."""
    assert type(rel.pairs) is frozenset
    assert is_k_relation(rel.pairs, rel.n), (rel.n, sorted(rel.pairs))
    assert EdgeRelation(rel.n, rel.pairs) == rel


@pytest.mark.parametrize("n", range(8))
def test_relations_built_without_a_check_are_valid(n):
    # to_relation, enumerate_k_relations, relation_face, relation_degeneracy
    # and filler derive relations from checked input and do not check them
    words = enumerate_dyck(n)
    rels = enumerate_k_relations(n)
    built = [to_relation(w) for w in words] + rels
    for rel in rels:
        built += [relation_degeneracy(rel, k) for k in range(n + 1)]
        if n:
            built += [relation_face(rel, k) for k in range(n + 1)]
    if n >= 3:
        built += [filler(_word_facets(w)) for w in words]
    for rel in built:
        _assert_valid(rel)


@st.composite
def _dyck_words(draw, dims=st.integers(3, 12)):
    """A Dyck word of a drawn dimension, drawn letter by letter."""
    n = draw(dims)
    word, ups, downs = "", 0, 0
    while downs <= n:
        up = ups <= n and (ups == downs or draw(st.booleans()))
        word += "U" if up else "D"
        ups, downs = ups + up, downs + (not up)
    return word


@given(st.data())
def test_relations_built_without_a_check_are_valid_up_to_dimension_12(data):
    word = data.draw(_dyck_words())
    n = len(word) // 2 - 1
    k = data.draw(st.integers(0, n))
    rel = to_relation(word)
    facets = [relation_face(rel, i) for i in range(n + 1)]
    for built in (rel, facets[k], relation_degeneracy(rel, k), filler(facets)):
        _assert_valid(built)
    # facet k swapped for any relation of its dimension fills or is refused
    swapped = facets[:k] + [to_relation(data.draw(_dyck_words(st.just(n - 1))))] + facets[k + 1 :]
    try:
        got = filler(swapped)
    except BoundaryError:
        return
    _assert_valid(got)
    assert [relation_face(got, i) for i in range(n + 1)] == swapped


# The pair-set formulas that stored a relation as a frozenset of pairs,
# kept as the reference for the reach-vector kernels.


def _reference_to_relation(word):
    _, downs = require_dyck(word)
    return frozenset((i, j) for i, d in enumerate(downs) for j in range(i + 1, d - i))


def _reference_face(pairs, k):
    return frozenset((i - (i > k), j - (j > k)) for i, j in pairs if i != k and j != k)


def _reference_degeneracy(pairs, n, i):
    lift = [(x,) for x in range(i)] + [(i, i + 1)] + [(x + 1,) for x in range(i + 1, n + 1)]
    return frozenset((a, b) for x, y in pairs for a in lift[x] for b in lift[y]) | {(i, i + 1)}


def _reference_filler(facets):
    return frozenset(
        {(i + 1, j + 1) for i, j in facets[0]}
        | {(0, j + 1) for i, j in facets[1] if i == 0}
        | ({(0, 1)} & facets[2])
    )


def _assert_kernels_match_the_pair_sets(word):
    """Every relation the kernels build from ``word`` against the reference formulas."""
    n = len(word) // 2 - 1
    rel, ref = to_relation(word), _reference_to_relation(word)
    built = [(rel, n, ref)]
    if n:
        built += [(relation_face(rel, k), n - 1, _reference_face(ref, k)) for k in range(n + 1)]
    built += [(relation_degeneracy(rel, i), n + 1, _reference_degeneracy(ref, n, i)) for i in range(n + 1)]
    if n >= 3:
        facets = built[1 : n + 2]
        built.append((filler([f for f, _, _ in facets]), n, _reference_filler([p for _, _, p in facets])))
    for got, m, pairs in built:
        assert (got.n, got.pairs) == (m, pairs), (word, got.reach)
        assert got.sorted_pairs() == [list(p) for p in sorted(pairs)]
        checked = EdgeRelation(m, pairs)
        assert got == checked and hash(got) == hash(checked)
    for a, m, p in built:
        for b, m2, p2 in built:
            assert (a == b) == ((m, p) == (m2, p2)), (word, a.reach, b.reach)


@pytest.mark.parametrize("n", range(8))
def test_reach_kernels_match_the_pair_set_formulas(n):
    for w in enumerate_dyck(n):
        _assert_kernels_match_the_pair_sets(w)


@given(_dyck_words(st.integers(0, 12)))
def test_reach_kernels_match_the_pair_set_formulas_up_to_dimension_12(word):
    _assert_kernels_match_the_pair_sets(word)


def _outcome(op, *args):
    try:
        return op(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(4))
def test_word_and_relation_kernels_refuse_an_index_alike(n):
    for w in enumerate_dyck(n):
        for i in range(-1, n + 3):
            for word_op, rel_op in ((face, relation_face), (degeneracy, relation_degeneracy)):
                want = _outcome(word_op, w, i)
                if isinstance(want, str):
                    want = to_relation(want)
                assert _outcome(rel_op, to_relation(w), i) == want, (w, i, word_op.__name__)


@pytest.mark.parametrize(
    "call",
    [
        lambda: face("UUDD", 2),
        lambda: degeneracy("UD", -1),
        lambda: relation_face(to_relation("UUDD"), 2),
        lambda: relation_degeneracy(to_relation("UD"), 1),
        lambda: sset.catalan_sset(1).level(2),
    ],
    ids=["face", "degeneracy", "relation_face", "relation_degeneracy", "level"],
)
def test_index_out_of_range_is_a_package_error_and_an_index_error(call):
    with pytest.raises(CatssetError) as info:
        call()
    assert isinstance(info.value, IndexError)
    assert "out of range" in str(info.value) or "outside truncation" in str(info.value)


def _reference_is_k_relation(pairs, n):
    # independent reference, straight from condition (ii): every vertex j
    # strictly inside a pair (i, k) needs (i, j) and (j, k), O(n^3) checks
    rel = set(tuple(p) for p in pairs)
    for i, j in rel:
        if not (0 <= i < j <= n):
            return False
    for i, k in rel:
        for j in range(i + 1, k):
            if (i, j) not in rel or (j, k) not in rel:
                return False
    return True


@pytest.mark.parametrize("n", range(5))
def test_closure_check_matches_the_cubic_reference(n):
    for subset in _all_pair_subsets(n):
        assert is_k_relation(subset, n) == _reference_is_k_relation(subset, n), sorted(subset)
        assert is_k_relation(subset, n - 1) == _reference_is_k_relation(subset, n - 1)


def _filler_outcomes(tuples, S):
    """Each tuple's filler checked against S, and a digest of every (tuple, message) pair.

    A tuple either fills, with the tuple as the faces of its filler, or
    raises for two facets that really disagree.
    """
    h = hashlib.sha256()
    filled = set()
    for t in tuples:
        rels = [to_relation(w) for w in t]
        try:
            got = filler(rels)
        except BoundaryError as exc:
            h.update(f"{' '.join(t)}: {exc}\n".encode("utf-8"))
            i, j = map(int, re.fullmatch(r"facets (\d) and (\d) disagree on their common face", str(exc)).groups())
            assert relation_face(rels[i], j - 1) != relation_face(rels[j], i), t
            continue
        (unique,) = sset.fillers(S, t)
        assert got == to_relation(unique), t
        assert [relation_face(got, k) for k in range(len(t))] == rels, t
        filled.add(t)
    return filled, h.hexdigest()


#: Digests of the (tuple, BoundaryError message) lists below, taken before
#: ``filler`` built its result first and checked its faces after.
FOUR_TUPLE_ERRORS_DIGEST = "a042857a9b0078887291779c6005f44a5faa71ce40cf16b750d7bd528948acb4"
SWAPPED_FACET_ERRORS_DIGEST = "a4f3b1693d3c56b98d6bea351c43c0186a40c8b0914377d7bf8a1279829ebac1"
RANDOM_FIVE_TUPLE_ERRORS_DIGEST = "1cb390346c3e48c485fb009b0fd4aa41c6c1b60b4a32db7d944d7f3c62ca7221"


def test_filler_on_every_four_tuple_of_2_simplices():
    S = sset.catalan_sset(3)
    tuples = list(product(S.level(2), repeat=4))
    assert len(tuples) == 625
    filled, digest = _filler_outcomes(tuples, S)
    assert filled == set(sset.boundaries(S, 3))
    assert len(filled) == 14
    assert digest == FOUR_TUPLE_ERRORS_DIGEST


def test_filler_on_4_boundaries_with_one_facet_swapped():
    S = sset.catalan_sset(4)
    found = sset.boundaries(S, 4)
    tuples = [b[:k] + (x,) + b[k + 1 :] for b in found for k in range(5) for x in S.level(3)]
    filled, digest = _filler_outcomes(tuples, S)
    assert filled == set(found)
    assert digest == SWAPPED_FACET_ERRORS_DIGEST


def test_filler_on_random_five_tuples_of_3_simplices():
    S = sset.catalan_sset(4)
    rng = random.Random(13)
    level = S.level(3)
    tuples = [tuple(rng.choice(level) for _ in range(5)) for _ in range(3000)]
    filled, digest = _filler_outcomes(tuples, S)
    assert filled <= set(sset.boundaries(S, 4))
    assert digest == RANDOM_FIVE_TUPLE_ERRORS_DIGEST
