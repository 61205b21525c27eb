import gc
import hashlib
import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from catsset.dyck import (
    SurjectionPath,
    apply_surjection,
    degeneracy,
    degeneracy_witness,
    dimension,
    enumerate_dyck,
    enumerate_surjections,
    ez_decompose,
    face,
    is_degenerate,
    is_dyck,
    nondegenerate_dyck,
)
from catsset.errors import DegenerateWordError, InvalidWordError
from catsset.motzkin import catalan_number, dyck_to_motzkin, enumerate_motzkin
from catsset.relations import enumerate_k_relations, to_relation


def test_is_dyck_basic():
    assert is_dyck("UUDD")
    assert not is_dyck("UDDU")
    assert is_dyck("UUDDUD")
    assert not is_dyck("")
    assert not is_dyck("UD" * 3 + "U")


def test_is_dyck_rejects_bad_alphabet():
    with pytest.raises(InvalidWordError):
        is_dyck("UXDD")


def _stack_oracle(word):
    # independent counter check: balanced and never below zero
    height = 0
    for c in word:
        height += 1 if c == "U" else -1
        if height < 0:
            return False
    return height == 0 and len(word) > 0


@given(st.text(alphabet="UD", max_size=24))
def test_is_dyck_matches_counter_oracle(word):
    assert is_dyck(word) == _stack_oracle(word)


def test_enumerate_low_dimensions():
    assert enumerate_dyck(0) == ["UD"]
    assert set(enumerate_dyck(1)) == {"UUDD", "UDUD"}
    assert set(enumerate_dyck(2)) == {"UUUDDD", "UUDDUD", "UDUUDD", "UUDUDD", "UDUDUD"}


@pytest.mark.parametrize("n", range(11))
def test_census_matches_closed_form(n):
    words = enumerate_dyck(n)
    assert len(words) == catalan_number(n + 1)
    assert all(is_dyck(w) and dimension(w) == n for w in words)


#: Digest of the word lists for n 0-10, one line each, from before the
#: enumeration became a loop.
WORD_LISTS_DIGEST = "f990ba6a699e6aff9e48d2f34e9c28baec200ad88b6dbba0c3b712bb95ed0ddf"


def test_enumeration_is_pinned_and_leaves_no_cyclic_garbage():
    h = hashlib.sha256()
    gc.collect()
    gc.disable()
    try:
        for n in range(11):
            words = enumerate_dyck(n)
            assert gc.collect() == 0, n
            assert words == sorted(set(words))
            h.update(" ".join(words).encode("utf-8") + b"\n")
    finally:
        gc.enable()
    assert h.hexdigest() == WORD_LISTS_DIGEST


#: Digests of the Motzkin word lists for n 0-12 and of the relation lists
#: (sorted pairs) for n 0-7, one line each, from before both enumerations
#: became loops.
MOTZKIN_LISTS_DIGEST = "77f0d20a7ed3f12ae2d558025f86173bb726b6a001a6f0f11cd938f96987ec68"
RELATION_LISTS_DIGEST = "dde45693839ec3fc0beb7027c9d0e439c559b29a4b2a7a1b76c24e3a4a5799c2"


@pytest.mark.parametrize(
    "enumerate_, top, line, digest",
    [
        (enumerate_motzkin, 12, " ".join, MOTZKIN_LISTS_DIGEST),
        (enumerate_k_relations, 7, lambda rels: repr([r.sorted_pairs() for r in rels]), RELATION_LISTS_DIGEST),
    ],
)
def test_other_enumerations_are_pinned_and_leave_no_cyclic_garbage(enumerate_, top, line, digest):
    h = hashlib.sha256()
    gc.collect()
    gc.disable()
    try:
        for n in range(top + 1):
            items = enumerate_(n)
            assert gc.collect() == 0, n
            h.update(line(items).encode("utf-8") + b"\n")
    finally:
        gc.enable()
    assert h.hexdigest() == digest


def test_face_examples():
    assert face("UDUDUD", 0) == "UDUD"
    assert face("UUDUDD", 1) == "UDUD"
    assert face("UUDDUD", 2) == "UUDD"


def test_face_errors():
    with pytest.raises(ValueError):
        face("UD", 0)
    with pytest.raises(IndexError):
        face("UUDD", 2)


def test_degeneracy_examples():
    assert degeneracy("UD", 0) == "UUDD"
    assert degeneracy("UDUD", 0) == "UUDDUD"
    assert degeneracy("UDUD", 1) == "UDUUDD"
    with pytest.raises(IndexError):
        degeneracy("UD", 1)


def test_degeneracy_witness_examples():
    assert degeneracy_witness("UUDDUD") == 0
    assert degeneracy_witness("UDUDUD") is None
    # both degeneracies of UUDD give UUUDDD; the smaller witness wins
    assert degeneracy_witness("UUUDDD") == 0
    assert not is_degenerate("UUDUDD")


def _rejection(call, word):
    """The message with which ``call`` rejects ``word`` as a bad word, else None."""
    try:
        call(word)
    except InvalidWordError as exc:
        return str(exc)
    except DegenerateWordError:
        pass
    return None


#: Word functions that validate through the one position scan of require_dyck.
WORD_CALLS = (
    dimension,
    degeneracy_witness,
    ez_decompose,
    dyck_to_motzkin,
    to_relation,
    lambda w: degeneracy(w, 0),
)


def _expected_rejection(word):
    foreign = sorted(set(word) - {"U", "D"})
    if foreign:
        return f"letters outside {{U, D}}: {foreign!r}"
    return None if _stack_oracle(word) else f"not a Dyck word: {word!r}"


def _check_against_counter_oracle(word):
    want = _expected_rejection(word)
    for call in WORD_CALLS:
        assert _rejection(call, word) == want
    if want is None or want.startswith("not"):
        assert is_dyck(word) == (want is None)


def test_word_functions_reject_exactly_the_non_dyck_words():
    # the Dyck check reads the U and D positions instead of a running
    # height; the counter oracle decides every U/D word up to length 10
    for length in range(11):
        for letters in product("UD", repeat=length):
            _check_against_counter_oracle("".join(letters))


@given(st.text(alphabet="UDX", max_size=16))
def test_word_functions_reject_foreign_letters(word):
    _check_against_counter_oracle(word)


@pytest.mark.parametrize("n", range(1, 7))
def test_witness_is_honest(n):
    for w in enumerate_dyck(n):
        i = degeneracy_witness(w)
        if i is not None:
            assert degeneracy(face(w, i), i) == w
        else:
            assert all(degeneracy(face(w, j), j) != w for j in range(n))


@pytest.mark.parametrize("n", range(2, 7))
def test_simplicial_identities_on_words(n):
    for w in enumerate_dyck(n):
        for j in range(n + 1):
            for i in range(j):
                assert face(face(w, j), i) == face(face(w, i), j - 1)
        for j in range(n + 1):
            for i in range(j + 1):
                assert degeneracy(degeneracy(w, j), i) == degeneracy(
                    degeneracy(w, i), j + 1
                )
        for j in range(n + 1):
            sj = degeneracy(w, j)
            for i in range(n + 2):
                if i in (j, j + 1):
                    assert face(sj, i) == w
                elif i < j:
                    assert face(sj, i) == degeneracy(face(w, i), j - 1)
                else:
                    assert face(sj, i) == degeneracy(face(w, i - 1), j)


def test_the_four_nondegenerate_three_simplices():
    # these four words and their face tuples drive the classification
    expected = {
        "UDUDUDUD": ("UDUDUD", "UDUDUD", "UDUDUD", "UDUDUD"),
        "UDUUDUDD": ("UUDUDD", "UDUUDD", "UDUDUD", "UDUUDD"),
        "UUDUDDUD": ("UUDDUD", "UDUDUD", "UUDDUD", "UUDUDD"),
        "UUDUDUDD": ("UUDUDD", "UDUUDD", "UUDDUD", "UUDUDD"),
    }
    assert set(nondegenerate_dyck(3)) == set(expected)
    for w, faces in expected.items():
        assert tuple(face(w, i) for i in range(4)) == faces


def test_nine_nondegenerate_four_simplices():
    words = nondegenerate_dyck(4)
    assert len(words) == 9
    # identified by their face tuples over the four 3-simplex names
    names = {
        "UD": "*",
        "UDUD": "c",
        "UDUDUD": "t",
        "UUDUDD": "i",
        "UDUDUDUD": "a",
        "UDUUDUDD": "l",
        "UUDUDDUD": "r",
        "UUDUDUDD": "k",
    }

    def name_of(word):
        if word in names:
            return names[word]
        i = degeneracy_witness(word)
        return f"s{i}({name_of(face(word, i))})"

    tuples = {tuple(name_of(face(w, i)) for i in range(5)) for w in words}
    assert tuples == {
        ("a", "a", "a", "a", "a"),
        ("r", "s1(t)", "a", "s1(t)", "l"),
        ("l", "l", "s2(t)", "a", "s2(t)"),
        ("s0(t)", "a", "s0(t)", "r", "r"),
        ("s1(i)", "s2(i)", "k", "s0(i)", "s1(i)"),
        ("s0(i)", "l", "k", "r", "s2(i)"),
        ("k", "l", "s0(s1(c))", "r", "k"),
        ("r", "s1(t)", "s0(t)", "r", "k"),
        ("k", "l", "s2(t)", "s1(t)", "l"),
    }


def test_surjection_validation():
    with pytest.raises(ValueError):
        SurjectionPath(2, 1, (0, 1))
    with pytest.raises(ValueError):
        SurjectionPath(2, 1, (1, 0, 1))
    with pytest.raises(ValueError):
        SurjectionPath(2, 1, (0, 0, 0))
    assert SurjectionPath.identity(3).is_identity


@pytest.mark.parametrize("n", range(9))
def test_surjection_counts(n):
    for k in range(n + 1):
        assert len(enumerate_surjections(n, k)) == math.comb(n, k)


def test_apply_surjection_rejects_mismatched_word():
    phi = SurjectionPath(2, 1, (0, 0, 1))
    with pytest.raises(ValueError):
        apply_surjection(phi, "UD")


def test_ez_examples():
    phi, core = ez_decompose("UUDUDD")
    assert phi.is_identity and core == "UUDUDD"
    phi, core = ez_decompose("UUUDDD")
    assert (phi.source_dim, phi.target_dim, core) == (2, 0, "UD")
    phi, core = ez_decompose("UUDDUD")
    assert phi.image == (0, 0, 1) and core == "UDUD"


@pytest.mark.parametrize("n", range(7))
def test_ez_roundtrip_and_witness_consistency(n):
    for w in enumerate_dyck(n):
        phi, core = ez_decompose(w)
        assert not is_degenerate(core)
        assert apply_surjection(phi, w if phi.is_identity else core) == w
        assert is_degenerate(w) == (not phi.is_identity)


@pytest.mark.parametrize("n", range(5))
def test_ez_against_brute_force(n):
    # oracle: act on every lower non-degenerate word by every surjection
    produced = {}
    for k in range(n + 1):
        for phi in enumerate_surjections(n, k):
            for core in nondegenerate_dyck(k):
                word = apply_surjection(phi, core)
                produced.setdefault(word, []).append((phi, core))
    for w in enumerate_dyck(n):
        assert len(produced[w]) == 1
        assert produced[w][0] == ez_decompose(w)


@given(st.integers(0, 2), st.lists(st.integers(0, 6), max_size=4), st.integers(0, 30))
def test_random_degeneracy_chains_recompose(base_dim, indices, pick):
    words = enumerate_dyck(base_dim)
    w = words[pick % len(words)]
    for i in indices:
        w = degeneracy(w, i % (dimension(w) + 1))
    phi, core = ez_decompose(w)
    assert apply_surjection(phi, core) == w


def test_nondegenerate_words_are_the_unfiltered_words_without_a_witness():
    # the words are generated without their degenerate neighbours; filtering all words is the oracle
    for n in range(10):
        assert nondegenerate_dyck(n) == [w for w in enumerate_dyck(n) if not is_degenerate(w)], n
    with pytest.raises(ValueError):
        nondegenerate_dyck(-1)
