import pytest

from catsset.finmon import MonoidalPoset, Poset, antichain_poset, poset_as_category
from catsset.library import boolean_or, structure_library
from catsset.nerve import monoidal_nerve
from catsset.sset import catalan_sset


@pytest.fixture(scope="session")
def catalan2():
    return catalan_sset(2)


@pytest.fixture(scope="session")
def catalan4():
    return catalan_sset(4)


@pytest.fixture(scope="session")
def catalan6():
    return catalan_sset(6)


@pytest.fixture(scope="session")
def catalan7():
    return catalan_sset(7)


@pytest.fixture(scope="session")
def catalan8():
    return catalan_sset(8)


@pytest.fixture(scope="session")
def nerve_two4():
    return monoidal_nerve(boolean_or(), 4)


@pytest.fixture(scope="session")
def nerve_two5():
    return monoidal_nerve(boolean_or(), 5)


@pytest.fixture(scope="session")
def library():
    return structure_library()


@pytest.fixture(scope="session")
def left_zero_antichain():
    """The antichain {a, b, e}, unit e, with x (x) y = x on {a, b}: a tensor that does not commute."""
    tensor = {(x, "e"): x for x in "abe"} | {("e", x): x for x in "abe"}
    tensor |= {(x, y): x for x in "ab" for y in "ab"}
    return poset_as_category(MonoidalPoset(antichain_poset(["a", "b", "e"]), tensor, "e"))


#: Two non-commutative strict tensors on 3-element posets that are not antichains:
#: the 3-chain with unit 1 and x (x) y = x on {0, 2}, and the vee 0 < 1, 0 < 2 with
#: unit 2 and x (x) y = y on {0, 1}.
NON_COMMUTATIVE = {
    "chain3-left-zero": (["0", "1", "2"], [("0", "1"), ("1", "2"), ("0", "2")], "1", {("0", "2"): "0", ("2", "0"): "2"}),
    "vee-right-zero": (["0", "1", "2"], [("0", "1"), ("0", "2")], "2", {("0", "1"): "1", ("1", "0"): "0"}),
}


def _non_commutative(elems, strict, unit, cross):
    tensor = {(x, unit): x for x in elems} | {(unit, x): x for x in elems}
    tensor |= {(x, x): x for x in elems} | cross
    poset = Poset(tuple(elems), frozenset({(x, x) for x in elems} | set(strict)))
    return poset_as_category(MonoidalPoset(poset, tensor, unit))


@pytest.fixture(scope="session")
def non_commutative():
    """The structures of ``NON_COMMUTATIVE`` by name."""
    return {name: _non_commutative(*spec) for name, spec in NON_COMMUTATIVE.items()}
