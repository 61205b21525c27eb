import pytest

from catsset.finmon import MonoidalPoset, antichain_poset, poset_as_category
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
