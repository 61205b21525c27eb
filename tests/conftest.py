import pytest

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
