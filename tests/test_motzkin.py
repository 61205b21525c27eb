import math
from itertools import product

import pytest

from catsset.dyck import enumerate_dyck, is_degenerate, nondegenerate_dyck
from catsset.errors import DegenerateWordError, InvalidWordError
from catsset.motzkin import (
    catalan_number,
    dyck_to_motzkin,
    enumerate_motzkin,
    is_motzkin,
    motzkin_number,
    motzkin_to_dyck,
    verify_binomial_identity,
)


def test_motzkin_number_prefix():
    assert [motzkin_number(n) for n in range(5)] == [1, 1, 2, 4, 9]
    assert motzkin_number(7) == 127


def test_motzkin_number_against_binomial_formula():
    # independent closed form: M_n = sum_k binom(n, 2k) * C_k; at n = 600 a top-down
    # recurrence runs past the interpreter's recursion limit
    for n in [*range(16), 600]:
        total = sum(
            math.comb(n, 2 * k) * catalan_number(k) for k in range(n // 2 + 1)
        )
        assert motzkin_number(n) == total


def test_catalan_values():
    assert catalan_number(0) == 1
    assert catalan_number(4) == 14
    assert catalan_number(10) == 16796
    assert [catalan_number(n) for n in range(10)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862,
    ]


def test_is_motzkin():
    assert is_motzkin("")
    assert is_motzkin("CUDC")
    assert not is_motzkin("DU")
    assert not is_motzkin("UC")
    with pytest.raises(InvalidWordError):
        is_motzkin("UXD")


def test_enumerate_examples():
    assert enumerate_motzkin(1) == ["C"]
    assert set(enumerate_motzkin(2)) == {"CC", "UD"}
    assert set(enumerate_motzkin(3)) == {"CCC", "UDC", "UCD", "CUD"}


@pytest.mark.parametrize("n", range(8))
def test_enumerate_counts(n):
    assert len(enumerate_motzkin(n)) == motzkin_number(n)


@pytest.mark.parametrize("n", range(6))
def test_enumerate_against_product_filter(n):
    def stripped_is_dyck(word):
        height = 0
        for c in word:
            if c == "U":
                height += 1
            elif c == "D":
                height -= 1
                if height < 0:
                    return False
        return height == 0

    brute = sorted(
        "".join(chars)
        for chars in product("UCD", repeat=n)
        if stripped_is_dyck(chars)
    )
    assert enumerate_motzkin(n) == brute


def test_conversion_examples():
    assert dyck_to_motzkin("UD") == ""
    assert dyck_to_motzkin("UUDUDD") == "UD"
    assert dyck_to_motzkin("UDUDUD") == "CC"
    assert motzkin_to_dyck("UD") == "UUDUDD"
    assert motzkin_to_dyck("CC") == "UDUDUD"
    assert motzkin_to_dyck("") == "UD"


def test_conversion_errors():
    with pytest.raises(DegenerateWordError):
        dyck_to_motzkin("UUDD")
    with pytest.raises(InvalidWordError):
        motzkin_to_dyck("DU")


@pytest.mark.parametrize("n", range(8))
def test_bijection_roundtrips(n):
    words = nondegenerate_dyck(n)
    assert len(words) == motzkin_number(n)
    for w in words:
        m = dyck_to_motzkin(w)
        assert len(m) == n and is_motzkin(m)
        assert motzkin_to_dyck(m) == w
    for m in enumerate_motzkin(n):
        w = motzkin_to_dyck(m)
        assert not is_degenerate(w)
        assert dyck_to_motzkin(w) == m


def test_binomial_identity_values():
    assert verify_binomial_identity(0)
    assert verify_binomial_identity(3)  # 14 = 1 + 3 + 6 + 4
    assert all(verify_binomial_identity(n) for n in range(13))


@pytest.mark.parametrize("n", range(7))
def test_binomial_identity_is_the_census(n):
    # the identity counts simplices by their non-degenerate cores
    assert len(enumerate_dyck(n)) == sum(
        math.comb(n, k) * len(nondegenerate_dyck(k)) for k in range(n + 1)
    )
