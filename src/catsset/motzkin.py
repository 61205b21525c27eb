"""Motzkin words and their bijection with non-degenerate simplices.

A Motzkin word of length n is a string over {U, C, D} that becomes a
(possibly empty) Dyck word once every C is struck out.  Reading off, for
each i, whether consecutive U's or consecutive D's of a non-degenerate
Dyck word are adjacent gives a Motzkin word of length equal to the
dimension, and the correspondence is a bijection.

All arithmetic is exact; nothing here touches floating point.
"""

from __future__ import annotations

import math

from .dyck import _first_witness, require_dyck
from .errors import DegenerateWordError, InvalidWordError

MOTZKIN_ALPHABET = frozenset("UCD")


#: M_0, M_1, ... as far as any call has needed them.
_MOTZKIN = [1]


def _motzkin_numbers(n: int) -> list[int]:
    """M_0, ..., M_n (and any computed beyond), extended bottom-up so no call recurses."""
    m = _MOTZKIN
    for k in range(len(m), n + 1):
        m.append(m[k - 1] + sum(m[j] * m[k - 2 - j] for j in range(k - 1)))
    return m


def motzkin_number(n: int) -> int:
    """n-th Motzkin number, by the convolution recurrence (1, 1, 2, 4, 9, ...)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return _motzkin_numbers(n)[n]


def catalan_number(n: int) -> int:
    """n-th Catalan number, binomial(2n, n) / (n + 1) in exact integers."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return math.comb(2 * n, n) // (n + 1)


def is_motzkin(word: str) -> bool:
    """True iff striking out every C leaves a balanced, prefix-positive word."""
    bad = set(word) - MOTZKIN_ALPHABET
    if bad:
        raise InvalidWordError(f"letters outside {{U, C, D}}: {sorted(bad)!r}")
    height = 0
    for letter in word:
        if letter == "U":
            height += 1
        elif letter == "D":
            height -= 1
            if height < 0:
                return False
    return height == 0


def enumerate_motzkin(n: int) -> list[str]:
    """All Motzkin words of length n, sorted; there are motzkin_number(n)."""
    if n < 0:
        raise ValueError("length must be non-negative")
    # (prefix, height) pairs, extended a letter at a time while the height
    # can still return to 0 in the letters that remain
    words = [("", 0)]
    for remaining in range(n - 1, -1, -1):
        words = [
            (w + letter, h + delta)
            for w, h in words
            for letter, delta in (("U", 1), ("C", 0), ("D", -1))
            if 0 <= h + delta <= remaining
        ]
    return sorted(w for w, _ in words)


def dyck_to_motzkin(word: str) -> str:
    """Motzkin word of a non-degenerate Dyck word.

    Letter i is U when the i-th and (i+1)-st U's are adjacent, D when the
    corresponding D's are, and C otherwise; on non-degenerate words the
    first two cases never overlap.
    """
    ups, downs = require_dyck(word)
    if _first_witness(ups, downs) is not None:
        raise DegenerateWordError(f"degenerate word has no Motzkin form: {word!r}")
    letters = []
    for i in range(len(ups) - 1):
        if ups[i + 1] == ups[i] + 1:
            letters.append("U")
        elif downs[i + 1] == downs[i] + 1:
            letters.append("D")
        else:
            letters.append("C")
    return "".join(letters)


def motzkin_to_dyck(word: str) -> str:
    """Non-degenerate Dyck word of dimension len(word) inverse to dyck_to_motzkin.

    With a_1 < ... < a_k the positions carrying D or C and b_1 < ... < b_k
    those carrying U or C (1-based), the result is the concatenation of U/D
    runs with successive differences of the a's and b's as run lengths.
    """
    if not is_motzkin(word):
        raise InvalidWordError(f"not a Motzkin word: {word!r}")
    n = len(word)
    a = [i for i in range(1, n + 1) if word[i - 1] in "DC"]
    b = [i for i in range(1, n + 1) if word[i - 1] in "UC"]
    runs = []
    prev_a = prev_b = 0
    for ai, bi in zip(a, b):
        runs.append("U" * (ai - prev_a) + "D" * (bi - prev_b))
        prev_a, prev_b = ai, bi
    runs.append("U" * (n + 1 - prev_a) + "D" * (n + 1 - prev_b))
    return "".join(runs)


def verify_binomial_identity(n: int) -> bool:
    """Check C_{n+1} == sum_k binomial(n, k) * M_k with exact arithmetic."""
    if n < 0:
        raise ValueError("index must be non-negative")
    m = _motzkin_numbers(n)
    total = sum(math.comb(n, k) * m[k] for k in range(n + 1))
    return catalan_number(n + 1) == total
