"""Dyck-word presentation of the Catalan simplicial set.

An n-simplex is a Dyck word of length 2n + 2: a string over {U, D} with
as many U's as D's in which the i-th U occurs before the i-th D.  The
i-th face deletes the (i+1)-st U together with the (i+1)-st D, the i-th
degeneracy repeats them in place, and every word factors uniquely as a
non-degenerate word acted on by an order-preserving surjection.

Words are kept as plain strings; the dimensions in play are small
enough that clarity beats packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import lt

from .errors import IndexOutOfRangeError, InvalidWordError

ALPHABET = frozenset("UD")

#: The unique 0-simplex.
POINT = "UD"
#: The degenerate edge (degeneracy of the point).
UNIT_EDGE = "UUDD"
#: The non-degenerate edge.
FREE_EDGE = "UDUD"


def _check_alphabet(word: str) -> None:
    bad = set(word) - ALPHABET
    if bad:
        raise InvalidWordError(f"letters outside {{U, D}}: {sorted(bad)!r}")


def _dyck_positions(word: str) -> tuple[list[int], list[int]] | None:
    """The U and D positions of ``word`` if it is a Dyck word, else None.

    One scan serves both the check and the positions: a word over {U, D}
    is a Dyck word exactly when it is nonempty, balanced, and its (i+1)-st
    U precedes its (i+1)-st D for every i.  Other letters raise.
    """
    _check_alphabet(word)
    ups, downs = positions(word)
    if ups and len(ups) == len(downs) and all(map(lt, ups, downs)):
        return ups, downs
    return None


def is_dyck(word: str) -> bool:
    """True iff ``word`` is nonempty, balanced, and every prefix has #U >= #D."""
    return _dyck_positions(word) is not None


def require_dyck(word: str) -> tuple[list[int], list[int]]:
    """The U and D positions of a Dyck word; raise on anything else."""
    found = _dyck_positions(word)
    if found is None:
        raise InvalidWordError(f"not a Dyck word: {word!r}")
    return found


def dimension(word: str) -> int:
    """Simplex dimension: a word of length 2n + 2 has dimension n."""
    return len(require_dyck(word)[0]) - 1


def enumerate_dyck(n: int) -> list[str]:
    """All Dyck words of length 2n + 2, sorted lexicographically."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    half = n + 1
    # by_ups[u] holds the prefixes of the current length with u U's, so
    # each letter position extends whole lists at once
    by_ups: list[list[str]] = [[""]] + [[] for _ in range(half)]
    for length in range(2 * half):
        longer: list[list[str]] = [[] for _ in range(half + 1)]
        for ups, prefixes in enumerate(by_ups):
            if length - ups < ups:
                longer[ups] += [p + "D" for p in prefixes]
            if ups < half:
                longer[ups + 1] += [p + "U" for p in prefixes]
        by_ups = longer
    return sorted(by_ups[half])


def positions(word: str) -> tuple[list[int], list[int]]:
    """The positions of the U's and of the D's in ``word``, in one pass.

    The (i+1)-st U and the (i+1)-st D sit at ``ups[i] < downs[i]`` in a
    Dyck word; faces and degeneracies act on exactly these two letters.
    """
    ups: list[int] = []
    downs: list[int] = []
    for p, c in enumerate(word):
        (ups if c == "U" else downs).append(p)
    return ups, downs


def face_at(word: str, u: int, d: int) -> str:
    """Delete the letters at positions u < d."""
    return word[:u] + word[u + 1 : d] + word[d + 1 :]


def degeneracy_at(word: str, u: int, d: int) -> str:
    """Double the letters at positions u < d."""
    return word[: u + 1] + word[u : d + 1] + word[d:]


def face(word: str, i: int) -> str:
    """Delete the (i+1)-st U and the (i+1)-st D (0-based face index)."""
    ups, downs = require_dyck(word)
    n = len(ups) - 1
    if n < 1:
        raise ValueError("the 0-simplex has no faces")
    if not 0 <= i <= n:
        raise IndexOutOfRangeError(f"face index {i} out of range for dimension {n}")
    return face_at(word, ups[i], downs[i])


def degeneracy(word: str, i: int) -> str:
    """Repeat the (i+1)-st U and the (i+1)-st D, raising dimension by one."""
    ups, downs = require_dyck(word)
    n = len(ups) - 1
    if not 0 <= i <= n:
        raise IndexOutOfRangeError(f"degeneracy index {i} out of range for dimension {n}")
    return degeneracy_at(word, ups[i], downs[i])


def _first_witness(ups: list[int], downs: list[int]) -> int | None:
    """Smallest i whose (i+1)-st and (i+2)-nd U's are adjacent, and D's too."""
    for i in range(len(ups) - 1):
        if ups[i + 1] == ups[i] + 1 and downs[i + 1] == downs[i] + 1:
            return i
    return None


def degeneracy_witness(word: str) -> int | None:
    """Smallest i with ``word == degeneracy(face(word, i), i)``, else None.

    A word is degenerate at i exactly when its (i+1)-st and (i+2)-nd U's
    are adjacent and so are its (i+1)-st and (i+2)-nd D's.
    """
    return _first_witness(*require_dyck(word))


def is_degenerate(word: str) -> bool:
    return degeneracy_witness(word) is not None


def nondegenerate_dyck(n: int) -> list[str]:
    """The non-degenerate Dyck words of dimension ``n``, sorted.

    Prefixes grow a letter at a time, D before U, so they stay sorted.
    A prefix, held with its counts of U's and D's and a bit i set when
    its (i+1)-st and (i+2)-nd U's are adjacent, is dropped when a D
    directly follows a D whose U's are adjacent: a witness of
    :func:`_first_witness`.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    half = n + 1
    prefixes = [("", 0, 0, 0)]
    for _ in range(2 * half):
        longer = []
        for p, u, d, adjacent in prefixes:
            last = p[-1:]
            if d < u and not (last == "D" and adjacent >> (d - 1) & 1):
                longer.append((p + "D", u, d + 1, adjacent))
            if u < half:
                longer.append((p + "U", u + 1, d, adjacent | (1 << u - 1) if last == "U" else adjacent))
        prefixes = longer
    return [p for p, _, _, _ in prefixes]


@dataclass(frozen=True)
class SurjectionPath:
    """An order-preserving surjection between ordinals, stored pointwise.

    ``image[x]`` is the value of the map at x; the map sends
    {0..source_dim} onto {0..target_dim}.
    """

    source_dim: int
    target_dim: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.source_dim + 1:
            raise ValueError("image length must be source_dim + 1")
        if any(b < a for a, b in zip(self.image, self.image[1:])):
            raise ValueError("image must be monotone non-decreasing")
        if set(self.image) != set(range(self.target_dim + 1)):
            raise ValueError("image must cover the whole target ordinal")

    @property
    def is_identity(self) -> bool:
        return self.source_dim == self.target_dim

    @classmethod
    def identity(cls, n: int) -> "SurjectionPath":
        return cls(n, n, tuple(range(n + 1)))


def enumerate_surjections(n: int, k: int) -> list[SurjectionPath]:
    """All order-preserving surjections from {0..n} onto {0..k}.

    There are binomial(n, k) of them: one per choice of the k positions
    at which the value steps up.
    """
    if k < 0 or k > n:
        return []
    paths = []
    for steps in combinations(range(1, n + 1), k):
        image, value = [0], 0
        for x in range(1, n + 1):
            if x in steps:
                value += 1
            image.append(value)
        paths.append(SurjectionPath(n, k, tuple(image)))
    return paths


def ez_decompose(word: str) -> tuple[SurjectionPath, str]:
    """Factor ``word`` as a degenerated non-degenerate core.

    Returns the unique pair (phi, core) with core non-degenerate and
    ``apply_surjection(phi, core) == word``.  The map phi is the identity
    exactly when ``word`` itself is non-degenerate.  The factorization is
    computed by repeatedly stripping the smallest degeneracy witness.
    """
    ups, downs = require_dyck(word)
    n = len(ups) - 1
    image = list(range(n + 1))
    current = word
    i = _first_witness(ups, downs)
    while i is not None:
        # a face of a Dyck word is a Dyck word: scan it, but check only ``word``
        current = face_at(current, ups[i], downs[i])
        # post-compose the running map with the collapse of i and i+1
        image = [v if v <= i else v - 1 for v in image]
        ups, downs = positions(current)
        i = _first_witness(ups, downs)
    return SurjectionPath(n, len(ups) - 1, tuple(image)), current


def apply_surjection(phi: SurjectionPath, word: str) -> str:
    """Act on ``word`` by the degeneracies encoded in ``phi``; only ``word`` itself is checked."""
    n = dimension(word)
    if n != phi.target_dim:
        raise ValueError(f"word dimension {n} does not match surjection target {phi.target_dim}")
    image = list(phi.image)
    ops: list[int] = []
    while len(image) - 1 > phi.target_dim:
        j = next(x for x in range(len(image) - 1) if image[x] == image[x + 1])
        ops.append(j)
        del image[j]
    result = word
    for j in reversed(ops):
        ups, downs = positions(result)
        result = degeneracy_at(result, ups[j], downs[j])
    return result
