"""Classification of simplicial maps into monoidal nerves by monoids.

A map out of the Dyck-word simplicial set is pinned down by the images
of the non-degenerate simplices in dimensions 1..3: an object A, a
multiplication candidate mu : A (x) A -> A, a unit candidate
eta' : I (x) I -> A, and four commuting-square conditions coming from
the non-degenerate 3-simplices.  In the strict setting eta' equals the
monoid unit eta, and the fourth condition holds for every candidate.
The maps themselves come from one search of the engine; the conditions
are an independent route to their generator images.

A monoidal nerve is 3-coskeletal, so a map C_4 -> N(m)_4 is the same as
a map C_3 -> N(m)_3.  The search runs from C_3 into ``nerve._ImplicitNerve``,
the one definition of the nerve's levels 0..3, read off the structure as
it goes, so it costs what the structure costs, not what its nerve does.
No nerve is built until a record's map or components are read; then an
implicit nerve of the structure, materialized at 4 with no second
validation, serves all the records, each 4-simplex going to the one
filler of its image boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

from .dyck import FREE_EDGE
from .errors import StructuralError
from .finmon import FinMonoidalStructure, MonoidObject, _require_laws, enumerate_monoids, validate_strict_monoidal
from .nerve import _ImplicitNerve, two_label, two_simplex_data
from .sset import SimplicialMap, TruncatedSSet, _enumerate_level_maps, _labelled_map, _take, catalan_sset

#: The non-degenerate 2-simplex with all edges free (multiplication shape).
MUL_TRIANGLE = "UDUDUD"
#: The non-degenerate 2-simplex with two degenerate edges (unit shape).
UNIT_TRIANGLE = "UUDUDD"
#: C_3, the source of the classification's map search, and C_4, the source of a record's map;
#: neither depends on the structure, and C_3's tables are those of C_4 on levels 0..3.
_CATALAN3, _CATALAN4 = catalan_sset(3), catalan_sset(4)
#: The indices of the free edge and of the two non-degenerate triangles in C_3.
_EDGE = _CATALAN3.levels[1].index(FREE_EDGE)
_MUL, _UNIT = map(_CATALAN3.levels[2].index, (MUL_TRIANGLE, UNIT_TRIANGLE))


@dataclass(frozen=True)
class ClassificationRecord:
    """A classified map together with the monoid it corresponds to.

    ``_images[n][x]`` is the image of simplex x of C_3 in the nerve of
    ``structure``, for n 0..3, named by its data as in
    ``nerve._ImplicitNerve``: 0, an object, (A12, A02, A01, f) or the
    four faces.  ``eta_prime`` is the image of the unit-shaped 2-simplex;
    with the strict tensor it coincides with ``monoid.eta``, but both
    sides of the correspondence are kept.  ``nerve4`` returns the
    structure's implicit nerve materialized at 4, built on its first
    call, once for all the records of one classification; ``components``
    and ``map`` read it.  Records compare and hash by their images,
    monoid and eta'; the structure and the nerve do not enter.
    """

    _images: tuple[tuple, ...]
    monoid: MonoidObject
    eta_prime: str
    structure: FinMonoidalStructure = field(compare=False, repr=False)
    nerve4: Callable[[], TruncatedSSet] = field(compare=False, repr=False)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """``components[n][x]``, the index in level n of the nerve at 4 of the image of simplex x
        of C_3; each 3-simplex goes to the one filler of its image boundary."""
        T = self.nerve4()
        points, edges, triangles, _ = self._images
        # the nerve lists its objects and its 2-simplex labels sorted
        below = tuple(bisect_left(T.levels[2], two_label(*x)) for x in triangles)
        return (points, tuple(bisect_left(T.levels[1], a) for a in edges), below, _filled(T, below, 3))

    @cached_property
    def map(self) -> SimplicialMap:
        """The map C_4 -> N(m)_4, extended from level 3 on first read."""
        T = self.nerve4()
        return _labelled_map(_CATALAN4, T, (*self.components, _filled(T, self.components[3], 4)))

    def triple(self) -> tuple[str, str, str]:
        return (self.monoid.carrier, self.monoid.mu, self.eta_prime)


def _filled(T: TruncatedSSet, below: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The images of C_4's level n in T, given those of level n - 1: each n-simplex goes to the one
    simplex of T on its image boundary."""
    boundaries = zip(*(_take(below, face) for face in _CATALAN4.faces[n]))
    return tuple(y for (y,) in map(T._filler_index(n).__getitem__, boundaries))


def _condition_associativity(m: FinMonoidalStructure, a: str, mu: str, etap: str) -> bool:
    c = m.category
    ida = c.id_of(a)
    return c.compose(mu, m.tensor_mor(mu, ida)) == c.compose(mu, m.tensor_mor(ida, mu))


def _condition_left_unit(m: FinMonoidalStructure, a: str, mu: str, etap: str) -> bool:
    c = m.category
    ida, idu = c.id_of(a), c.id_of(m.unit)
    return c.compose(mu, m.tensor_mor(etap, ida)) == c.compose(
        ida, m.tensor_mor(idu, ida)
    )


def _condition_right_unit(m: FinMonoidalStructure, a: str, mu: str, etap: str) -> bool:
    c = m.category
    ida, idu = c.id_of(a), c.id_of(m.unit)
    return c.compose(ida, m.tensor_mor(ida, idu)) == c.compose(
        mu, m.tensor_mor(ida, etap)
    )


def _condition_unit_square(m: FinMonoidalStructure, a: str, mu: str, etap: str) -> bool:
    c = m.category
    ida, idu = c.id_of(a), c.id_of(m.unit)
    return c.compose(ida, m.tensor_mor(etap, idu)) == c.compose(
        ida, m.tensor_mor(idu, etap)
    )


_CONDITIONS = (
    _condition_associativity,
    _condition_left_unit,
    _condition_right_unit,
    _condition_unit_square,
)


def _candidates(m: FinMonoidalStructure):
    c = m.category
    uu = m.tensor_obj(m.unit, m.unit)
    for a in sorted(c.objects):
        for mu in sorted(c.hom(m.tensor_obj(a, a), a)):
            for etap in sorted(c.hom(uu, a)):
                yield a, mu, etap


def check_fk_automatic(m: FinMonoidalStructure) -> bool:
    """The fourth square condition holds for every candidate triple, not just monoids."""
    return all(
        _condition_unit_square(m, a, mu, etap) for a, mu, etap in _candidates(m)
    )


def map_triple(T: TruncatedSSet, f: SimplicialMap) -> tuple[str, str, str]:
    """Generator images (A, mu, eta') read off an engine-enumerated map."""
    a = f(1, FREE_EDGE)
    mu = two_simplex_data(f(2, MUL_TRIANGLE))[3]
    etap = two_simplex_data(f(2, UNIT_TRIANGLE))[3]
    return (a, mu, etap)


def classify_maps(m: FinMonoidalStructure) -> list[ClassificationRecord]:
    """All maps into the nerve of ``m``, each paired with its monoid.

    Candidates (A, mu, eta') are kept when the four 3-simplex conditions
    evaluate to commuting squares; each survivor pairs with the monoid
    (A, mu, eta = eta') and with the map whose generator images are
    (A, mu, eta'), taken on levels 0..3 from the engine's map search and
    extended to level 4 when the record's map is first read.
    """
    return _classification(m)[0]


def verify_classification(m: FinMonoidalStructure) -> bool:
    """Three-way agreement: records, engine map enumeration, monoid enumeration.

    The strict tensor identifies eta with eta', so all three enumerations
    must produce exactly the same (A, mu, eta) triples.
    """
    return _classification(m)[1]


def _classification(m: FinMonoidalStructure) -> tuple[list[ClassificationRecord], bool]:
    """The records and the three-way verdict, from one map search C_3 -> N(m)_3.

    The structure is validated once; the search runs against the
    implicit nerve of ``m``; the records materialize another, unvalidated.
    Record triples come from the square conditions, monoid triples from
    :func:`enumerate_monoids` and engine triples from the search; a
    record takes only its images from the search.
    """
    _require_laws(validate_strict_monoidal(m))
    maps = _enumerate_level_maps(_CATALAN3, _ImplicitNerve(m), 3, bijective=False)
    # each map's generator images (A, mu, eta'): the free edge's object and the triangles' morphisms
    by_triple = {(c[1][_EDGE], c[2][_MUL][3], c[2][_UNIT][3]): tuple(map(tuple, c)) for c in maps}
    # a fresh implicit nerve, so the records do not keep the entries the search filled in
    nerve4 = cache(lambda: _ImplicitNerve(m).materialized(4))
    records = []
    for a, mu, etap in _candidates(m):
        if not all(cond(m, a, mu, etap) for cond in _CONDITIONS):
            continue
        if (a, mu, etap) not in by_triple:
            raise StructuralError(
                f"candidate ({a!r}, {mu!r}, {etap!r}) passed the square conditions "
                "but does not extend to a map"
            )
        # eta is eta' composed with the unit constraint, an identity here,
        # evaluated from the table rather than assumed
        eta = m.category.compose(etap, m.category.id_of(m.unit))
        records.append(ClassificationRecord(by_triple[(a, mu, etap)], MonoidObject(a, mu, eta), etap, m, nerve4))
    monoids = enumerate_monoids(m)
    record_triples = {r.triple() for r in records}
    monoid_triples = {(mo.carrier, mo.mu, mo.eta) for mo in monoids}
    return records, (
        len(records) == len(monoids) == len(maps)
        and record_triples == monoid_triples == set(by_triple)
    )
