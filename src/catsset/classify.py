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
a map C_3 -> N(m)_3, and a record is that map's images on C_3.  The
search runs from C_3 into ``nerve._ImplicitNerve``, the one definition
of the nerve's levels 0..3, read off the structure as it goes, so it
costs what the structure costs, not what its nerve does.  No nerve is
built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyck import FREE_EDGE
from .errors import StructuralError
from .finmon import FinMonoidalStructure, MonoidObject, _require_laws, enumerate_monoids, validate_strict_monoidal
from .nerve import _ImplicitNerve, two_simplex_data
from .sset import SimplicialMap, TruncatedSSet, _enumerate_level_maps, catalan_sset

#: The non-degenerate 2-simplex with all edges free (multiplication shape).
MUL_TRIANGLE = "UDUDUD"
#: The non-degenerate 2-simplex with two degenerate edges (unit shape).
UNIT_TRIANGLE = "UUDUDD"
#: C_3, the source of the classification's map search; it does not depend on the structure.
_CATALAN3 = catalan_sset(3)
#: The indices of the free edge and of the two non-degenerate triangles in C_3.
_EDGE = _CATALAN3.levels[1].index(FREE_EDGE)
_MUL, _UNIT = map(_CATALAN3.levels[2].index, (MUL_TRIANGLE, UNIT_TRIANGLE))


@dataclass(frozen=True)
class ClassificationRecord:
    """A classified map together with the monoid it corresponds to.

    ``_images[n][x]`` is the image of simplex x of C_3 in the nerve of
    the structure, for n 0..3, named by its data as in
    ``nerve._ImplicitNerve``: 0, an object, (A12, A02, A01, f) or the
    four faces.  The nerve is 3-coskeletal, so these images are the map;
    as a ``SimplicialMap`` it is the map of
    ``simplicial_maps(catalan_sset(4), monoidal_nerve(m, 4), 3)`` whose
    :func:`map_triple` is :meth:`triple`.  ``eta_prime`` is the image of
    the unit-shaped 2-simplex; with the strict tensor it coincides with
    ``monoid.eta``, but both sides of the correspondence are kept.
    Records compare and hash by all three fields.
    """

    _images: tuple[tuple, ...]
    monoid: MonoidObject
    eta_prime: str

    def triple(self) -> tuple[str, str, str]:
        return (self.monoid.carrier, self.monoid.mu, self.eta_prime)


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
    """Generator images (A, mu, eta') read off an engine-enumerated map.

    ``T`` is not read: the map's labels carry the images.  The parameter
    stays because perfbench's classify job calls it with the map's target.
    """
    a = f(1, FREE_EDGE)
    mu = two_simplex_data(f(2, MUL_TRIANGLE))[3]
    etap = two_simplex_data(f(2, UNIT_TRIANGLE))[3]
    return (a, mu, etap)


def classify_maps(m: FinMonoidalStructure) -> list[ClassificationRecord]:
    """All maps into the nerve of ``m``, each paired with its monoid.

    Candidates (A, mu, eta') are kept when the four 3-simplex conditions
    evaluate to commuting squares; each survivor pairs with the monoid
    (A, mu, eta = eta') and with the images on C_3 of the map whose
    generator images are (A, mu, eta'), taken from the engine's map
    search.  No nerve is built.
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

    The structure is validated once and the search runs against the
    implicit nerve of ``m``; no nerve is materialized.  Record triples
    come from the square conditions, monoid triples from
    :func:`enumerate_monoids` and engine triples from the search; a
    record takes only its images from the search.
    """
    _require_laws(validate_strict_monoidal(m))
    maps = _enumerate_level_maps(_CATALAN3, _ImplicitNerve(m), 3, bijective=False)
    # each map's generator images (A, mu, eta'): the free edge's object and the triangles' morphisms
    by_triple = {(c[1][_EDGE], c[2][_MUL][3], c[2][_UNIT][3]): tuple(map(tuple, c)) for c in maps}
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
        records.append(ClassificationRecord(by_triple[(a, mu, etap)], MonoidObject(a, mu, eta), etap))
    monoids = enumerate_monoids(m)
    record_triples = {r.triple() for r in records}
    monoid_triples = {(mo.carrier, mo.mu, mo.eta) for mo in monoids}
    return records, (
        len(records) == len(monoids) == len(maps)
        and record_triples == monoid_triples == set(by_triple)
    )
