"""Classification of simplicial maps into monoidal nerves by monoids.

A map out of the Dyck-word simplicial set is pinned down by the images
of the non-degenerate simplices in dimensions 1..3: an object A, a
multiplication candidate mu : A (x) A -> A, a unit candidate
eta' : I (x) I -> A, and four commuting-square conditions coming from
the non-degenerate 3-simplices.  In the strict setting eta' equals the
monoid unit eta, and the fourth condition holds for every candidate.
The maps themselves come from one search of the engine; the conditions
are an independent route to their generator images.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyck import FREE_EDGE
from .errors import StructuralError
from .finmon import FinMonoidalStructure, MonoidObject, enumerate_monoids
from .nerve import monoidal_nerve, two_simplex_data
from .sset import SimplicialMap, TruncatedSSet, catalan_sset, simplicial_maps

#: The non-degenerate 2-simplex with all edges free (multiplication shape).
MUL_TRIANGLE = "UDUDUD"
#: The non-degenerate 2-simplex with two degenerate edges (unit shape).
UNIT_TRIANGLE = "UUDUDD"
#: C_4, the source of every classified map; it does not depend on the structure.
_CATALAN4 = catalan_sset(4)


@dataclass(frozen=True)
class ClassificationRecord:
    """A classified map together with the monoid it corresponds to.

    ``eta_prime`` is the image of the unit-shaped 2-simplex; with the
    strict tensor it coincides with ``monoid.eta``, but both sides of the
    correspondence are kept.
    """

    map: SimplicialMap
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
    (A, mu, eta'), taken from the engine's map search.
    """
    return _classification(m)[0]


def verify_classification(m: FinMonoidalStructure) -> bool:
    """Three-way agreement: records, engine map enumeration, monoid enumeration.

    The strict tensor identifies eta with eta', so all three enumerations
    must produce exactly the same (A, mu, eta) triples.
    """
    return _classification(m)[1]


def _classification(m: FinMonoidalStructure) -> tuple[list[ClassificationRecord], bool]:
    """The records and the three-way verdict, from one map search into the nerve.

    Record triples come from the square conditions, monoid triples from
    :func:`enumerate_monoids` and engine triples from the search; a
    record takes only its map from the search.
    """
    T = monoidal_nerve(m, 4)
    # the nerve is marked coskeletal from level 4, so the target check reads only the marker
    maps = simplicial_maps(_CATALAN4, T, 3)
    by_triple = {map_triple(T, f): f for f in maps}
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
