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
from .finmon import FinMonoidalStructure, MonoidObject, _paths_agree, _Rows, enumerate_monoids
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


def _squares(r: _Rows, a: int, mu: int, etap: int) -> tuple:
    """The square conditions at the candidate (A, mu, eta') as (left, right) paths, first morphism first,
    that hold when their composites agree: associativity, left unit, right unit and the unit square."""
    tm, ida, idu = r.tm, r.ids[a], r.ids[r.unit]
    return (
        ([tm[mu][ida], mu], [tm[ida][mu], mu]),
        ([tm[etap][ida], mu], [tm[idu][ida], ida]),
        ([tm[ida][idu], ida], [tm[ida][etap], mu]),
        ([tm[etap][idu], ida], [tm[idu][etap], ida]),
    )


def _candidates(r: _Rows):
    """Each (A, mu, eta') index triple with mu : A (x) A -> A and eta' : I (x) I -> A, in label order."""
    t, hom = r.t, r.hom
    for a in range(len(r.objs)):
        for mu in sorted(hom[t[a][a]][a]):
            for etap in sorted(hom[t[r.unit][r.unit]][a]):
                yield a, mu, etap


def check_fk_automatic(m: FinMonoidalStructure) -> bool:
    """The fourth square condition holds for every candidate triple, not just monoids."""
    r = m._rows
    return all(_paths_agree(r.comp, *_squares(r, *triple)[3]) for triple in _candidates(r))


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

    ``m`` is strict monoidal by construction, so nothing is checked again
    (skew data is refused by ``nerve._ImplicitNerve`` with StructuralError),
    and the search runs against the implicit nerve of ``m``; no nerve is materialized.
    Record triples come from the square conditions, monoid triples from
    :func:`enumerate_monoids` and engine triples from the search; a
    record takes only its images from the search.
    """
    maps = _enumerate_level_maps(_CATALAN3, _ImplicitNerve(m), 3, bijective=False)
    # each map's generator images (A, mu, eta'): the free edge's object and the triangles' morphisms
    by_triple = {(c[1][_EDGE], c[2][_MUL][3], c[2][_UNIT][3]): tuple(map(tuple, c)) for c in maps}
    r = m._rows
    objs, mors, comp = r.objs, r.mors, r.comp
    records = []
    for a, mu, etap in _candidates(r):
        if not all(_paths_agree(comp, left, right) for left, right in _squares(r, a, mu, etap)):
            continue
        triple = (objs[a], mors[mu], mors[etap])
        if triple not in by_triple:
            raise StructuralError(f"candidate {triple!r} passed the square conditions but does not extend to a map")
        # eta is eta' composed with the unit constraint, an identity here,
        # evaluated from the table rather than assumed
        eta = mors[comp[etap][r.ids[r.unit]]]
        records.append(ClassificationRecord(by_triple[triple], MonoidObject(triple[0], triple[1], eta), triple[2]))
    monoids = enumerate_monoids(m)
    record_triples = {r.triple() for r in records}
    monoid_triples = {(mo.carrier, mo.mu, mo.eta) for mo in monoids}
    return records, (
        len(records) == len(monoids) == len(maps)
        and record_triples == monoid_triples == set(by_triple)
    )
