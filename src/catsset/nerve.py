"""The monoidal nerve of a finite strict monoidal structure.

Dimension 0 is a point, 1-simplices are objects, a 2-simplex is a
morphism A12 (x) A01 -> A02, a 3-simplex is a facet quadruple whose
square of composites commutes, and everything above is determined by
3-coskeletality.  Strictness makes the degeneracies of a 1-simplex the
identity morphisms.  :class:`_ImplicitNerve` is the one definition of
levels 0..3, read off the structure on demand; :func:`monoidal_nerve`
and a classification record's nerve at 4 are its materializations as a
:class:`~catsset.sset.TruncatedSSet`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from itertools import chain, compress, product
from operator import itemgetter

from .errors import BudgetExceededError, StructuralError
from .finmon import FinMonoidalStructure, _thin
from .sset import TruncatedSSet, _add_level, _extended, _join, _take


def two_label(a12: str, a02: str, a01: str, mor: str) -> str:
    """Canonical label of a 2-simplex, the compact JSON array of the four; JSON keeps distinct data distinct."""
    return "[" + ",".join(map(encode_basestring_ascii, (a12, a02, a01, mor))) + "]"


def two_simplex_data(label: str) -> tuple[str, str, str, str]:
    """Inverse of :func:`two_label`: (A12, A02, A01, morphism)."""
    try:
        a12, a02, a01, mor = json.loads(label)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise StructuralError(f"not a 2-simplex label: {label!r}") from exc
    return a12, a02, a01, mor


def monoidal_nerve(
    m: FinMonoidalStructure, N: int, max_simplices: int = 1_000_000
) -> TruncatedSSet:
    """The nerve of ``m`` truncated at dimension N, :meth:`_ImplicitNerve.materialized`.

    ``m`` is strict monoidal by construction, so nothing is checked again;
    skew data is refused with StructuralError (:class:`_ImplicitNerve`).
    The result holds at most ``max_simplices`` simplices in total
    (BudgetExceededError).
    """
    if N < 0:
        raise ValueError("truncation dimension must be non-negative")
    return _ImplicitNerve(m).materialized(N, max_simplices)


def _commuting(m: FinMonoidalStructure, boundaries) -> list[bool]:
    """Per 3-boundary (x0, x1, x2, x3) of 2-simplex data, whether its square
    x2 . (x0 (x) id A01) = x1 . (id A23 (x) x3) commutes, A_ij being the edge from vertex i
    to vertex j of the 3-simplex: A01 is the A01 of x3, and A23 the A12 of x0.  Whole
    levels pass their four face columns zipped, so one call runs a level at column speed."""
    compose, tensor, ids = m.category.composition, m.mor_tensor, m.category.identities
    return [
        compose[x2[3], tensor[x0[3], ids[x3[2]]]] == compose[x1[3], tensor[ids[x0[0]], x3[3]]]
        for x0, x1, x2, x3 in boundaries
    ]


class _Lazy(dict):
    """A table whose entries ``fill`` computes on first read, by subscript or by ``get``;
    ``get`` takes no default, since a filler index's ``fill`` returns () for no fillers."""

    def __init__(self, fill) -> None:
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value

    def get(self, key, default=None):
        return self[key]


class _ImplicitNerve:
    """The nerve of a strict monoidal ``m`` on levels 0..3, read off ``m`` on demand.

    Anything but a :class:`~catsset.finmon.FinMonoidalStructure`, skew data
    included, is refused with StructuralError.

    It serves :func:`~catsset.sset._enumerate_level_maps` as its target,
    so the search runs at the size of ``m``, not of its nerve.  A simplex
    is named by its data: the 0-simplex is 0, a 1-simplex an object, a
    2-simplex (A12, A02, A01, f) and a 3-simplex its faces (x0, x1, x2, x3).
    Level 1's one boundary is filled by the sorted objects; a 2-boundary
    (A12, A02, A01) by each f in hom(A12 (x) A01, A02); and a 3-boundary by
    itself when its square commutes (:func:`_commuting`).  Degeneracies
    follow the simplicial identities, as in :func:`~catsset.sset._add_level`.
    """

    N = 3

    def __init__(self, m: FinMonoidalStructure) -> None:
        if not isinstance(m, FinMonoidalStructure):
            raise StructuralError(f"{type(m).__name__} is not a strict monoidal structure")
        cat, unit, t, ids, hom = m.category, m.unit, m.obj_tensor, m.category.identities, m.category.hom
        objs = tuple(sorted(cat.objects))
        s0 = {a: (a, a, unit, ids[a]) for a in objs}
        s1 = {a: (unit, a, a, ids[a]) for a in objs}
        self.m = m
        self.levels = (("*",),)
        self._fillers = {
            1: {(0, 0): objs},
            2: _Lazy(lambda key: tuple((*key, f) for f in hom(t[key[0], key[2]], key[1]))),
            3: _Lazy(lambda x: (x,) if _commuting(m, (x,))[0] else ()),
        }
        self.faces = ((), (dict.fromkeys(objs, 0),) * 2, *(tuple(_Lazy(itemgetter(i)) for i in range(n)) for n in (3, 4)))
        self.degens = (
            ({0: unit},),
            (s0, s1),
            (
                _Lazy(lambda x: (x, x, s0[x[1]], s0[x[2]])),
                _Lazy(lambda x: (s0[x[0]], x, x, s1[x[2]])),
                _Lazy(lambda x: (s1[x[0]], s1[x[1]], x, x)),
            ),
        )

    def _filler_index(self, n: int):
        return self._fillers[n]

    def materialized(self, N: int, max_simplices: int = 1_000_000) -> TruncatedSSet:
        """This nerve truncated at N as a set of index tables, built unchecked.

        Levels 0..2 list these fillers, level 2 in :func:`two_label` order,
        with these degeneracies.  Level 3 is the boundary tuples over level 2
        whose square commutes (:func:`~catsset.sset._add_level`); on a thin
        category that is every one, unevaluated (:func:`~catsset.finmon._thin`).
        The levels above are its coskeletal extension
        (:func:`~catsset.sset._extended`), kept with their filler indexes and
        marked from level 4.  BudgetExceededError is raised when levels 0..2,
        or the set, would hold more than ``max_simplices`` simplices.
        """
        levels, faces, degens = [["*"]], [[]], []
        if N >= 1:
            objs = self._fillers[1][0, 0]
            levels.append(objs)
            faces.append([[0] * len(objs)] * 2)
            degens.append([[objs.index(self.degens[0][0][0])]])
        if N >= 2:
            # every 2-boundary's fillers from the fill itself, which the cache would only slow, sorted by label
            found = list(chain.from_iterable(map(self._fillers[2].fill, product(objs, repeat=3))))
            two, data = zip(*sorted(zip(map(two_label, *zip(*found)), found)))
            obj_at, two_at = dict(zip(objs, range(len(objs)))), dict(zip(two, range(len(two))))
            levels.append(two)
            faces.append([_take(obj_at, col) for col in list(zip(*data))[:3]])
            degens.append([[two_at[two_label(*s[a])] for a in objs] for s in self.degens[1]])
        degens.append([])
        if sum(map(len, levels)) > max_simplices:
            raise BudgetExceededError(f"level {len(levels) - 1} needs more than {max_simplices} simplices in all")
        fillers = {}
        if N >= 3:
            # level 2's labels are sorted, so the join in index order is in label order
            cols = _join(levels, faces, 3, None)
            if not _thin(self.m.category):
                keep = _commuting(self.m, zip(*(_take(data, c) for c in cols)))
                cols = [tuple(compress(c, keep)) for c in cols]
            fillers[3] = _add_level(levels, faces, degens, cols, max_simplices)
        # level 3 keeps only the commuting boundaries, so the 3-truncation marks no level
        return _extended(TruncatedSSet._trusted(levels, faces, degens, fillers, len(levels)), N, max_simplices)
