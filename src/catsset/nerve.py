"""The monoidal nerve of a finite strict monoidal structure.

Dimension 0 is a point, 1-simplices are objects, a 2-simplex is a
morphism A12 (x) A01 -> A02, a 3-simplex is a facet quadruple whose
square of composites commutes, and everything above is determined by
3-coskeletality.  Strictness makes the degeneracies of a 1-simplex the
identity morphisms.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from itertools import compress
from operator import eq, itemgetter

from .errors import BudgetExceededError, StructuralError
from .finmon import FinMonoidalStructure, _require_laws, validate_strict_monoidal
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
    """The nerve of ``m`` truncated at dimension N.

    The 3-truncation is built into table lists from ``m`` once
    :func:`~catsset.finmon.validate_strict_monoidal` passes it (StructuralError
    names its first violation otherwise), and the levels above 3 are its
    coskeletal extension (:func:`~catsset.sset._extended`), so the result is
    built unchecked, keeps the filler indexes of its levels from 3 up and is marked
    coskeletal from level 4.  A size guard aborts construction when the
    result would hold more than ``max_simplices`` simplices in total.
    """
    if N < 0:
        raise ValueError("truncation dimension must be non-negative")
    _require_laws(validate_strict_monoidal(m))
    cat = m.category

    levels: list[list[str]] = [["*"]]
    faces: list[list[list[int]]] = [[]]
    degens: list[list[list[int]]] = []
    if N >= 1:
        objs = sorted(cat.objects)
        levels.append(objs)
        faces.append([[0] * len(objs), [0] * len(objs)])
        degens.append([[objs.index(m.unit)]])
    if N >= 2:
        data2: dict[str, tuple[str, str, str, str]] = {}
        for a12 in cat.objects:
            for a01 in cat.objects:
                src = m.tensor_obj(a12, a01)
                for a02 in cat.objects:
                    for f in cat.hom(src, a02):
                        lab = two_label(a12, a02, a01, f)
                        data2[lab] = (a12, a02, a01, f)
        two = sorted(data2)
        data = [data2[lab] for lab in two]
        obj_at = {a: k for k, a in enumerate(objs)}
        two_at = {lab: k for k, lab in enumerate(two)}
        levels.append(two)
        faces.append([[obj_at[x[i]] for x in data] for i in range(3)])
        degens.append(
            [
                [two_at[two_label(a, a, m.unit, cat.id_of(a))] for a in objs],
                [two_at[two_label(m.unit, a, a, cat.id_of(a))] for a in objs],
            ]
        )
    degens.append([])
    if sum(map(len, levels)) > max_simplices:
        raise BudgetExceededError(f"level {len(levels) - 1} needs more than {max_simplices} simplices in all")
    fillers = {}
    if N >= 3:
        # a boundary (x0, x1, x2, x3) is kept when its square commutes:
        # x2 . (x0 (x) id A01) = x1 . (id A23 (x) x3), composed a column at a time;
        # level 2's labels are sorted, so the join in index order is in label order
        x0, x1, x2, x3 = cols = _join(levels, faces, 3, None)
        # per 2-simplex: its morphism, the identity of its A01 and that of its A12
        mor = [x[3] for x in data]
        id01, id12 = ([cat.id_of(x[k]) for x in data] for k in (2, 0))
        compose, tensor = cat.composition.__getitem__, m.mor_tensor.__getitem__
        left = map(compose, zip(_take(mor, x2), map(tensor, zip(_take(mor, x0), _take(id01, x3)))))
        right = map(compose, zip(_take(mor, x1), map(tensor, zip(_take(id12, x0), _take(mor, x3)))))
        keep = list(map(eq, left, right))
        fillers[3] = _add_level(levels, faces, degens, [tuple(compress(c, keep)) for c in cols], max_simplices)
    # level 3 keeps only the commuting boundaries, so the 3-truncation marks no level
    return _extended(TruncatedSSet._trusted(levels, faces, degens, fillers, len(levels)), N, max_simplices)


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
    """The nerve of a validated strict monoidal ``m`` on levels 0..3, read off ``m`` on demand.

    It serves :func:`~catsset.sset._enumerate_level_maps` as its target,
    so the search runs at the size of ``m``, not of its nerve.  A simplex
    is named by its data: the 0-simplex is 0, a 1-simplex an object, a
    2-simplex (A12, A02, A01, f) and a 3-simplex its faces (x0, x1, x2, x3).
    Level 1's one boundary is filled by the sorted objects; a 2-boundary
    (A12, A02, A01) by each f in hom(A12 (x) A01, A02); and a 3-boundary by
    itself when :func:`monoidal_nerve`'s square commutes,
    x2 . (x0 (x) id A01(x3)) = x1 . (id A12(x0) (x) x3).  Degeneracies
    follow the simplicial identities, as in :func:`~catsset.sset._add_level`.
    """

    N = 3

    def __init__(self, m: FinMonoidalStructure) -> None:
        cat, unit, t = m.category, m.unit, m.obj_tensor
        ids, compose, tensor = cat.identities, cat.composition, m.mor_tensor
        objs = tuple(sorted(cat.objects))
        s0 = {a: (a, a, unit, ids[a]) for a in objs}
        s1 = {a: (unit, a, a, ids[a]) for a in objs}

        def square(x):
            x0, x1, x2, x3 = x
            return (x,) if compose[x2[3], tensor[x0[3], ids[x3[2]]]] == compose[x1[3], tensor[ids[x0[0]], x3[3]]] else ()

        self.levels = (("*",),)
        self._fillers = {
            1: {(0, 0): objs},
            2: _Lazy(lambda key: tuple((*key, f) for f in cat.hom(t[key[0], key[2]], key[1]))),
            3: _Lazy(square),
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
