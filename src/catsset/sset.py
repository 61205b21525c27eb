"""Finite truncated simplicial sets over opaque string labels.

The engine is presentation-agnostic: levels are finite label sets, and
each face or degeneracy table lists, per simplex of its level, the index
of the image in the adjacent level, as in the ``truncated_sset`` JSON
form.  On top of that it provides identity checking, boundary and filler
analysis, coskeletality tests, coskeletal extension, and one
level-by-level search for simplicial maps and isomorphisms.  The kernels
run on indices; labels appear only where a result is handed back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, filterfalse, product, repeat
from operator import add, eq, itemgetter, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, IndexOutOfRangeError, SchemaError, StructuralError
from .finmon import SCHEMA_VERSION, _require_keys, check_header, check_label, parse_json_text

BoundaryTuple = tuple[str, ...]
#: Simplex indices: one face or degeneracy table, a face vector or a boundary.
_Indices = tuple[int, ...]


def _take(table: Sequence[int], idx: Sequence[int]) -> _Indices:
    """``tuple(table[k] for k in idx)``, composed in C by one itemgetter."""
    if len(idx) > 1:
        return itemgetter(*idx)(table)
    return (table[idx[0]],) if idx else ()


class TruncatedSSet:
    """Levelwise finite simplicial set truncated at dimension N.

    ``levels[n]`` lists the n-simplex labels.  ``faces[n][i][k]`` is the
    index in level n-1 of the i-th face of simplex k of level n, and
    ``degens[n][i][k]`` the index in level n+1 of its i-th degeneracy.
    Labels are unique within a level but carry no meaning to the engine.
    Instances are never mutated after construction; query indexes are
    cached lazily.  The constructor checks its tables; a level builder,
    whose tables are valid by construction, goes through
    :meth:`_trusted` and hands over the filler indexes of the levels it
    added.  From level ``_cosk`` up, each level is exactly the boundary
    tuples over the one below; N + 1 marks no level.
    """

    def __init__(
        self,
        levels: Sequence[Sequence[str]],
        faces: Sequence[Sequence[Sequence[int]]],
        degens: Sequence[Sequence[Sequence[int]]],
    ) -> None:
        if not levels:
            raise StructuralError("at least dimension 0 is required")
        self._fill(levels, (), (), {}, len(levels))
        for n, lv in enumerate(self.levels):
            if len(self._position[n]) != len(lv):
                raise StructuralError(f"duplicate labels at level {n}")
        if len(faces) != self.N + 1 or len(degens) != self.N + 1:
            raise StructuralError("face/degeneracy tables must cover every level")
        self.faces = tuple(self._checked(faces[n], n, -1) for n in range(self.N + 1))
        self.degens = tuple(self._checked(degens[n], n, 1) for n in range(self.N + 1))

    @classmethod
    def _trusted(cls, levels, faces, degens, fillers: dict, cosk: int) -> "TruncatedSSet":
        """A set from a level builder's tables, valid by construction, left unchecked; it keeps
        ``fillers``, the :meth:`_filler_index` of its levels, and the marker ``cosk``."""
        S = cls.__new__(cls)
        S._fill(levels, faces, degens, fillers, cosk)
        return S

    def _fill(self, levels, faces, degens, fillers, cosk) -> None:
        """Set the levels, the tables, the caches and the marker as given, unchecked."""
        self.levels: tuple[tuple[str, ...], ...] = tuple(map(tuple, levels))
        self.N: int = len(self.levels) - 1
        self.faces = tuple(tuple(map(tuple, tables)) for tables in faces)
        self.degens = tuple(tuple(map(tuple, tables)) for tables in degens)
        self._witness_cache: dict[int, tuple[int | None, ...]] = {}
        self._filler_cache: dict[int, dict[_Indices, _Indices]] = fillers
        self._cosk: int = cosk

    @cached_property
    def _position(self) -> tuple[dict[str, int], ...]:
        """Per level, the map from each label to its index."""
        return tuple(dict(zip(lv, range(len(lv)))) for lv in self.levels)

    def _checked(self, tables: Sequence[Sequence[int]], n: int, step: int) -> tuple[_Indices, ...]:
        """The tables from level n to level n + step, each total and in range."""
        name = "face" if step < 0 else "degeneracy"
        want = n + 1 if 0 <= n + step <= self.N else 0
        if len(tables) != want:
            raise StructuralError(f"level {n} needs {want} {name} maps")
        out = []
        for i, table in enumerate(tables):
            if not isinstance(table, (list, tuple)) or len(table) != len(self.levels[n]):
                raise StructuralError(f"{name} table length mismatch at level {n}")
            size = len(self.levels[n + step])
            for v in table:
                if type(v) is not int or not 0 <= v < size:
                    raise StructuralError(
                        f"{name} table {i} at level {n} has index {v!r} outside level {n + step}"
                    )
            out.append(tuple(table))
        return tuple(out)

    # -- basic queries -------------------------------------------------

    def level(self, n: int) -> tuple[str, ...]:
        if not 0 <= n <= self.N:
            raise IndexOutOfRangeError(f"level {n} outside truncation 0..{self.N}")
        return self.levels[n]

    def _located(self, n: int, label: str, low: int, high: int, i: int = 0) -> int:
        """The index of ``label`` at level n, for a level in low..high and an index i in 0..n."""
        if not low <= n <= high:
            raise IndexOutOfRangeError(f"level {n} outside {low}..{high}")
        if not 0 <= i <= n:
            raise IndexOutOfRangeError(f"index {i} outside 0..{n} at level {n}")
        k = self._position[n].get(label)
        if k is None:
            raise StructuralError(f"unknown label {label!r} at level {n}")
        return k

    def face(self, n: int, i: int, label: str) -> str:
        k = self._located(n, label, 1, self.N, i)
        return self.levels[n - 1][self.faces[n][i][k]]

    def degeneracy(self, n: int, i: int, label: str) -> str:
        k = self._located(n, label, 0, self.N - 1, i)
        return self.levels[n + 1][self.degens[n][i][k]]

    def face_vector(self, n: int, label: str) -> BoundaryTuple:
        k = self._located(n, label, 0, self.N)
        return tuple(self.levels[n - 1][table[k]] for table in self.faces[n])

    def degeneracy_witness(self, n: int, label: str) -> int | None:
        k = self._located(n, label, 0, self.N)
        return self._witnesses(n)[k]

    def is_degenerate(self, n: int, label: str) -> bool:
        return self.degeneracy_witness(n, label) is not None

    def nondegenerate(self, n: int) -> tuple[str, ...]:
        return tuple(x for x, w in zip(self.level(n), self._witnesses(n)) if w is None)

    def _witnesses(self, n: int) -> tuple[int | None, ...]:
        """Per simplex x of level n, the smallest i with s_i d_i x = x, or None, read off
        whole columns from i = n - 1 down to 0, so that a smaller i overwrites a larger one."""
        if n not in self._witness_cache:
            xs = range(len(self.levels[n]))
            found: list[int | None] = [None] * len(xs)
            for i in reversed(range(n)):
                for x in compress(xs, map(eq, _take(self.degens[n - 1][i], self.faces[n][i]), xs)):
                    found[x] = i
            self._witness_cache[n] = tuple(found)
        return self._witness_cache[n]

    def _filler_index(self, n: int) -> dict[_Indices, _Indices]:
        """Map from face vectors at level n to the simplices carrying them, all as indices."""
        if n not in self._filler_cache:
            self._filler_cache[n] = _grouped(list(zip(*self.faces[n])))
        return self._filler_cache[n]

    def size(self) -> int:
        return sum(len(lv) for lv in self.levels)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "truncated_sset",
            "levels": [list(lv) for lv in self.levels],
            "faces": [[list(t) for t in tables] for tables in self.faces[1:]],
            "degens": [[list(t) for t in tables] for tables in self.degens[:-1]],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "TruncatedSSet":
        check_header(doc, "truncated_sset")
        _require_keys(doc, "levels", "faces", "degens")
        levels = doc["levels"]
        if not isinstance(levels, list) or not all(isinstance(lv, list) for lv in levels):
            raise SchemaError("levels must be a list of label arrays")
        for n, lv in enumerate(levels):
            for k, label in enumerate(lv):
                check_label(label, f"levels[{n}][{k}]")
        for key in ("faces", "degens"):
            if not isinstance(doc[key], list) or not all(isinstance(t, list) for t in doc[key]):
                raise SchemaError(f"{key} must be an array of per-level table arrays")
        try:
            return cls(levels, [[], *doc["faces"]], [*doc["degens"], []])
        except StructuralError as exc:
            raise SchemaError(str(exc)) from exc

    @classmethod
    def from_json_text(cls, text: str) -> "TruncatedSSet":
        return cls.from_json_dict(parse_json_text(text))


def _grouped(keys: Sequence[_Indices]) -> dict[_Indices, _Indices]:
    """Map from each key to the ascending positions that carry it, in C when the keys are distinct."""
    index = dict(zip(keys, zip(range(len(keys)))))
    if len(index) < len(keys):
        groups: dict[_Indices, list[int]] = defaultdict(list)
        for x, key in enumerate(keys):
            groups[key].append(x)
        index = {k: tuple(v) for k, v in groups.items()}
    return index


def _children(
    start: Sequence[int],
    tables: Sequence[Sequence[int]],
    parent: Sequence[int],
    params: Iterable[Sequence[int]],
    rank: Sequence[int],
) -> list[_Indices]:
    """Per table, each word's child ``params`` of the image of its parent, as a sorted index.

    ``start`` holds the child-order index of the first child of each word
    the tables reach, and is composed with each table on that smaller
    level; ``rank`` holds the sorted index of each child.
    """
    return [_take(rank, list(map(add, _take(_take(start, t), parent), p))) for t, p in zip(tables, params)]


def catalan_sset(N: int) -> TruncatedSSet:
    """The Dyck-word simplicial set truncated at dimension N.

    Each level is built from the one below by recurrence on the last
    face.  A word w of dimension n >= 1 is the child (P, c) of P = d_n w:
    with t the number of P's trailing D's and 0 <= c <= t, w is P
    without those D's followed by D^c U D^(t-c+1).  Listed by parent,
    then c, the children of P form a block from ``start[P]``.  By the
    simplicial identities d_i w is a child of d_i P and s_i w one of
    s_i P for i < n, and s_n w is the child (w, 0).  With a = n - t, only
    the child parameter is computed:

    - c - [a <= i < a + c] for d_i, i < n - 1;
    - a - a(P) + c - [c = t] for d_{n-1}, n >= 2;
    - c + [a <= i < a + c] for s_i, i < n.

    Each of these, each word's suffix and its own trailing D's are a
    function of the key (t, c), read off a table of the pairs.  So each
    table composes whole columns of the level below.  Each word is built
    once, and one sort per level gives the label order, the order of
    ``enumerate_dyck``: the level's parent and key columns are permuted
    by it once, so every table is built with its columns in label order,
    and ``rank``, the sorted index of each child, maps its values there.
    """
    if N < 0:
        raise ValueError("truncation dimension must be non-negative")
    # the top level so far, in label order: its words, their trailing D's, the columns parent
    # and key t * (n + 1) + c and the pairs (t, c) in key order; then the child-order index in
    # it of the first child of each word of the level below, the order that sorts its words
    # and the sorted index of each
    words, trail, parent, keys, pairs, start, order, rank = [("UD",)], [1], (), (), (), (), [0], [0]
    # each table maps label order to label order; degens opens with level -1, which has none
    faces, degens = [[]], [[]]
    for n in range(1, N + 1):
        sizes = [x + 1 for x in trail]
        start_below, start = start, list(accumulate(sizes, initial=0))[:-1]
        parent_below, keys_below, pairs_below, rank_below = parent, keys, pairs, rank
        pairs = list(product(range(n + 1), repeat=2))
        # the parents' indices as the ints of rank, which the tables into their level hold
        parent = list(chain.from_iterable(map(repeat, _take(rank, order), sizes)))
        keys = list(map(add, map(mul, _take(trail, parent), repeat(n + 1)), chain.from_iterable(map(range, sizes))))
        # each word in child order: its parent without the trailing D's, then D^c U D^(t-c+1)
        stems = map(str.rstrip, words[-1], repeat("D"))
        suffixes = _take(["D" * c + "U" + "D" * (t - c + 1) for t, c in pairs], keys)
        level = list(map(add, _take(list(stems), parent), suffixes))
        order = sorted(range(len(level)), key=level.__getitem__)
        # the inverse of order, sorted from order's own entries so that the two share their ints
        rank = sorted(order, key=order.__getitem__)
        words.append(_take(level, order))
        parent, keys = _take(parent, order), _take(keys, order)
        trail = _take([t - c + 1 for t, c in pairs], keys)
        ups = (_take([c + (n - 1 - t <= i < n - 1 - t + c) for t, c in pairs_below], keys_below) for i in range(n - 1))
        degens.append(_children(start, degens[-1], parent_below, ups, rank) + [_take(rank, start)])
        if n == 1:
            faces.append([parent, parent])
        else:
            downs = [_take([c - (n - t <= i < n - t + c) for t, c in pairs], keys) for i in range(n - 1)]
            a_parent = _take([n - 1 - t for t, _ in pairs_below], _take(keys_below, parent))
            downs.append(list(map(sub, _take([n - t + c - (c == t) for t, c in pairs], keys), a_parent)))
            faces.append(_children(start_below, faces[-1], parent, downs, rank_below) + [parent])
    return TruncatedSSet._trusted(words, faces, [*degens[1:], []], {}, N + 1)


def point_sset(N: int) -> TruncatedSSet:
    """The one-point simplicial set, a single simplex in every dimension."""
    return TruncatedSSet(
        [["pt"] for _ in range(N + 1)],
        [[[0]] * (n + 1) if n >= 1 else [] for n in range(N + 1)],
        [[[0]] * (n + 1) if n < N else [] for n in range(N + 1)],
    )


# -- simplicial identities ----------------------------------------------


@dataclass(frozen=True)
class SimplicialViolation:
    identity: str
    dimension: int
    indices: tuple[int, ...]
    simplex: str

    def __str__(self) -> str:
        return (
            f"{self.identity} fails at dimension {self.dimension}, "
            f"indices {self.indices}, simplex {self.simplex!r}"
        )


#: The identity families in the order their violations are listed.
_IDENTITIES = ("d_i d_j = d_{j-1} d_i", "s_i s_j = s_{j+1} s_i", "d_i s_j")


def _identity_columns(
    S: TruncatedSSet, rows: Sequence[Sequence[int]] | None = None
) -> Iterator[tuple[int, int, int, int, _Indices, _Indices]]:
    """Each identity instance as (family, n, j, i, left, right).

    ``left`` and ``right`` are its two sides composed as whole columns,
    one entry per simplex of level n.  If ``rows`` is given, the
    face-face family reads at level n only the simplices ``rows[n]``, one
    entry per row; the other two families read every simplex.
    """
    F, D = S.faces, S.degens
    for n in range(2, S.N + 1):
        cols = F[n] if rows is None else [_take(t, rows[n]) for t in F[n]]
        for j in range(n + 1):
            for i in range(j):
                yield 0, n, j, i, _take(F[n - 1][i], cols[j]), _take(F[n - 1][j - 1], cols[i])
    for n in range(S.N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                yield 1, n, j, i, _take(D[n + 1][i], D[n][j]), _take(D[n + 1][j + 1], D[n][i])
    for n in range(S.N):
        xs = tuple(range(len(S.levels[n])))
        for j in range(n + 1):
            for i in range(n + 2):
                if i in (j, j + 1):
                    want = xs
                elif i < j:
                    want = _take(D[n - 1][j - 1], F[n][i])
                else:
                    want = _take(D[n - 1][j], F[n][i - 1])
                yield 2, n, j, i, _take(F[n + 1][i], D[n][j]), want


def check_simplicial_identities(S: TruncatedSSet) -> list[SimplicialViolation]:
    """Every violated identity instance within the truncation; empty means pass.

    A first pass reads the d_i s_j and s_i s_j families on every simplex,
    but the face-face family at level n only on the simplices that no
    degeneracy s_k of level n - 1 reaches.  That decides the verdict: if
    it finds no difference, the face-face identities hold at every
    reached x = s_k y as well, by induction on n.  Rewriting both sides
    of d_i d_j x = d_{j-1} d_i x by d_i s_j at y (level n - 1), then at a
    face of y (level n - 2), gives in each case of i, j and k either the
    same face of y on both sides, or s_m of the two sides of a face-face
    identity at y, which holds at level n - 1; at n = 2 only the first
    case occurs (May, Simplicial Objects in Algebraic Topology, 1967,
    section 1).  Only when something differs is every instance evaluated,
    and only columns that differ are read off simplex by simplex, so a
    failing set gets its full listing, the same as without the first
    pass.  Violations are listed by identity, then dimension, simplex x,
    j and i.
    """
    unreached = [
        list(filterfalse(set().union(*tables).__contains__, range(len(lv))))
        for lv, tables in zip(S.levels, ((), *S.degens))
    ]
    if all(left == right for *_, left, right in _identity_columns(S, unreached)):
        return []
    hits = [
        (family, n, x, j, i)
        for family, n, j, i, left, right in _identity_columns(S)
        if left != right
        for x, (a, b) in enumerate(zip(left, right))
        if a != b
    ]
    return [
        SimplicialViolation(_IDENTITIES[family], n, (i, j), S.levels[n][x])
        for family, n, x, j, i in sorted(hits)
    ]


# -- boundaries and fillers ----------------------------------------------


def boundaries(S: TruncatedSSet, n: int) -> list[BoundaryTuple]:
    """All compatible facet tuples (x_0 .. x_n) in dimension n.

    The search is a join over the face relations of level n-1, one facet
    at a time: facet x_m must satisfy d_i(x_m) = d_{m-1}(x_i) for all
    i < m, so its first m faces are pinned once x_0 .. x_{m-1} are
    chosen and an index on those faces yields its candidates.  It needs
    no filling property of S, and ``n`` may be S.N + 1.  Each call joins
    S's own tables.
    """
    if not 1 <= n <= S.N + 1:
        raise ValueError(f"boundary dimension {n} outside 1..{S.N + 1}")
    lower = S.levels[n - 1]
    return [tuple(lower[x] for x in t) for t in _boundaries(S.levels, S.faces, n)]


def _boundaries(levels: Sequence[Sequence[str]], faces: Sequence[Sequence[Sequence[int]]], n: int) -> list[_Indices]:
    """The facet tuples of :func:`boundaries`, as indices into level n-1 in lexicographic index order."""
    return list(zip(*_join(levels, faces, n, None)))


def _join(
    levels: Sequence[Sequence[str]], faces: Sequence[Sequence[Sequence[int]]], n: int, order: Sequence[int] | None
) -> list[Sequence[int]]:
    """The facet tuples of :func:`boundaries` as n + 1 columns of indices into level n-1.

    The tuples are lexicographic in ``order``, level n-1's indices in the
    order to sort by, or in index order when it is None.  Only level n-1
    of the tables is read, through ``order``: the join runs on positions
    in it and maps the columns back at the end.  The tables may be a
    :class:`TruncatedSSet`'s or lists one is being built from.  Each step
    looks up the keys of every partial tuple at once, ``cols[i][p]``
    being facet i of partial p.  The columns are copied only when some
    partial has no hit or several: by ``compress`` when none has several,
    else through one list naming the partial behind each new tuple.
    """
    lower = range(len(levels[n - 1]))
    if n == 1:
        cols: list[Sequence[int]] = list(zip(*product(lower, repeat=2))) or [(), ()]
    else:
        tables = faces[n - 1] if order is None else [_take(t, order) for t in faces[n - 1]]
        cols = [lower]
        for m in range(1, n + 1):
            index = _grouped(list(zip(*tables[:m])))
            face = tables[m - 1]
            hits = list(map(index.get, zip(*(_take(face, c) for c in cols)), repeat(())))
            found = tuple(chain.from_iterable(hits))
            dropped = hits.count(())
            if len(found) > len(hits) - dropped:
                keep = [p for p, h in enumerate(hits) for _ in h]
                cols = [_take(c, keep) for c in cols]
            elif dropped:
                cols = [tuple(compress(c, hits)) for c in cols]
            cols.append(found)
    return cols if order is None else [_take(order, c) for c in cols]


def fillers(S: TruncatedSSet, boundary: Sequence[str]) -> list[str]:
    """All n-simplices whose face vector equals the facet tuple ``boundary``."""
    n = len(boundary) - 1
    if not 1 <= n <= S.N:
        raise ValueError(f"boundary length {n + 1} outside truncation")
    position = S._position[n - 1]
    for x in boundary:
        if x not in position:
            raise StructuralError(f"unknown facet label {x!r} at level {n - 1}")
    hits = S._filler_index(n).get(tuple(position[x] for x in boundary), ())
    return [S.levels[n][k] for k in hits]


def is_r_coskeletal_up_to(S: TruncatedSSet, r: int, maxdim: int) -> bool:
    """True iff every boundary in dimensions r+1 .. maxdim has exactly one filler.

    The boundaries of a level are distinct, so the level passes when each
    is a key of the filler index and the fillers over the boundaries
    number as many as the boundaries.  Levels from ``S._cosk`` up pass
    unjoined: each is the boundary tuples over the one below.
    """
    if not 0 <= r < maxdim <= S.N:
        raise ValueError("need 0 <= r < maxdim <= truncation")
    for n in range(r + 1, min(maxdim + 1, S._cosk)):
        found = _boundaries(S.levels, S.faces, n)
        hits = list(map(S._filler_index(n).get, found, repeat(())))
        if not all(hits) or sum(map(len, hits)) != len(found):
            return False
    return True


# -- coskeletal extension -------------------------------------------------


def _add_level(
    levels: list[Sequence[str]],
    faces: list[Sequence[Sequence[int]]],
    degens: list[Sequence[Sequence[int]]],
    cols: list[Sequence[int]],
    max_simplices: int,
) -> dict[_Indices, _Indices]:
    """Append level n = len(levels) whose face tables are the n + 1 columns ``cols`` of :func:`_join`.

    The three lists hold tables in the constructor's form.  The rows of
    ``cols``, the new simplices' distinct face vectors, are labelled
    ``s{n}:{k}`` in their order.  The builders' one size rule is checked
    here: it raises :class:`BudgetExceededError` when the levels would
    then hold more than ``max_simplices`` simplices in all.  It returns
    the new level's :meth:`TruncatedSSet._filler_index`, by which it finds
    the images of the degeneracies.  The simplicial identities force the
    face vector of s_i x for an (n-1)-simplex x to be
    (s_{i-1} d_0 x, .., s_{i-1} d_{i-1} x, x, x, s_i d_{i+1} x, .., s_i d_{n-1} x),
    and it must be among the rows; the lists are left as they were when
    it is not, or when the budget is exceeded.
    """
    m, n = len(levels) - 1, len(levels)
    size = len(cols[0])
    if sum(map(len, levels)) + size > max_simplices:
        raise BudgetExceededError(f"level {n} needs more than {max_simplices} simplices in all")
    index = dict(zip(zip(*cols), zip(range(size))))
    face, below, xs = faces[m], degens[m - 1], range(len(levels[m]))
    images = []
    for i in range(n):
        keys = zip(
            *(_take(below[i - 1], face[k]) for k in range(i)),
            xs,
            xs,
            *(_take(below[i], face[k]) for k in range(i + 1, n)),
        )
        images.append(list(chain.from_iterable(map(index.get, keys, repeat(())))))
        if len(images[-1]) < len(xs):
            raise StructuralError(f"degenerate boundary at level {m} is not compatible")
    degens[m] = images
    degens.append([])
    levels.append([f"s{n}:{k}" for k in range(size)])
    faces.append(cols)
    return index


def _extended(S: TruncatedSSet, N: int, max_simplices: int) -> TruncatedSSet:
    """S with levels S.N + 1 .. N added, each the boundary tuples over the one below, unchecked.

    Each level is joined in the label order of the level below.  The result
    keeps S's filler indexes and those of its added levels, and marks its
    levels from S's marker up: that is S.N + 1 when S marks none.
    """
    levels, faces, degens = list(S.levels), list(S.faces), list(S.degens)
    fillers = dict(S._filler_cache)
    for n in range(S.N + 1, N + 1):
        order = sorted(range(len(levels[n - 1])), key=levels[n - 1].__getitem__)
        fillers[n] = _add_level(levels, faces, degens, _join(levels, faces, n, order), max_simplices)
    return TruncatedSSet._trusted(levels, faces, degens, fillers, S._cosk)


def coskeletal_extension(
    S: TruncatedSSet, N: int, max_simplices: int = 1_000_000
) -> TruncatedSSet:
    """Extend a consistent truncation to dimension N by boundary tuples.

    Each new level consists of the compatible facet tuples over the level
    below; faces project to components and degeneracies are computed
    through the simplicial identities, which only the input is checked
    against.  The new levels are valid by construction, so the result is
    built unchecked by :func:`_extended`, and it holds at most
    ``max_simplices`` simplices in all.
    """
    if N < S.N:
        raise ValueError("cannot extend below the current truncation")
    if check_simplicial_identities(S):
        raise StructuralError("input truncation violates the simplicial identities")
    return S if N == S.N else _extended(S, N, max_simplices)


# -- simplicial maps -------------------------------------------------------


@dataclass(frozen=True)
class SimplicialMap:
    """A levelwise map commuting with faces and degeneracies.

    Components are stored as sorted pair tuples so that maps compare and
    hash by their graph; source and target do not enter equality.
    """

    source: TruncatedSSet = field(compare=False, repr=False)
    target: TruncatedSSet = field(compare=False, repr=False)
    components: tuple[tuple[tuple[str, str], ...], ...] = ()

    @cached_property
    def _lookup(self) -> tuple[dict[str, str], ...]:
        return tuple(dict(c) for c in self.components)

    def level_map(self, n: int) -> dict[str, str]:
        return dict(self.components[n])

    def __call__(self, n: int, label: str) -> str:
        return self._lookup[n][label]


def _labelled_map(S: TruncatedSSet, T: TruncatedSSet, comps: Sequence[Sequence[int]]) -> SimplicialMap:
    """The map sending simplex x of level n of S to simplex ``comps[n][x]`` of T."""
    return SimplicialMap(
        S,
        T,
        tuple(
            tuple(sorted(zip(S.levels[n], (T.levels[n][y] for y in c)))) for n, c in enumerate(comps)
        ),
    )


def _indexed(
    S: TruncatedSSet, T: TruncatedSSet, comps: Sequence[Mapping[str, str]]
) -> list[list[int]] | None:
    """Label components as index lists, or None when one is not a total map into T."""
    out = []
    for n, comp in enumerate(comps):
        if len(comp) != len(S.levels[n]):
            return None
        try:
            out.append([T._position[n][comp[x]] for x in S.levels[n]])
        except (KeyError, TypeError):
            return None
    return out


def _commutes(S: TruncatedSSet, T: TruncatedSSet, comps: Sequence[Sequence[int]]) -> bool:
    """Whether index components commute with every face and degeneracy."""
    upto = len(comps) - 1
    for n in range(1, upto + 1):
        here, below = comps[n], comps[n - 1]
        for s, t in zip(S.faces[n], T.faces[n]):
            if _take(below, s) != _take(t, here):
                return False
    for n in range(upto):
        here, above = comps[n], comps[n + 1]
        for s, t in zip(S.degens[n], T.degens[n]):
            if _take(above, s) != _take(t, here):
                return False
    return True


def is_simplicial_map(
    S: TruncatedSSet, T: TruncatedSSet, comps: Sequence[Mapping[str, str]]
) -> bool:
    """Check totality and commutation with every face and degeneracy."""
    if len(comps) - 1 > min(S.N, T.N):
        return False
    images = _indexed(S, T, comps)
    return images is not None and _commutes(S, T, images)


def _enumerate_level_maps(S: TruncatedSSet, T: TruncatedSSet, k: int, bijective: bool) -> list[list[list[int]]]:
    """All simplicial maps on levels 0..k, the one map search.

    It serves maps, isomorphisms and the classification, whose records
    take their maps from it.  The search runs one level at a time from
    level 0.  Once level n-1 is mapped, each non-degenerate n-simplex
    may go to any filler of its image boundary, and every partial map is
    extended by the product of those candidates; degenerate simplices
    take forced images through their smallest witness.  Components are
    index lists: ``comps[n][x]`` is the image of simplex x.  Only the
    candidates that commute with every face and degeneracy are returned.
    T is read only through ``N``, the size of level 0, ``_filler_index(n).get``
    and its ``faces`` and ``degens`` by subscript, so the classification's
    implicit nerve (``nerve._ImplicitNerve``), whose simplices are their data
    rather than indices, serves as T too.
    """
    if k > min(S.N, T.N):
        raise ValueError("level bound exceeds a truncation")
    if bijective and any(len(S.levels[n]) != len(T.levels[n]) for n in range(k + 1)):
        return []
    partial: list[list[list[int]]] = [[]]
    for n in range(k + 1):
        witnesses = S._witnesses(n)
        nondeg = [x for x, w in enumerate(witnesses) if w is None]
        forced = [(x, w) for x, w in enumerate(witnesses) if w is not None]
        grown = []
        for comps in partial:
            if n == 0:
                options: list[Iterable[int]] = [range(len(T.levels[0]))] * len(nondeg)
            else:
                below, index = comps[n - 1], T._filler_index(n)
                options = [index.get(tuple(below[t[x]] for t in S.faces[n]), ()) for x in nondeg]
            for images in product(*options):
                here = [0] * len(witnesses)
                for x, y in zip(nondeg, images):
                    here[x] = y
                for x, w in forced:
                    here[x] = T.degens[n - 1][w][below[S.faces[n][w][x]]]
                if not bijective or len(set(here)) == len(here):
                    grown.append([*comps, here])
        partial = grown
    return [comps for comps in partial if _commutes(S, T, comps)]


def isomorphisms(S: TruncatedSSet, T: TruncatedSSet) -> list[SimplicialMap]:
    """All levelwise-bijective simplicial maps between equal truncations."""
    if S.N != T.N:
        raise ValueError("both objects must be truncated at the same dimension")
    return [
        _labelled_map(S, T, comps)
        for comps in _enumerate_level_maps(S, T, S.N, bijective=True)
    ]


def simplicial_maps(S: TruncatedSSet, T: TruncatedSSet, k: int) -> list[SimplicialMap]:
    """All simplicial maps S -> T, for a target k-coskeletal within truncation.

    Images of non-degenerate simplices of dimension <= k determine the
    map, so above k each image boundary has at most one filler and the
    search, run to the shared truncation, has one candidate or none.
    """
    if S.N < k + 1:
        raise ValueError("source truncation must reach k + 1")
    if T.N < k + 1:
        raise ValueError("target truncation must reach k + 1 to check fillability")
    if not is_r_coskeletal_up_to(T, k, T.N):
        raise StructuralError(
            f"target is not {k}-coskeletal within its truncation"
        )
    return [
        _labelled_map(S, T, comps)
        for comps in _enumerate_level_maps(S, T, min(S.N, T.N), bijective=False)
    ]
