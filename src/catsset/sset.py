"""Finite truncated simplicial sets over opaque string labels.

The engine is presentation-agnostic: levels are finite label sets and
face/degeneracy tables are explicit dicts.  On top of that it provides
identity checking, boundary and filler analysis, coskeletality tests,
coskeletal extension, and backtracking enumeration of simplicial maps
and isomorphisms.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import dyck
from .errors import BudgetExceededError, SchemaError, StructuralError
from .finmon import SCHEMA_VERSION, _require_keys, check_header, check_label, parse_json_text

BoundaryTuple = tuple[str, ...]


class TruncatedSSet:
    """Levelwise finite simplicial set truncated at dimension N.

    ``levels[n]`` lists the n-simplex labels, ``faces[n][i]`` maps level n
    to level n-1 and ``degens[n][i]`` maps level n to level n+1.  Labels
    are unique within a level but carry no meaning to the engine.
    Instances are never mutated after construction; query indexes are
    cached lazily.
    """

    def __init__(
        self,
        levels: Sequence[Sequence[str]],
        faces: Sequence[Sequence[Mapping[str, str]]],
        degens: Sequence[Sequence[Mapping[str, str]]],
    ) -> None:
        if not levels:
            raise StructuralError("at least dimension 0 is required")
        self.levels: tuple[tuple[str, ...], ...] = tuple(tuple(lv) for lv in levels)
        self.N: int = len(self.levels) - 1
        self.faces: tuple[tuple[dict[str, str], ...], ...] = tuple(
            tuple(dict(m) for m in maps) for maps in faces
        )
        self.degens: tuple[tuple[dict[str, str], ...], ...] = tuple(
            tuple(dict(m) for m in maps) for maps in degens
        )
        self._level_sets = tuple(frozenset(lv) for lv in self.levels)
        self._nondeg_cache: dict[int, tuple[str, ...]] = {}
        self._filler_cache: dict[int, dict[BoundaryTuple, tuple[str, ...]]] = {}
        self._validate()

    def _validate(self) -> None:
        for n, lv in enumerate(self.levels):
            if len(set(lv)) != len(lv):
                raise StructuralError(f"duplicate labels at level {n}")
        if len(self.faces) != self.N + 1 or len(self.degens) != self.N + 1:
            raise StructuralError("face/degeneracy tables must cover every level")
        for n in range(self.N + 1):
            want = n + 1 if n >= 1 else 0
            if len(self.faces[n]) != want:
                raise StructuralError(f"level {n} needs {want} face maps")
            want = n + 1 if n < self.N else 0
            if len(self.degens[n]) != want:
                raise StructuralError(f"level {n} needs {want} degeneracy maps")
        for n in range(1, self.N + 1):
            for i, table in enumerate(self.faces[n]):
                if set(table) != self._level_sets[n]:
                    raise StructuralError(f"face map d_{i} at level {n} is not total")
                for value in table.values():
                    if value not in self._level_sets[n - 1]:
                        raise StructuralError(
                            f"face map d_{i} at level {n} hits unknown label {value!r}"
                        )
        for n in range(self.N):
            for i, table in enumerate(self.degens[n]):
                if set(table) != self._level_sets[n]:
                    raise StructuralError(
                        f"degeneracy map s_{i} at level {n} is not total"
                    )
                for value in table.values():
                    if value not in self._level_sets[n + 1]:
                        raise StructuralError(
                            f"degeneracy map s_{i} at level {n} hits unknown label {value!r}"
                        )

    # -- basic queries -------------------------------------------------

    def level(self, n: int) -> tuple[str, ...]:
        if not 0 <= n <= self.N:
            raise IndexError(f"level {n} outside truncation 0..{self.N}")
        return self.levels[n]

    def face(self, n: int, i: int, label: str) -> str:
        return self.faces[n][i][label]

    def degeneracy(self, n: int, i: int, label: str) -> str:
        return self.degens[n][i][label]

    def face_vector(self, n: int, label: str) -> BoundaryTuple:
        return tuple(self.faces[n][i][label] for i in range(n + 1))

    def degeneracy_witness(self, n: int, label: str) -> int | None:
        for i in range(n):
            if self.degens[n - 1][i][self.faces[n][i][label]] == label:
                return i
        return None

    def is_degenerate(self, n: int, label: str) -> bool:
        return self.degeneracy_witness(n, label) is not None

    def nondegenerate(self, n: int) -> tuple[str, ...]:
        if n not in self._nondeg_cache:
            self._nondeg_cache[n] = tuple(
                x for x in self.level(n) if self.degeneracy_witness(n, x) is None
            )
        return self._nondeg_cache[n]

    def filler_index(self, n: int) -> dict[BoundaryTuple, tuple[str, ...]]:
        """Map from face vectors at level n to the labels carrying them."""
        if n not in self._filler_cache:
            index: dict[BoundaryTuple, list[str]] = defaultdict(list)
            for x in self.level(n):
                index[self.face_vector(n, x)].append(x)
            self._filler_cache[n] = {k: tuple(v) for k, v in index.items()}
        return self._filler_cache[n]

    def size(self) -> int:
        return sum(len(lv) for lv in self.levels)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        index = [{lab: k for k, lab in enumerate(lv)} for lv in self.levels]
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "truncated_sset",
            "levels": [list(lv) for lv in self.levels],
            "faces": [
                [[index[n - 1][table[x]] for x in self.levels[n]] for table in self.faces[n]]
                for n in range(1, self.N + 1)
            ],
            "degens": [
                [[index[n + 1][table[x]] for x in self.levels[n]] for table in self.degens[n]]
                for n in range(self.N)
            ],
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
        faces = [[]] + _label_maps(doc, "faces", "face", levels, -1)
        degens = _label_maps(doc, "degens", "degeneracy", levels, 1) + [[]]
        try:
            return cls(levels, faces, degens)
        except StructuralError as exc:
            raise SchemaError(str(exc)) from exc

    @classmethod
    def from_json_text(cls, text: str) -> "TruncatedSSet":
        return cls.from_json_dict(parse_json_text(text))


def _label_maps(
    doc: Mapping, key: str, name: str, levels: list[list[str]], step: int
) -> list[list[dict[str, str]]]:
    """Label maps from the index tables ``doc[key]``, one entry per positive level.

    Entry k holds the tables of level n = k + 1 (faces, ``step`` -1) or
    n = k (degeneracies, ``step`` +1); each lists, per label of level n,
    an index into level n + step.
    """
    per_level = doc[key]
    if not isinstance(per_level, list) or not all(isinstance(t, list) for t in per_level):
        raise SchemaError(f"{key} must be an array of per-level table arrays")
    if len(per_level) != len(levels) - 1:
        raise SchemaError("faces/degens arrays must have one entry per positive level")
    out = []
    for k, tables in enumerate(per_level):
        n = k + 1 if step < 0 else k
        target = levels[n + step]
        maps = []
        for i, idx_list in enumerate(tables):
            if not isinstance(idx_list, list) or len(idx_list) != len(levels[n]):
                raise SchemaError(f"{name} table length mismatch at level {n}")
            for v in idx_list:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < len(target):
                    raise SchemaError(
                        f"{name} table {i} at level {n} has index {v!r} outside level {n + step}"
                    )
            maps.append({levels[n][j]: target[v] for j, v in enumerate(idx_list)})
        out.append(maps)
    return out


def catalan_sset(N: int) -> TruncatedSSet:
    """The Dyck-word simplicial set truncated at dimension N.

    Each word is scanned once for its U/D positions, and that scan fills
    its column of every face and degeneracy table.
    """
    if N < 0:
        raise ValueError("truncation dimension must be non-negative")
    levels = [dyck.enumerate_dyck(n) for n in range(N + 1)]
    faces: list[list[dict[str, str]]] = []
    degens: list[list[dict[str, str]]] = []
    for n, words in enumerate(levels):
        face_maps: list[dict[str, str]] = [{} for _ in range(n + 1)] if n >= 1 else []
        degen_maps: list[dict[str, str]] = [{} for _ in range(n + 1)] if n < N else []
        for w in words:
            ups, downs = dyck.positions(w)
            for table, u, d in zip(face_maps, ups, downs):
                table[w] = dyck.face_at(w, u, d)
            for table, u, d in zip(degen_maps, ups, downs):
                table[w] = dyck.degeneracy_at(w, u, d)
        faces.append(face_maps)
        degens.append(degen_maps)
    return TruncatedSSet(levels, faces, degens)


def point_sset(N: int) -> TruncatedSSet:
    """The one-point simplicial set, a single simplex in every dimension."""
    levels = [["pt"] for _ in range(N + 1)]
    faces: list[list[dict[str, str]]] = [[]]
    faces.extend([[{"pt": "pt"} for _ in range(n + 1)] for n in range(1, N + 1)])
    degens = [[{"pt": "pt"} for _ in range(n + 1)] for n in range(N)]
    degens.append([])
    return TruncatedSSet(levels, faces, degens)


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


def check_simplicial_identities(S: TruncatedSSet) -> list[SimplicialViolation]:
    """Every violated identity instance within the truncation; empty means pass."""
    bad: list[SimplicialViolation] = []
    for n in range(2, S.N + 1):
        for x in S.level(n):
            for j in range(n + 1):
                dj = S.face(n, j, x)
                for i in range(j):
                    if S.face(n - 1, i, dj) != S.face(n - 1, j - 1, S.face(n, i, x)):
                        bad.append(SimplicialViolation("d_i d_j = d_{j-1} d_i", n, (i, j), x))
    for n in range(S.N - 1):
        for x in S.level(n):
            for j in range(n + 1):
                sj = S.degeneracy(n, j, x)
                for i in range(j + 1):
                    left = S.degeneracy(n + 1, i, sj)
                    right = S.degeneracy(n + 1, j + 1, S.degeneracy(n, i, x))
                    if left != right:
                        bad.append(SimplicialViolation("s_i s_j = s_{j+1} s_i", n, (i, j), x))
    for n in range(S.N):
        for x in S.level(n):
            for j in range(n + 1):
                sj = S.degeneracy(n, j, x)
                for i in range(n + 2):
                    got = S.face(n + 1, i, sj)
                    if i in (j, j + 1):
                        want = x
                    elif i < j:
                        want = S.degeneracy(n - 1, j - 1, S.face(n, i, x))
                    else:
                        want = S.degeneracy(n - 1, j, S.face(n, i - 1, x))
                    if got != want:
                        bad.append(SimplicialViolation("d_i s_j", n, (i, j), x))
    return bad


# -- boundaries and fillers ----------------------------------------------


def boundaries(S: TruncatedSSet, n: int) -> list[BoundaryTuple]:
    """All compatible facet tuples (x_0 .. x_n) in dimension n.

    The search is a join over the face relations of level n-1, one facet
    at a time: facet x_m must satisfy d_i(x_m) = d_{m-1}(x_i) for all
    i < m, so its first m faces are pinned once x_0 .. x_{m-1} are
    chosen and an index on those faces yields its candidates.  It needs
    no filling property of S, and ``n`` may be S.N + 1.
    """
    if not 1 <= n <= S.N + 1:
        raise ValueError(f"boundary dimension {n} outside 1..{S.N + 1}")
    lower = S.level(n - 1)
    if n == 1:
        return [(a, b) for a in lower for b in lower]
    prefix: list[dict[BoundaryTuple, list[str]]] = [dict() for _ in range(n + 1)]
    for m in range(1, n + 1):
        index: dict[BoundaryTuple, list[str]] = defaultdict(list)
        for x in lower:
            index[tuple(S.face(n - 1, i, x) for i in range(m))].append(x)
        prefix[m] = index
    out: list[BoundaryTuple] = []
    tup: list[str] = []

    def extend(m: int) -> None:
        if m > n:
            out.append(tuple(tup))
            return
        if m == 0:
            candidates: Iterable[str] = lower
        else:
            req = tuple(S.face(n - 1, m - 1, tup[i]) for i in range(m))
            candidates = prefix[m].get(req, ())
        for x in candidates:
            tup.append(x)
            extend(m + 1)
            tup.pop()

    extend(0)
    return out


def fillers(S: TruncatedSSet, boundary: Sequence[str]) -> list[str]:
    """All n-simplices whose face vector equals the given facet tuple."""
    n = len(boundary) - 1
    if not 1 <= n <= S.N:
        raise ValueError(f"boundary length {n + 1} outside truncation")
    for x in boundary:
        if x not in S._level_sets[n - 1]:
            raise StructuralError(f"unknown facet label {x!r} at level {n - 1}")
    return list(S.filler_index(n).get(tuple(boundary), ()))


def is_r_coskeletal_up_to(S: TruncatedSSet, r: int, maxdim: int) -> bool:
    """True iff every boundary in dimensions r+1 .. maxdim has exactly one filler."""
    if not 0 <= r < maxdim <= S.N:
        raise ValueError("need 0 <= r < maxdim <= truncation")
    for n in range(r + 1, maxdim + 1):
        index = S.filler_index(n)
        for b in boundaries(S, n):
            if len(index.get(b, ())) != 1:
                return False
    return True


# -- coskeletal extension -------------------------------------------------


def _with_level(S: TruncatedSSet, tuples: Sequence[BoundaryTuple]) -> TruncatedSSet:
    """``S`` plus level n = S.N + 1 whose simplices carry the face vectors ``tuples``.

    The new simplices are labelled ``s{n}:{k}`` in the order of ``tuples``
    and their faces project to components.  The simplicial identities
    force the face vector of s_i x for an (n-1)-simplex x to be
    (s_{i-1} d_0 x, .., s_{i-1} d_{i-1} x, x, x, s_i d_{i+1} x, .., s_i d_{n-1} x),
    and it must be among ``tuples``.
    """
    m, n = S.N, S.N + 1
    labels = [f"s{n}:{k}" for k in range(len(tuples))]
    label_of = dict(zip(tuples, labels))
    faces, below = S.faces[m], S.degens[m - 1]

    def degenerate(i: int, x: str) -> str:
        key = (
            *(below[i - 1][faces[k][x]] for k in range(i)),
            x,
            x,
            *(below[i][faces[k][x]] for k in range(i + 1, m + 1)),
        )
        if key not in label_of:
            raise StructuralError(f"degenerate boundary at level {m} is not compatible")
        return label_of[key]

    return TruncatedSSet(
        [*S.levels, labels],
        [*S.faces, [{lab: t[i] for lab, t in zip(labels, tuples)} for i in range(n + 1)]],
        [*S.degens[:-1], [{x: degenerate(i, x) for x in S.levels[m]} for i in range(n)], []],
    )


def coskeletal_extension(
    S: TruncatedSSet, N: int, max_simplices: int = 1_000_000
) -> TruncatedSSet:
    """Extend a consistent truncation to dimension N by boundary tuples.

    Each new level consists of the compatible facet tuples over the level
    below; faces project to components and degeneracies are computed
    through the simplicial identities.
    """
    if N < S.N:
        raise ValueError("cannot extend below the current truncation")
    if check_simplicial_identities(S):
        raise StructuralError("input truncation violates the simplicial identities")
    total = S.size()
    for n in range(S.N + 1, N + 1):
        bts = sorted(boundaries(S, n))
        total += len(bts)
        if total > max_simplices:
            raise BudgetExceededError(
                f"extension to dimension {n} needs more than {max_simplices} simplices"
            )
        S = _with_level(S, bts)
    return S


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

    @property
    def depth(self) -> int:
        return len(self.components) - 1

    @cached_property
    def _lookup(self) -> tuple[dict[str, str], ...]:
        return tuple(dict(c) for c in self.components)

    def level_map(self, n: int) -> dict[str, str]:
        return dict(self.components[n])

    def __call__(self, n: int, label: str) -> str:
        return self._lookup[n][label]


def make_map(
    S: TruncatedSSet, T: TruncatedSSet, comps: Sequence[Mapping[str, str]]
) -> SimplicialMap:
    return SimplicialMap(
        S, T, tuple(tuple(sorted(dict(c).items())) for c in comps)
    )


def is_simplicial_map(
    S: TruncatedSSet, T: TruncatedSSet, comps: Sequence[Mapping[str, str]]
) -> bool:
    """Check totality and commutation with every face and degeneracy."""
    upto = len(comps) - 1
    if upto > min(S.N, T.N):
        return False
    for n in range(upto + 1):
        comp = comps[n]
        if set(comp) != S._level_sets[n]:
            return False
        if not T._level_sets[n].issuperset(comp.values()):
            return False
    for n in range(1, upto + 1):
        for x, y in comps[n].items():
            for i in range(n + 1):
                if comps[n - 1][S.face(n, i, x)] != T.face(n, i, y):
                    return False
    for n in range(upto):
        for x, y in comps[n].items():
            for i in range(n + 1):
                if comps[n + 1][S.degeneracy(n, i, x)] != T.degeneracy(n, i, y):
                    return False
    return True


def _enumerate_level_maps(
    S: TruncatedSSet, T: TruncatedSSet, k: int, bijective: bool
) -> list[list[dict[str, str]]]:
    """All ways to map levels 0..k, assigning non-degenerate simplices.

    Degenerate simplices take forced images through their smallest
    witness; face compatibility prunes candidates as images are chosen.
    """
    if k > min(S.N, T.N):
        raise ValueError("level bound exceeds a truncation")
    if bijective and any(len(S.level(n)) != len(T.level(n)) for n in range(k + 1)):
        return []
    results: list[list[dict[str, str]]] = []
    comps: list[dict[str, str]] = [dict() for _ in range(k + 1)]
    used: list[set[str]] = [set() for _ in range(k + 1)]

    def descend(n: int) -> None:
        if n > k:
            results.append([dict(c) for c in comps])
            return
        assign(n, S.nondegenerate(n), 0)

    def assign(n: int, nondeg: tuple[str, ...], idx: int) -> None:
        if idx == len(nondeg):
            place_degenerate(n)
            return
        x = nondeg[idx]
        if n == 0:
            candidates: Iterable[str] = T.level(0)
        else:
            req = tuple(comps[n - 1][S.face(n, i, x)] for i in range(n + 1))
            candidates = T.filler_index(n).get(req, ())
        for y in candidates:
            if bijective and y in used[n]:
                continue
            comps[n][x] = y
            if bijective:
                used[n].add(y)
            assign(n, nondeg, idx + 1)
            del comps[n][x]
            if bijective:
                used[n].discard(y)

    def place_degenerate(n: int) -> None:
        added: list[tuple[str, str]] = []
        ok = True
        for x in S.level(n):
            if x in comps[n]:
                continue
            w = S.degeneracy_witness(n, x)
            y = T.degeneracy(n - 1, w, comps[n - 1][S.face(n, w, x)])
            if bijective and y in used[n]:
                ok = False
                break
            comps[n][x] = y
            if bijective:
                used[n].add(y)
            added.append((x, y))
        if ok:
            descend(n + 1)
        for x, y in added:
            del comps[n][x]
            if bijective:
                used[n].discard(y)

    descend(0)
    return results


def _extend_by_fillers(
    S: TruncatedSSet, T: TruncatedSSet, comps: Sequence[Mapping[str, str]]
) -> list[dict[str, str]] | None:
    """Extend a partial map upward through unique fillers.

    Returns None when some image boundary has no filler; raises when a
    filler is ambiguous, since then the target is not coskeletal enough
    for the extension to be well-defined.
    """
    upto = min(S.N, T.N)
    full = [dict(c) for c in comps]
    for n in range(len(full), upto + 1):
        comp: dict[str, str] = {}
        index = T.filler_index(n)
        for x in S.level(n):
            req = tuple(full[n - 1][S.face(n, i, x)] for i in range(n + 1))
            hits = index.get(req, ())
            if not hits:
                return None
            if len(hits) > 1:
                raise StructuralError(
                    "ambiguous filler while extending a map; target is not coskeletal"
                )
            comp[x] = hits[0]
        full.append(comp)
    return full


def isomorphisms(S: TruncatedSSet, T: TruncatedSSet) -> list[SimplicialMap]:
    """All levelwise-bijective simplicial maps between equal truncations."""
    if S.N != T.N:
        raise ValueError("both objects must be truncated at the same dimension")
    out = []
    for comps in _enumerate_level_maps(S, T, S.N, bijective=True):
        if is_simplicial_map(S, T, comps):
            out.append(make_map(S, T, comps))
    return out


def simplicial_maps(S: TruncatedSSet, T: TruncatedSSet, k: int) -> list[SimplicialMap]:
    """All simplicial maps S -> T, for a target k-coskeletal within truncation.

    Images of non-degenerate simplices of dimension <= k determine the
    map; candidates above are produced by unique filling, and a candidate
    dies when some image boundary one dimension above k has no filler.
    """
    if S.N < k + 1:
        raise ValueError("source truncation must reach k + 1")
    if T.N < k + 1:
        raise ValueError("target truncation must reach k + 1 to check fillability")
    if not is_r_coskeletal_up_to(T, k, T.N):
        raise StructuralError(
            f"target is not {k}-coskeletal within its truncation"
        )
    out = []
    for comps in _enumerate_level_maps(S, T, k, bijective=False):
        full = _extend_by_fillers(S, T, comps)
        if full is not None and is_simplicial_map(S, T, full):
            out.append(make_map(S, T, full))
    return out
