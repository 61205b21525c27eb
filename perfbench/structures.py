"""Strict monoidal structures the classify and skew workloads draw from.

Three sources, all built at set-up:

- the five library structures;
- every strict monoidal tensor on one labelled poset per isomorphism
  class on one to three elements, found by exhaustive tensor-table
  search (the unit's row and column are forced, so the search runs over
  the remaining cells);
- one-object categories over the commutative monoids of order two and
  three, one per isomorphism class, with multiplication as the tensor.
"""

from __future__ import annotations

from itertools import permutations, product
from types import ModuleType

# One poset per isomorphism class on 1..3 elements, as strict "<" pairs.
POSET_SHAPES: dict[str, tuple[int, tuple[tuple[str, str], ...]]] = {
    "one": (1, ()),
    "anti2": (2, ()),
    "chain2": (2, (("0", "1"),)),
    "anti3": (3, ()),
    "chain3": (3, (("0", "1"), ("1", "2"), ("0", "2"))),
    "vee": (3, (("0", "1"), ("0", "2"))),
    "wedge": (3, (("0", "2"), ("1", "2"))),
    "pair": (3, (("0", "1"),)),
}


def _tensors(elems: list[str], leq: set[tuple[str, str]]):
    """Every associative, monotone tensor with a two-sided unit, as (table, unit)."""
    for unit in elems:
        rest = [e for e in elems if e != unit]
        cells = [(a, b) for a in rest for b in rest]
        for values in product(elems, repeat=len(cells)):
            table = dict(zip(cells, values))
            for a in elems:
                table[(unit, a)] = a
                table[(a, unit)] = a
            if any(
                table[(table[(a, b)], c)] != table[(a, table[(b, c)])]
                for a in elems
                for b in elems
                for c in elems
            ):
                continue
            if all(
                (table[(a, c)], table[(b, c)]) in leq and (table[(c, a)], table[(c, b)]) in leq
                for a, b in leq
                for c in elems
            ):
                yield table, unit


def poset_structures(finmon: ModuleType) -> dict[str, object]:
    out = {}
    for shape, (size, strict) in POSET_SHAPES.items():
        elems = [str(k) for k in range(size)]
        leq = set(strict) | {(a, a) for a in elems}
        poset = finmon.Poset(tuple(elems), frozenset(leq))
        for table, unit in _tensors(elems, leq):
            cells = "".join(table[(a, b)] for a in elems for b in elems)
            mp = finmon.MonoidalPoset(poset, table, unit)
            out[f"poset-{shape}-u{unit}-{cells}"] = finmon.poset_as_category(mp)
    return out


def commutative_monoids() -> dict[str, dict[tuple[str, str], str]]:
    """Multiplication tables of the commutative monoids of order 2 and 3, up to isomorphism."""
    found: dict[str, dict[tuple[str, str], str]] = {}
    seen: set[tuple] = set()
    for others in (["a"], ["a", "b"]):
        elems = ["1"] + others
        pairs = [(x, y) for i, x in enumerate(others) for y in others[i:]]
        for values in product(elems, repeat=len(pairs)):
            table = {(e, "1"): e for e in elems} | {("1", e): e for e in elems}
            for (x, y), v in zip(pairs, values):
                table[(x, y)] = table[(y, x)] = v
            if any(
                table[(table[(x, y)], z)] != table[(x, table[(y, z)])]
                for x in elems
                for y in elems
                for z in elems
            ):
                continue
            forms = []
            for perm in permutations(others):
                ren = dict(zip(others, perm)) | {"1": "1"}
                forms.append(tuple(sorted((ren[x], ren[y], ren[v]) for (x, y), v in table.items())))
            if min(forms) in seen:
                continue
            seen.add(min(forms))
            cells = "".join(table[(x, y)] for x, y in pairs)
            found[f"monoid{len(elems)}-{cells}"] = table
    return found


def monoid_category(
    finmon: ModuleType, table: dict[tuple[str, str], str], obj: str = "*", identity: str = "1"
):
    elems = sorted({x for x, _ in table})
    return finmon.FinCategory([obj], [(e, obj, obj) for e in elems], {obj: identity}, table)


def monoid_structures(finmon: ModuleType) -> dict[str, object]:
    out = {}
    for name, table in commutative_monoids().items():
        cat = monoid_category(finmon, table)
        out[name] = finmon.FinMonoidalStructure(cat, {("*", "*"): "*"}, dict(table), "*")
    return out


def structure_pool(modules: dict[str, ModuleType]) -> dict[str, object]:
    """Library, poset and monoid structures, in a fixed order."""
    pool = {f"library-{k}": v for k, v in modules["library"].structure_library().items()}
    pool.update(poset_structures(modules["finmon"]))
    pool.update(monoid_structures(modules["finmon"]))
    return pool
