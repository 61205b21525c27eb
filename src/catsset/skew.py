"""Skew-monoidal data validation and the pentagon condition family.

A skew structure keeps a (not necessarily strict) tensor together with
explicit constraint components alpha : (A(x)B)(x)C -> A(x)(B(x)C),
lambda : I(x)A -> A and rho : A -> A(x)I, plus an endomorphism kappa of
the unit.  Five axioms characterize skew-monoidal structure; nine
pentagon conditions come from the non-degenerate 4-simplices of the
Dyck-word simplicial set, and the two families agree exactly when kappa
is the identity.

Every condition is evaluated pointwise as an equation between edge-path
composites; nothing is normalized or rewritten.  The candidate search,
naturality and the conditions read index rows, integer tables over the
sorted objects and morphisms; tensor cells range over morphisms in label
order, components and naturality listings in declared order.  Labels
appear only at the edge: in reports and in the skew data returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterator, Mapping, Sequence

from .errors import BudgetExceededError, StructuralError
from .finmon import (
    FinCategory,
    FinMonoidalStructure,
    LawViolation,
    Poset,
    _TensorData,
    _Rows,
    _alpha_unnatural,
    _composites,
    _constraint_typing,
    _naturality_violations,
    _paths_agree,
    _require_keys,
    _thin,
    _unitors_unnatural,
    check_label,
    poset_category,
    table_rows,
    tensor_violations,
)


class SkewData(_TensorData):
    """Tensor data with explicit, possibly non-invertible constraints.

    A sibling of :class:`~catsset.finmon.FinMonoidalStructure`, whose tensor need not
    be strict.  Construction validates the structural invariants: tables are total
    and well-typed, the tensor is a bifunctor (identities and interchange), and every
    constraint component is in the hom-set of its stated endpoints.  Whether the
    axioms hold is a separate question answered by the checkers.
    """

    KIND = "skew_data"

    def __init__(
        self,
        category: FinCategory,
        obj_tensor: Mapping[tuple[str, str], str],
        mor_tensor: Mapping[tuple[str, str], str],
        unit: str,
        alpha: Mapping[tuple[str, str, str], str],
        lam: Mapping[str, str],
        rho: Mapping[str, str],
        kappa: str | None = None,
    ) -> None:
        self.alpha = dict(alpha)
        self.lam = dict(lam)
        self.rho = dict(rho)
        super().__init__(category, obj_tensor, mor_tensor, unit)
        r = self._rows
        violation = next(chain(tensor_violations(self), _constraint_typing(r, r.alpha, r.lam, r.rho)), None)
        if violation is not None:
            raise StructuralError(violation.detail)
        c = self.category
        self.kappa = kappa if kappa is not None else c.id_of(self.unit)
        if self.kappa not in c.hom(self.unit, self.unit):
            raise StructuralError("kappa must be an endomorphism of the unit")
        # every key at objects is present by now, so a longer table has a stray key
        objs = c.objects
        for name, table, arity in (("alpha", self.alpha, 3), ("lambda", self.lam, 1), ("rho", self.rho, 1)):
            if len(table) != len(objs) ** arity:
                keys = set(product(objs, repeat=3)) if arity == 3 else set(objs)
                raise StructuralError(f"{name} entry at {min(set(table) - keys, key=repr)!r} is not at objects")

    @classmethod
    def _trusted(cls, category, obj_tensor, mor_tensor, unit, alpha, lam, rho, kappa) -> "SkewData":
        """Skew data from tables that are valid by construction, left unchecked and shared, not copied."""
        d = cls.__new__(cls)
        d.category, d.obj_tensor, d.mor_tensor, d.unit = category, obj_tensor, mor_tensor, unit
        d.alpha, d.lam, d.rho, d.kappa = alpha, lam, rho, kappa
        return d

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = super().to_json_dict()
        doc["alpha"] = [[a, b, c, v] for (a, b, c), v in sorted(self.alpha.items())]
        doc["lambda"] = [[a, v] for a, v in sorted(self.lam.items())]
        doc["rho"] = [[a, v] for a, v in sorted(self.rho.items())]
        doc["kappa"] = self.kappa
        return doc

    @classmethod
    def _fields_from_json(cls, doc: Mapping) -> tuple:
        fields = super()._fields_from_json(doc)
        _require_keys(doc, "alpha", "lambda", "rho")
        alpha = {(a, b, c): v for a, b, c, v in table_rows(doc, "alpha", "[a, b, c, component]")}
        lam = {a: v for a, v in table_rows(doc, "lambda", "[a, component]")}
        rho = {a: v for a, v in table_rows(doc, "rho", "[a, component]")}
        kappa = doc.get("kappa")
        if kappa is not None:
            check_label(kappa, "kappa")
        return (*fields, alpha, lam, rho, kappa)


def skew_from_strict(m: FinMonoidalStructure, kappa: str | None = None) -> SkewData:
    """A strict structure as skew data with identity constraints, built checking ``kappa`` alone:
    ``m`` is strict monoidal by construction, so its tables pass the other checks of :class:`SkewData`."""
    c, t, ids = m.category, m.obj_tensor, m.category.identities
    kappa = ids[m.unit] if kappa is None else kappa
    if kappa not in c.hom(m.unit, m.unit):
        raise StructuralError("kappa must be an endomorphism of the unit")
    alpha = {(a, b, d): ids[t[t[a, b], d]] for a, b, d in product(c.objects, repeat=3)}
    return SkewData._trusted(c, t, m.mor_tensor, m.unit, alpha, dict(ids), dict(ids), kappa)


# -- reports -----------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    name: str
    holds: bool
    witness: tuple[str, ...] | None

    def __str__(self) -> str:
        if self.holds:
            return f"{self.name}: pass"
        return f"{self.name}: FAIL at {self.witness}"


@dataclass(frozen=True)
class ConditionReport:
    results: tuple[ConditionResult, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.results)

    def result(self, name: str) -> ConditionResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def check_naturality(d: SkewData) -> list[LawViolation]:
    """Naturality of alpha in three arguments and of lambda/rho in one, alpha's violations first.

    The candidate search runs the two parts apart, each once per pick of
    the tables it reads, and stops each at its first violation.

    Thin data is decided by rule, and nothing is read or evaluated: this
    check returns no violation, and :func:`check_axioms` and
    :func:`check_pentagons` their passing reports.  Every ``SkewData`` is
    typed: its constructor checks the tensor through ``tensor_violations``
    and each of alpha, lambda, rho and kappa against its hom-set, and the
    trusted builders (:func:`skew_from_strict`, the sweeps' converter) take
    tables typed by construction.  So every naturality square, axiom and
    pentagon equates two parallel composites, and a thin category has one
    (:func:`~catsset.finmon._thin`); hom(I, I) = {id}, so kappa is the
    identity.  Other data is evaluated in full.
    """
    if _thin(d.category):
        return []
    r = d._rows
    return list(_naturality_violations(r, r.alpha, r.lam, r.rho))


# Each condition maps rows and an object index tuple to a (left path,
# right path) pair of morphism index lists, first morphism applied first;
# the condition holds when the two composites agree.  The rows are read
# by subscript: SkewData construction, or the search that drew the pick,
# has checked every entry they reach.


def _pentagon_alpha(r: _Rows, A: int, B: int, C: int, D: int):
    ids, t, tm, alpha = r.ids, r.t, r.tm, r.alpha
    top = [alpha[t[A][B]][C][D], alpha[A][B][t[C][D]]]
    bottom = [tm[alpha[A][B][C]][ids[D]], alpha[A][t[B][C]][D], tm[ids[A]][alpha[B][C][D]]]
    return top, bottom


def _triangle_middle(r: _Rows, A: int, B: int):
    ids, tm = r.ids, r.tm
    return [ids[r.t[A][B]]], [tm[r.rho[A]][ids[B]], r.alpha[A][r.unit][B], tm[ids[A]][r.lam[B]]]


def _triangle_left(r: _Rows, A: int, B: int):
    return [r.alpha[r.unit][A][B], r.lam[r.t[A][B]]], [r.tm[r.lam[A]][r.ids[B]]]


def _triangle_right(r: _Rows, A: int, B: int):
    return [r.rho[r.t[A][B]], r.alpha[A][B][r.unit]], [r.tm[r.ids[A]][r.rho[B]]]


def _unit_loop(r: _Rows):
    return [r.rho[r.unit], r.lam[r.unit]], [r.ids[r.unit]]


def _pent_a2(r: _Rows, A: int, B: int):
    top, bottom = _triangle_middle(r, A, B)
    return top * 2, bottom


def _pent_a3(r: _Rows, A: int, B: int):
    top, bottom = _triangle_left(r, A, B)
    return top, bottom + [r.ids[r.t[A][B]]] * 2


def _pent_a4(r: _Rows, A: int, B: int):
    top, bottom = _triangle_right(r, A, B)
    return top, [r.ids[r.t[A][B]]] * 2 + bottom


def _pent_a5(r: _Rows):
    idu = r.ids[r.unit]
    return [idu, idu], [idu, r.kappa, idu]


def _pent_a6(r: _Rows):
    idu = r.ids[r.unit]
    return [r.rho[r.unit], r.lam[r.unit]], [idu, r.kappa, idu]


def _pent_a7(r: _Rows):
    idu = r.ids[r.unit]
    return [r.rho[r.unit], r.lam[r.unit]], [r.kappa, idu, r.kappa]


def _pent_a8(r: _Rows, A: int):
    ai = r.ids[r.t[A][r.unit]]
    return [r.rho[A], ai], [r.rho[A], ai, r.tm[r.ids[A]][r.kappa]]


def _pent_a9(r: _Rows, A: int):
    ia = r.ids[r.t[r.unit][A]]
    return [ia, r.lam[A]], [r.tm[r.kappa][r.ids[A]], ia, r.lam[A]]


AXIOMS: tuple[tuple[str, int, object], ...] = (
    ("5.1", 4, _pentagon_alpha),
    ("5.2", 2, _triangle_middle),
    ("5.3", 2, _triangle_left),
    ("5.4", 2, _triangle_right),
    ("5.5", 0, _unit_loop),
)

PENTAGONS: tuple[tuple[str, int, object], ...] = (
    ("A1", 4, _pentagon_alpha),
    ("A2", 2, _pent_a2),
    ("A3", 2, _pent_a3),
    ("A4", 2, _pent_a4),
    ("A5", 0, _pent_a5),
    ("A6", 0, _pent_a6),
    ("A7", 0, _pent_a7),
    ("A8", 1, _pent_a8),
    ("A9", 1, _pent_a9),
)
_KAPPA_FREE = 4  # A1-A4, the pentagons that read no kappa, come first

#: Each condition's passing result, built once; a check builds the failing ones only.
_PASSING = {name: ConditionResult(name, True, None) for name, _, _ in AXIOMS + PENTAGONS}
#: The reports of thin skew data, on which every condition holds by rule (:func:`check_naturality`).
_THIN_AXIOMS = ConditionReport(tuple(_PASSING[name] for name, _, _ in AXIOMS))
_THIN_PENTAGONS = ConditionReport(tuple(_PASSING[name] for name, _, _ in PENTAGONS))


def _witness(r: _Rows, arity: int, fn) -> tuple[int, ...] | None:
    """The first object index tuple, in ``product`` order, where fn's two paths differ, or None."""
    comp = r.comp
    for tup in product(range(len(r.objs)), repeat=arity):
        left, right = fn(r, *tup)
        if not _paths_agree(comp, left, right):
            return tup
    return None


def _evaluate(rows: _Rows, table, kept: dict) -> list[ConditionResult]:
    """The results of ``table`` on the rows, in its order.  ``kept`` maps condition functions to their
    witnesses on these rows: one found there is not evaluated again, and one evaluated here is added.
    A passing condition's result is its shared one from ``_PASSING``."""
    results = []
    for name, arity, fn in table:
        if fn not in kept:
            kept[fn] = _witness(rows, arity, fn)
        found = kept[fn]
        if found is None:
            results.append(_PASSING[name])
        else:
            results.append(ConditionResult(name, False, tuple(rows.objs[k] for k in found)))
    return results


def check_axioms(d: SkewData) -> ConditionReport:
    """The five skew-monoidal axioms, evaluated pointwise over object tuples, each once per structure.

    On thin data all five hold by rule and none is evaluated (:func:`check_naturality`).
    """
    if _thin(d.category):
        return _THIN_AXIOMS
    return ConditionReport(tuple(_evaluate(d._rows, AXIOMS, d._rows.kept)))


def check_pentagons(d: SkewData) -> ConditionReport:
    """The nine pentagon conditions, kappa included, evaluated pointwise.

    A1-A4 read no kappa and keep their witnesses on the structure's rows
    with the axioms', so A1, which is 5.1, is evaluated once for this and
    :func:`check_axioms` in either order; A5-A9 read a copy with kappa.
    On thin data all nine hold by rule and none is evaluated
    (:func:`check_naturality`).
    """
    if _thin(d.category):
        return _THIN_PENTAGONS
    r = d._rows
    kappa_rows = r._pick(r.t, r.tm, r.unit, r.alpha, r.lam, r.rho)  # a copy, never the kept rows
    kappa_rows.kappa = r.mors.index(d.kappa)
    results = _evaluate(r, PENTAGONS[:_KAPPA_FREE], r.kept) + _evaluate(kappa_rows, PENTAGONS[_KAPPA_FREE:], {})
    return ConditionReport(tuple(results))


def equivalence_consistent(axioms: ConditionReport, pentagons: ConditionReport, identity_kappa: bool) -> bool:
    """Whether the pentagons all hold exactly when the axioms hold and kappa is the identity."""
    return pentagons.all_hold == (axioms.all_hold and identity_kappa)


def verify_equivalence(d: SkewData) -> bool:
    """Pentagons all hold iff the axioms hold and kappa is the identity."""
    return equivalence_consistent(check_axioms(d), check_pentagons(d), d.kappa == d.category.id_of(d.unit))


def is_monoidal(d: SkewData) -> bool:
    """True iff every alpha, lambda, rho component is invertible."""
    r = d._rows
    comp, ids, src, tgt = r.comp, r.ids, r.src, r.tgt
    invertible = {
        f for f in r.declared
        if any(comp[g][f] == ids[src[f]] and comp[f][g] == ids[tgt[f]] for g in r.hom[tgt[f]][src[f]])
    }
    return all(f in invertible for f in chain((f for rows in r.alpha for row in rows for f in row), r.lam, r.rho))


# -- candidate sweeps --------------------------------------------------


def _fill(domains: Sequence[Sequence[int]], admits) -> Iterator[tuple[int, ...]]:
    """The tables with one value per cell from ``domains``, in the order of their product.

    Cells are set in order.  ``admits(k, values)`` is asked as soon as
    cell k is set, with ``values[:k + 1]`` filled in, and a False drops
    every table that extends that prefix.  ``domains`` is not empty.
    """
    last = len(domains) - 1
    values = [0] * len(domains)
    untried = [iter(domains[0])]  # per set cell, the values it has still to take
    while untried:
        k = len(untried) - 1
        for values[k] in untried[k]:
            if admits(k, values):
                if k == last:
                    yield tuple(values)
                else:
                    untried.append(iter(domains[k + 1]))
                    break
        else:
            untried.pop()


def _object_tensors(r: _Rows, typed: Sequence[Sequence[Sequence[int]]]) -> Iterator[tuple[list, list[int]]]:
    """The object tables of the raw product that carry skew data, in its order, with their units.

    ``typed[s][t]`` is the hom-set s -> t.  Morphisms f: a -> b, g: c -> d
    type the morphism-tensor cell (f, g) by an arrow a(x)c -> b(x)d; a
    table is dropped as soon as both object cells of such an arrow are set
    and its hom-set is empty, because no morphism tensor exists over it.
    For a poset this is monotonicity.  An object u can be the unit only if
    each set cell (u, a) has an arrow u(x)a -> a for lambda and each set
    cell (a, u) an arrow a -> a(x)u for rho; a table is dropped as soon as
    no object can, so an empty carrier has no tables at all.  alpha needs
    an arrow (a(x)b)(x)c -> a(x)(b(x)c) for every triple; the cells it
    reads lie in rows a, b and a(x)b, so a table is dropped at the last
    cell of the latest of those rows when the hom-set is empty.  Each rule
    drops only prefixes all of whose tables break it, so the tables left
    are those of the raw product that keep all three, in its order.
    """
    n, m = len(r.objs), len(r.mors)
    if not n:
        return
    # cell a * n + b holds a(x)b; an endomorphism cell always holds the
    # identity, so only arrows between two cells are checked, at the later
    arrows = {(r.src[f] * n + r.src[g], r.tgt[f] * n + r.tgt[g]) for f in range(m) for g in range(m)}
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n * n)]
    for i, j in arrows:
        if i != j:
            checks[max(i, j)].append((i, j))
    # units as bit sets over the objects: keep[k][v] clears the objects
    # that value v in cell k rules out, and alive[k] holds the objects that
    # can still be the unit once cells 0 .. k are set (alive[-1]: before any)
    everyone = (1 << n) - 1
    keep = [
        [everyone & ~(0 if typed[v][b] else 1 << a) & ~(0 if typed[a][v] else 1 << b) for v in range(n)]
        for a in range(n)
        for b in range(n)
    ]
    alive = [0] * (n * n) + [everyone]
    # the associator hom-set of (a, b, c) reads rows a, b and a(x)b, so it is
    # checked at the last cell of the latest of them: completes[k] is the row
    # whose last cell k is (-1: none), and pairs[row] holds each (a, b) with
    # rows a and b set by then, with the cell of a(x)b and max(a, b)
    completes = [k // n if k % n == n - 1 else -1 for k in range(n * n)]
    pairs = [[(a, b, a * n + b, max(a, b)) for a in range(row + 1) for b in range(row + 1)] for row in range(n)]
    objects = range(n)

    def admits(k: int, values: list[int]) -> bool:
        alive[k] = live = alive[k - 1] & keep[k][values[k]]
        if not live:
            return False
        for i, j in checks[k]:
            if not typed[values[i]][values[j]]:
                return False
        row = completes[k]
        if row < 0:
            return True
        for a, b, cell, top in pairs[row]:
            ab = values[cell]
            if (ab if ab > top else top) == row:
                for c in objects:
                    if not typed[values[ab * n + c]][values[a * n + values[b * n + c]]]:
                        return False
        return True

    for values in _fill([range(n)] * (n * n), admits):
        yield [values[a * n : a * n + n] for a in range(n)], [u for u in range(n) if alive[n * n - 1] >> u & 1]


def _interchange_checks(r: _Rows) -> list[list[tuple[int, int, int]]]:
    """Per morphism-tensor cell of a lawful category's rows, the interchange instances whose last cell it is.

    Cell f * m + g holds f(x)g.  The instance (g o f)(x)(g' o f') = (g(x)g') o (f(x)f')
    is the cell triple ((g, g'), (f, f'), (g o f, g' o f')), checked once all three are set.
    """
    m, composites = len(r.mors), _composites(r)
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(m * m)]
    for g, f, gf in composites:
        for g2, f2, g2f2 in composites:
            instance = (g * m + g2, f * m + f2, gf * m + g2f2)
            checks[max(instance)].append(instance)
    return checks


def _category_picks(cat: FinCategory) -> Iterator[tuple[_Rows, list[int], bool]]:
    """All skew data over a small category by table search, as picks with their naturality.

    Each pick is ``(rows, kappas, natural)``: its own :class:`_Rows`,
    sharing its lists with the stage that drew them, and the endomorphisms
    of the unit, one candidate each, sharing the flag, since naturality
    does not read kappa.  Each morphism-tensor cell ranges, in label
    order, over the morphisms of the type the object tensor forces on it,
    a pair of identities only over the identity of its tensor, and a
    partial table is dropped at the last cell of an interchange instance
    it breaks, so the tables left are exactly the bifunctors of the raw
    product, in its order, and none is checked again.  Components and
    kappa are chosen in declared order.  An object tensor with no unit,
    or with no alpha component for some triple, is never drawn
    (:func:`_object_tensors`).  Each check runs once, at the stage whose
    picks fix its inputs: alpha naturality once per alpha pick of a
    morphism tensor, lambda and rho naturality once per (lambda, rho)
    pick of a unit.

    On a thin ``cat`` these checks hold by rule and none runs: every
    naturality square and interchange instance equates two composites
    with the same ends (:func:`~catsset.finmon._thin`).  Each hom-set the
    tables type holds exactly one morphism, since the object tables with
    an empty one are never drawn, so the morphism tensor, alpha, lambda
    and rho are read off the object table, and every pick is natural.
    """
    r = cat._indexed()[0]
    n, m = len(r.objs), len(r.mors)
    src, tgt, comp, ids, hom = r.src, r.tgt, r.comp, r.ids, r.hom
    typed = [[sorted(fs) for fs in row] for row in hom]  # in label order
    object_of = {f: a for a, f in enumerate(ids)}
    thin = _thin(cat)
    triples = list(product(range(n), repeat=3))
    if thin:  # the one morphism of each hom-set, -1 where there is none
        one = [[fs[0] if fs else -1 for fs in row] for row in hom]
        cell_ends = [[(src[f], src[g], tgt[f], tgt[g]) for g in range(m)] for f in range(m)]
    else:
        interchange = _interchange_checks(r)

    def bifunctorial(k: int, values: list[int]) -> bool:
        return all(comp[values[i]][values[j]] == values[ij] for i, j, ij in interchange[k])

    for t, units in _object_tensors(r, typed):
        if thin:  # every table is read off t
            tm = [[one[t[a][b]][t[c][d]] for a, b, c, d in row] for row in cell_ends]
            alpha = [[[one[t[ab][c]][t[a][t[b][c]]] for c in range(n)] for b, ab in enumerate(t[a])] for a in range(n)]
            for unit in units:
                lam, rho = [one[t[unit][a]][a] for a in range(n)], [one[a][t[a][unit]] for a in range(n)]
                yield r._pick(t, tm, unit, alpha, lam, rho), hom[unit][unit], True
            continue
        alpha_choices = [hom[t[t[a][b]][c]][t[a][t[b][c]]] for a, b, c in triples]
        cells = [
            (ids[t[object_of[f]][object_of[g]]],) if f in object_of and g in object_of
            else typed[t[src[f]][src[g]]][t[tgt[f]][tgt[g]]]
            for f in range(m) for g in range(m)
        ]
        for values in _fill(cells, bifunctorial):
            tm = [values[f * m : f * m + m] for f in range(m)]
            alphas = []
            for pick in product(*alpha_choices):
                alpha = [[pick[k : k + n] for k in range(a * n * n, a * n * n + n * n, n)] for a in range(n)]
                alphas.append((alpha, next(_alpha_unnatural(r, tm, alpha), None) is None))
            for unit in units:
                lam_choices = [hom[t[unit][a]][a] for a in range(n)]
                rho_choices = [hom[a][t[a][unit]] for a in range(n)]
                lam_rhos = [
                    (lam, rho, next(_unitors_unnatural(r, tm, unit, lam, rho), None) is None)
                    for lam, rho in product(product(*lam_choices), product(*rho_choices))
                ]
                for alpha, alpha_natural in alphas:
                    for lam, rho, unitors_natural in lam_rhos:
                        yield r._pick(t, tm, unit, alpha, lam, rho), hom[unit][unit], alpha_natural and unitors_natural


def _as_skew_data(cat: FinCategory, picks) -> Iterator[tuple[SkewData, bool]]:
    """Each ``(rows, kappas, natural)`` pick as skew data over ``cat``, one per kappa, with its flag.

    Rows turn into label tables here only.  The candidates of a pick share
    its tables, and a tensor or alpha table is converted once for as long
    as the picks share its rows list; nothing mutates them.
    """
    objs, mors = sorted(cat.objects), sorted(cat.morphism_labels())
    pairs, mor_pairs, triples = list(product(objs, objs)), list(product(mors, mors)), list(product(objs, objs, objs))
    seen_t = seen_tm = seen_alpha = None  # the rows lists last converted
    for r, kappas, natural in picks:
        if r.t is not seen_t:
            seen_t, obj_tensor = r.t, dict(zip(pairs, [objs[v] for row in r.t for v in row]))
        if r.tm is not seen_tm:
            seen_tm, mor_tensor = r.tm, dict(zip(mor_pairs, [mors[v] for row in r.tm for v in row]))
        if r.alpha is not seen_alpha:
            seen_alpha, alpha = r.alpha, dict(zip(triples, [mors[v] for rows in r.alpha for row in rows for v in row]))
        lam, rho = dict(zip(objs, [mors[v] for v in r.lam])), dict(zip(objs, [mors[v] for v in r.rho]))
        for kappa in kappas:
            yield SkewData._trusted(cat, obj_tensor, mor_tensor, objs[r.unit], alpha, lam, rho, mors[kappa]), natural


def _category_candidates(cat: FinCategory) -> Iterator[tuple[SkewData, bool]]:
    """The candidates of :func:`_category_picks`, one per kappa, each with its naturality."""
    return _as_skew_data(cat, _category_picks(cat))


def _poset_raw_tables(n: int) -> int:
    """The raw tensor tables of a sweep over a poset of ``n`` elements; BudgetExceededError past its cap."""
    if n > 3:
        raise BudgetExceededError("poset sweeps are capped at 3 elements")
    return n ** (n * n)


def _swept_category(carrier: "Poset | FinCategory", budget: int) -> FinCategory:
    """The lawful category a sweep over ``carrier`` searches, once it is inside the caps and the budget."""
    if isinstance(carrier, Poset):
        raw = _poset_raw_tables(len(carrier.elements))
        carrier = poset_category(carrier)
    elif isinstance(carrier, FinCategory):
        n, m = len(carrier.objects), len(carrier.morphisms)
        if n > 2 or m > 6:
            raise BudgetExceededError(
                "category sweeps are capped at 2 objects and 6 morphisms"
            )
        raw = n ** (n * n) * m ** (m * m)
    else:
        raise TypeError(f"unsupported carrier type {type(carrier).__name__}")
    if raw > budget:
        raise BudgetExceededError(f"{raw} raw tensor tables exceed the sweep budget {budget}")
    return carrier


def skew_candidates(
    carrier: "Poset | FinCategory", budget: int = 1_000_000
) -> Iterator[SkewData]:
    """Structurally valid skew data over a small carrier, every kappa included.

    A poset is searched as its thin category.  ``budget`` caps the raw
    tensor tables, counted before typing prunes them: n^(n*n) for a poset
    with n elements, and n^(n*n) * m^(m*m) for a category with n objects
    and m morphisms.  An empty carrier has no candidates, since no object
    can be the unit.
    """
    for d, _ in _category_candidates(_swept_category(carrier, budget)):
        yield d


def enumerate_skew_structures(
    carrier: "Poset | FinCategory", budget: int = 1_000_000
) -> list[SkewData]:
    """All candidates with identity kappa passing naturality and the axioms.

    On a thin carrier every natural pick is kept without evaluating its
    axioms: each equates two composites with the same ends, so it holds
    (:func:`~catsset.finmon._thin`), and kappa is the identity.
    """
    cat = _swept_category(carrier, budget)
    thin = _thin(cat)
    picks = ((r, [r.ids[r.unit]], True) for r, _, natural in _category_picks(cat)
             if natural and (thin or all(_witness(r, arity, fn) is None for _, arity, fn in AXIOMS)))
    return [d for d, _ in _as_skew_data(cat, picks)]


@dataclass(frozen=True)
class SweepSummary:
    candidates: int
    natural_candidates: int
    equivalence_holds: bool
    a5_forces_identity_kappa: bool
    a8_a9_pass_with_identity_kappa: bool
    skew_structure_count: int


def sweep_equivalence(
    carrier: "Poset | FinCategory", budget: int = 1_000_000
) -> SweepSummary:
    """Exhaustively verify the pentagon/axiom equivalence over a carrier.

    The search draws only the object tables over which some skew data
    exists: typed, with a unit and with every alpha hom-set non-empty
    (:func:`_object_tensors`), so on a thin carrier each table drawn
    gives one candidate per unit it admits.

    Only natural candidates are evaluated, on the rows of their pick,
    and only their verdicts are kept.  Each condition runs once per input
    it reads: the axioms and A1-A4, which do not read kappa, once per
    pick, A1 being 5.1, before kappa is set on the rows; A5-A9 once per kappa.

    On a thin carrier none is evaluated.  hom(I, I) holds only the
    identity, so each pick has one kappa, the identity, and every
    condition equates two composites with the same ends, so it holds
    (:func:`~catsset.finmon._thin`): each natural pick counts as one skew
    structure and every flag stays true.  The public ``check_*`` functions
    take the same rule (:func:`check_naturality`).
    """
    candidates = 0
    natural = 0
    equivalence = True
    a5_forces = True
    a8_a9 = True
    structures = 0
    cat = _swept_category(carrier, budget)
    thin = _thin(cat)
    kappa_free, with_kappa = PENTAGONS[:_KAPPA_FREE], PENTAGONS[_KAPPA_FREE:]
    once_per_pick = {fn: arity for _, arity, fn in AXIOMS + kappa_free}  # A1 is 5.1: one entry
    for rows, kappas, is_natural in _category_picks(cat):
        candidates += len(kappas)
        if not is_natural:
            continue
        natural += len(kappas)
        if thin:  # its one kappa is the identity, and every condition holds
            structures += 1
            continue
        pick_holds = {fn: _witness(rows, arity, fn) is None for fn, arity in once_per_pick.items()}
        axioms_hold = all([pick_holds[fn] for _, _, fn in AXIOMS])
        kappa_free_hold = all([pick_holds[fn] for _, _, fn in kappa_free])
        for kappa in kappas:
            rows.kappa = kappa
            identity_kappa = kappa == rows.ids[rows.unit]
            holds = {name: _witness(rows, arity, fn) is None for name, arity, fn in with_kappa}
            equivalence &= (kappa_free_hold and all(holds.values())) == (axioms_hold and identity_kappa)
            a5_forces &= identity_kappa or not holds["A5"]
            a8_a9 &= not identity_kappa or holds["A8"] and holds["A9"]
            structures += identity_kappa and axioms_hold
    return SweepSummary(
        candidates=candidates,
        natural_candidates=natural,
        equivalence_holds=equivalence,
        a5_forces_identity_kappa=a5_forces,
        a8_a9_pass_with_identity_kappa=a8_a9,
        skew_structure_count=structures,
    )
