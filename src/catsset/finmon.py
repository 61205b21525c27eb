"""Finite categories by tables, tensor data over them, and monoids.

Tables are label-driven: objects and morphisms are strings, and
composition/tensor are explicit dicts; the tensor laws are read off one
index model of them (:class:`_Rows`).  Structural problems (unknown
labels, ill-typed entries), broken category laws and, for a strict
monoidal structure, broken strict laws raise on construction; the
validators behind those checks list every violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, Mapping, Sequence

from .errors import SchemaError, StructuralError

SCHEMA_VERSION = 1


def check_header(doc: object, kind: str) -> None:
    """Raise SchemaError unless ``doc`` is a JSON object of this kind and version."""
    if not isinstance(doc, Mapping):
        raise SchemaError(f"expected a JSON object of kind {kind!r}, got {type(doc).__name__}")
    if doc.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, got {doc.get('kind')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")


def _require_keys(doc: Mapping, *keys: str) -> None:
    """Raise SchemaError naming the first of ``keys`` that ``doc`` lacks."""
    for key in keys:
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")


def parse_json_text(text: str) -> object:
    """The JSON value in ``text``; SchemaError when it does not parse."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def check_label(value: object, where: str) -> str:
    """``value`` itself if it is a string label; SchemaError naming ``where`` otherwise."""
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string label, got {value!r}")
    return value


def table_rows(doc: Mapping, key: str, shape: str) -> list[list[str]]:
    """The rows of the table ``doc[key]``, each an array of labels as long as ``shape``.

    ``shape`` spells the row for error messages, e.g. ``"[a, b, ab]"``.
    """
    rows = doc[key]
    if not isinstance(rows, list):
        raise SchemaError(f"{key} must be an array of {shape} rows")
    width = shape.count(",") + 1
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise SchemaError(f"{key}[{k}] must be an {shape} array")
        for j, value in enumerate(row):
            if not isinstance(value, str):  # the place is spelled out only for the message
                check_label(value, f"{key}[{k}][{j}]")
    return rows


@dataclass(frozen=True)
class LawViolation:
    law: str
    subject: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.law} at {self.subject}: {self.detail}"


class FinCategory:
    """A finite category: objects, typed morphisms, identities, composition.

    ``compose[(g, f)]`` is g after f.  Construction raises StructuralError on
    labels it cannot place and on any law :func:`validate_category` lists, naming
    the first violation and their number, so every FinCategory is lawful.
    """

    def __init__(
        self,
        objects: Sequence[str],
        morphisms: Sequence[tuple[str, str, str]],
        identities: Mapping[str, str],
        compose: Mapping[tuple[str, str], str],
    ) -> None:
        self._fill(objects, morphisms, identities, compose)
        self._validate_structure()
        _require_laws(validate_category(self))

    @classmethod
    def _trusted(cls, objects, morphisms, identities, compose) -> "FinCategory":
        """A category from tables that are lawful by construction, left unchecked."""
        c = cls.__new__(cls)
        c._fill(objects, morphisms, identities, compose)
        return c

    def _fill(self, objects, morphisms, identities, compose) -> None:
        """Set the tables and the caches as given, unchecked."""
        self.objects = tuple(objects)
        self.morphisms = tuple((str(l), str(s), str(t)) for l, s, t in morphisms)
        self.identities = dict(identities)
        self.composition = dict(compose)
        self._src = {l: s for l, s, _ in self.morphisms}
        self._tgt = {l: t for l, _, t in self.morphisms}
        self._hom: dict[tuple[str, str], tuple[str, ...]] = {}
        self._index = None

    def _validate_structure(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise StructuralError("duplicate object labels")
        labels = [l for l, _, _ in self.morphisms]
        if len(set(labels)) != len(labels):
            raise StructuralError("duplicate morphism labels")
        objset = set(self.objects)
        for l, s, t in self.morphisms:
            if s not in objset or t not in objset:
                raise StructuralError(f"morphism {l!r} has dangling src/tgt")
        if set(self.identities) != objset:
            raise StructuralError("identities must be given for exactly the objects")
        for a, l in self.identities.items():
            if l not in self._src:
                raise StructuralError(f"identity of {a!r} is an unknown morphism")
            if self._src[l] != a or self._tgt[l] != a:
                raise StructuralError(f"identity of {a!r} is not an endomorphism of it")
        for (g, f), h in self.composition.items():
            for l in (g, f, h):
                if l not in self._src:
                    raise StructuralError(f"composition table mentions unknown morphism {l!r}")

    def src(self, f: str) -> str:
        return self._src[f]

    def tgt(self, f: str) -> str:
        return self._tgt[f]

    def id_of(self, a: str) -> str:
        return self.identities[a]

    def is_composable(self, g: str, f: str) -> bool:
        return self._tgt[f] == self._src[g]

    def compose(self, g: str, f: str) -> str:
        """g after f; raises when the pair is not in the table."""
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise StructuralError(f"no composite for ({g!r} after {f!r})") from None

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        key = (a, b)
        if key not in self._hom:
            self._hom[key] = tuple(
                l for l, s, t in self.morphisms if s == a and t == b
            )
        return self._hom[key]

    def morphism_labels(self) -> tuple[str, ...]:
        return tuple(l for l, _, _ in self.morphisms)

    def _indexed(self) -> tuple["_Rows", dict[str, int], dict[str, int]]:
        """This category's rows and the index of each object and morphism label, built once, shared by all over it."""
        if self._index is None:
            base = _Rows.__new__(_Rows)
            self._index = (base, *base._over(self))
        return self._index

    def to_json_dict(self) -> dict:
        return {
            "objects": list(self.objects),
            "morphisms": [
                {"label": l, "src": s, "tgt": t} for l, s, t in self.morphisms
            ],
            "identities": {a: self.identities[a] for a in self.objects},
            "compose": [
                [g, f, h] for (g, f), h in sorted(self.composition.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "FinCategory":
        _require_keys(doc, "objects", "morphisms", "identities", "compose")
        objects = doc["objects"]
        if not isinstance(objects, list):
            raise SchemaError("objects must be an array of labels")
        for k, a in enumerate(objects):
            check_label(a, f"objects[{k}]")
        if not isinstance(doc["morphisms"], list):
            raise SchemaError("morphisms must be an array of objects")
        morphisms = []
        for k, entry in enumerate(doc["morphisms"]):
            if not isinstance(entry, Mapping):
                raise SchemaError(f"morphisms[{k}] must be an object")
            for fld in ("label", "src", "tgt"):
                if fld not in entry:
                    raise SchemaError(f"morphisms[{k}] missing field {fld!r}")
                check_label(entry[fld], f"morphisms[{k}].{fld}")
            morphisms.append((entry["label"], entry["src"], entry["tgt"]))
        identities = doc["identities"]
        if not isinstance(identities, Mapping):
            raise SchemaError("identities must be an object mapping objects to morphisms")
        for a, f in identities.items():
            check_label(f, f"identities[{a!r}]")
        compose = {(g, f): h for g, f, h in table_rows(doc, "compose", "[g, f, gof]")}
        return cls(objects, morphisms, identities, compose)


def _into(c: FinCategory) -> dict[str, list[str]]:
    """The morphisms into each object of ``c``, in declared order."""
    into = {a: [] for a in c.objects}
    for f, _, t in c.morphisms:
        into[t].append(f)
    return into


def validate_category(c: FinCategory) -> list[LawViolation]:
    """Identity and associativity laws plus exactness of the composition table.

    Only composable pairs are visited: each g meets the morphisms into its source, in declared order.
    """
    bad: list[LawViolation] = []
    comp, mors, into = c.composition, c.morphism_labels(), _into(c)
    for (g, f) in comp:
        if not c.is_composable(g, f):
            bad.append(
                LawViolation("composability", (g, f), "table entry for a non-composable pair")
            )
    for g in mors:
        for f in into[c.src(g)]:
            if (g, f) not in comp:
                bad.append(
                    LawViolation("composability", (g, f), "composable pair missing from table")
                )
    for f in mors:
        left = comp.get((c.id_of(c.tgt(f)), f))
        right = comp.get((f, c.id_of(c.src(f))))
        if left != f:
            bad.append(LawViolation("left identity", (f,), f"id . {f} = {left}"))
        if right != f:
            bad.append(LawViolation("right identity", (f,), f"{f} . id = {right}"))
    for h in mors:
        for g in into[c.src(h)]:
            hg = comp.get((h, g))
            if hg is None:
                continue
            for f in into[c.src(g)]:
                gf = comp.get((g, f))
                if gf is None:
                    continue
                left, right = comp.get((hg, f)), comp.get((h, gf))
                if left != right:
                    bad.append(
                        LawViolation("associativity", (h, g, f), f"(h.g).f = {left}, h.(g.f) = {right}")
                    )
    return bad


def _thin(cat: FinCategory) -> bool:
    """Whether every hom-set of ``cat`` has at most one morphism.

    If so, an equation between two composites with the same ends holds
    unevaluated.  Every FinCategory is lawful, so its composites are typed:
    were g o f = k with the wrong target, (id o g) o f = k would differ from
    id o k, which the exact table leaves undefined (dually for the source),
    so the two sides are parallel, and a thin category has one such morphism.
    Every check of a law that equates parallel composites reads this rule:
    the interchange of :func:`tensor_violations`, the strict morphism laws
    of :func:`validate_strict_monoidal`, the nerve's level 3, the skew
    sweeps and the public skew checks, whose typed input makes each
    naturality square, axiom and pentagon such an equation
    (:func:`~catsset.skew.check_naturality`).
    """
    return cat._indexed()[0].thin


class _Rows:
    """Tensor data as nested lists of indices into its sorted objects ``objs`` and morphisms ``mors``.

    From the category's rows (:meth:`FinCategory._indexed`): ``comp[g][f]`` (g after f, -1 where they
    do not compose), ``ids``, ``src``, ``tgt``, ``declared`` and ``declared_objs`` (morphisms and
    objects in declared order), ``thin`` and, on first read, ``hom[a][b]`` (the morphisms a -> b in
    declared order).  ``t``, ``tm`` and ``unit`` are the tensors (-1 in an undefined cell) and the
    unit; skew data's rows also hold ``alpha``, ``lam`` and ``rho`` (None where a table has no entry,
    -1 where it names no morphism), and the pentagon route's copy alone ``kappa``.  A structure's
    constructor builds its rows once, rejecting labels outside the category (``_TensorData._rows``);
    its checks share them and the witnesses kept on them (``kept``, by condition function).
    """

    __slots__ = ("thin", "objs", "mors", "comp", "ids", "src", "tgt", "declared", "declared_objs",
                 "t", "tm", "alpha", "lam", "rho", "unit", "kappa", "kept", "__dict__")

    def __init__(self, d: "_TensorData") -> None:
        base, obj, mor = d.category._indexed()
        self._share(base)
        self.unit, self.kept = obj.get(d.unit), {}
        if self.unit is None:
            raise StructuralError(f"unit {d.unit!r} is not an object")
        self.t = self._tensor(obj, d.obj_tensor, "object")
        self.tm = self._tensor(mor, d.mor_tensor, "morphism")
        if hasattr(d, "alpha"):
            at, alpha, objs = {**mor, None: None}.get, d.alpha.get, self.objs
            self.alpha = [[[at(alpha((a, b, c)), -1) for c in objs] for b in objs] for a in objs]
            self.lam, self.rho = [at(d.lam.get(a), -1) for a in objs], [at(d.rho.get(a), -1) for a in objs]

    @staticmethod
    def _tensor(index: dict[str, int], table: Mapping[tuple[str, str], str], kind: str) -> list[list[int]]:
        """The index rows of a tensor table over the labels ``index`` numbers; StructuralError on any other label."""
        rows = [[-1] * len(index) for _ in index]
        try:
            for (x, y), v in table.items():
                rows[index[x]][index[y]] = index[v]
        except KeyError:
            raise StructuralError(f"{kind} tensor dangles on ({x!r}, {y!r})") from None
        return rows

    def _over(self, c: FinCategory) -> tuple[dict[str, int], dict[str, int]]:
        """Set the fields of the category ``c``; the index of each object and each morphism label."""
        objs = self.objs = sorted(c.objects)
        mors = self.mors = sorted(c._src)
        obj, mor = {a: k for k, a in enumerate(objs)}, {f: k for k, f in enumerate(mors)}
        self.ids = [mor[c.identities[a]] for a in objs]
        self.declared, self.declared_objs = [mor[f] for f, _, _ in c.morphisms], [obj[a] for a in c.objects]
        self.src, self.tgt = [obj[c._src[f]] for f in mors], [obj[c._tgt[f]] for f in mors]
        self.thin = len(set(zip(self.src, self.tgt))) == len(mors)
        comp = self.comp = [[-1] * len(mors) for _ in mors]
        for (g, f), gf in c.composition.items():
            comp[mor[g]][mor[f]] = mor[gf]
        return obj, mor

    @cached_property
    def hom(self) -> list[list[list[int]]]:
        hom = [[[] for _ in self.objs] for _ in self.objs]
        for f in self.declared:
            hom[self.src[f]][self.tgt[f]].append(f)
        return hom

    def _share(self, base: "_Rows") -> None:
        """Take the category's fields from the rows ``base``, shared, not copied."""
        self.objs, self.mors, self.comp, self.ids = base.objs, base.mors, base.comp, base.ids
        self.src, self.tgt, self.declared, self.declared_objs = base.src, base.tgt, base.declared, base.declared_objs

    def _pick(self, t, tm, unit: int, alpha, lam, rho) -> "_Rows":
        """Rows over this category's fields with the given tables, all shared, not copied."""
        r = _Rows.__new__(_Rows)
        r._share(self)
        r.t, r.tm, r.unit, r.alpha, r.lam, r.rho = t, tm, unit, alpha, lam, rho
        return r


def _composites(r: _Rows) -> list[tuple[int, int, int]]:
    """Each composable (g, f, g o f) of a lawful category's rows, g and then f in declared order."""
    into = [[] for _ in r.objs]
    for f in r.declared:
        into[r.tgt[f]].append(f)
    return [(g, f, r.comp[g][f]) for g in r.declared for f in into[r.src[g]]]


def _paths_agree(comp: list[list[int]], left: Sequence[int], right: Sequence[int]) -> bool:
    """Whether two paths of morphism indices, first morphism applied first, have one composite."""
    steps = iter(left)
    x = next(steps)
    for f in steps:
        x = comp[f][x]
    steps = iter(right)
    y = next(steps)
    for f in steps:
        y = comp[f][y]
    return x == y


def tensor_violations(m: _TensorData) -> Iterator[LawViolation]:
    """The ways the tensor tables of ``m`` fail to be a bifunctor, lazily, in check order.

    Read off the index rows its construction filled, having rejected labels outside the category,
    in declared order: totality of the object table, then totality and typing of the morphism
    table, read once the object table is total, then, once both are total and typed, tensors of
    identities and interchange.  The category is lawful, so every composable pair has its
    composite, and interchange is skipped where it cannot fail: in a thin category (:func:`_thin`).
    """
    r = m._rows
    objs, mors, t, tm, src, tgt, ids, declared = r.objs, r.mors, r.t, r.tm, r.src, r.tgt, r.ids, r.declared
    holes = [(objs[a], objs[b]) for a in r.declared_objs for b in r.declared_objs if t[a][b] < 0]
    yield from (LawViolation("tensor totality", hole, f"object tensor undefined on {hole!r}") for hole in holes)
    if holes:
        return
    clean = True
    for f in declared:
        row, sources, targets = tm[f], t[src[f]], t[tgt[f]]
        for g in declared:
            v = row[g]
            if v < 0:
                law, what = "tensor totality", "undefined"
            elif src[v] != sources[src[g]] or tgt[v] != targets[tgt[g]]:
                law, what = "tensor typing", "ill-typed"
            else:
                continue
            clean = False
            yield LawViolation(law, (mors[f], mors[g]), f"morphism tensor {what} on {(mors[f], mors[g])!r}")
    if not clean:
        return
    for a in r.declared_objs:
        for b in r.declared_objs:
            if tm[ids[a]][ids[b]] != ids[t[a][b]]:
                detail = f"tensor of identities at {(objs[a], objs[b])!r} is not an identity"
                yield LawViolation("identity tensor", (objs[a], objs[b]), detail)
    # both sides of an interchange cell are parallel, so in a thin category no cell can fail
    # (nor can an identity tensor above)
    if _thin(m.category):
        return
    comp, composites = r.comp, _composites(r)
    for g, f, gf in composites:
        for g2, f2, g2f2 in composites:
            if tm[gf][g2f2] != comp[tm[g][g2]][tm[f][f2]]:
                detail = f"interchange fails on {(mors[g], mors[f])!r} x {(mors[g2], mors[f2])!r}"
                yield LawViolation("interchange", (mors[g], mors[f], mors[g2], mors[f2]), detail)


def _constraint_typing(r: _Rows, alpha, lam, rho) -> Iterator[LawViolation]:
    """Each component of alpha, then of lambda and rho, outside the hom-set of its ends, in declared order:
    alpha at (a, b, c) in hom((a(x)b)(x)c, a(x)(b(x)c)), lambda at a in hom(I(x)a, a) and rho at a in
    hom(a, a(x)I), over total tensor rows.  A violation's detail is the message skew data raises on it."""
    objs, t, src, tgt, u, declared = r.objs, r.t, r.src, r.tgt, r.unit, r.declared_objs
    for a in declared:
        for b in declared:
            ab = t[a][b]
            for c in declared:
                f = alpha[a][b][c]
                if f is not None and f >= 0 and src[f] == t[ab][c] and tgt[f] == t[a][t[b][c]]:
                    continue
                at = (objs[a], objs[b], objs[c])
                detail = f"alpha undefined at {at!r}" if f is None else f"alpha component at {at!r} is ill-typed"
                yield LawViolation("alpha typing", at, detail)
    for a in declared:
        f = lam[a]
        if f is None or f < 0 or src[f] != t[u][a] or tgt[f] != a:
            yield LawViolation("lambda typing", (objs[a],), f"lambda component at {objs[a]!r} is missing or ill-typed")
        f = rho[a]
        if f is None or f < 0 or src[f] != a or tgt[f] != t[a][u]:
            yield LawViolation("rho typing", (objs[a],), f"rho component at {objs[a]!r} is missing or ill-typed")


def _alpha_unnatural(r: _Rows, tm, alpha) -> Iterator[tuple]:
    """Each morphism triple, in declared order, where alpha is not natural, with the two composites."""
    comp, src, tgt = r.comp, r.src, r.tgt
    for f in r.declared:
        for g in r.declared:
            fg = tm[f][g]
            for h in r.declared:
                left = comp[alpha[tgt[f]][tgt[g]][tgt[h]]][tm[fg][h]]
                right = comp[tm[f][tm[g][h]]][alpha[src[f]][src[g]][src[h]]]
                if left != right:
                    yield "alpha", (f, g, h), left, right


def _unitors_unnatural(r: _Rows, tm, unit: int, lam, rho) -> Iterator[tuple]:
    """Each morphism, in declared order, where lambda or rho is not natural, with the two composites."""
    comp, src, tgt, idu = r.comp, r.src, r.tgt, r.ids[unit]
    for f in r.declared:
        left, right = comp[lam[tgt[f]]][tm[idu][f]], comp[f][lam[src[f]]]
        if left != right:
            yield "lambda", (f,), left, right
        left, right = comp[tm[f][idu]][rho[src[f]]], comp[rho[tgt[f]]][f]
        if left != right:
            yield "rho", (f,), left, right


def _naturality_violations(r: _Rows, alpha, lam, rho) -> Iterator[LawViolation]:
    """Naturality of alpha, then of lambda and rho, as violations; a side with no composite (-1) reads None."""
    mors, names = r.mors, (*r.mors, None)
    for law, fs, left, right in chain(_alpha_unnatural(r, r.tm, alpha), _unitors_unnatural(r, r.tm, r.unit, lam, rho)):
        yield LawViolation(f"{law} naturality", tuple(mors[f] for f in fs), f"{names[left]} != {names[right]}")


class _TensorData:
    """A finite category with a tensor and unit, all by tables, whatever laws they keep.

    The body that :class:`FinMonoidalStructure` and ``skew.SkewData`` share:
    construction builds the index rows ``_rows`` (:class:`_Rows`; data built
    unchecked builds them on first read), rejecting labels outside the
    category, and each subclass checks the laws of its own kind on them,
    totality of both tensors included, so the accessors read by subscript;
    both documents read and write the shared keys with this code.
    """

    KIND: str
    _rows = cached_property(lambda self: _Rows(self))

    def __init__(
        self,
        category: FinCategory,
        obj_tensor: Mapping[tuple[str, str], str],
        mor_tensor: Mapping[tuple[str, str], str],
        unit: str,
    ) -> None:
        self.category = category
        self.obj_tensor = dict(obj_tensor)
        self.mor_tensor = dict(mor_tensor)
        self.unit = unit
        self._rows = _Rows(self)

    def tensor_obj(self, a: str, b: str) -> str:
        return self.obj_tensor[(a, b)]

    def tensor_mor(self, f: str, g: str) -> str:
        return self.mor_tensor[(f, g)]

    def to_json_dict(self) -> dict:
        doc = {"schema_version": SCHEMA_VERSION, "kind": self.KIND}
        doc.update(self.category.to_json_dict())
        doc["obj_tensor"] = [[a, b, v] for (a, b), v in sorted(self.obj_tensor.items())]
        doc["mor_tensor"] = [[f, g, v] for (f, g), v in sorted(self.mor_tensor.items())]
        doc["unit"] = self.unit
        return doc

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def _fields_from_json(cls, doc: Mapping) -> tuple:
        """The constructor arguments in ``doc``, checked for shape only."""
        category = FinCategory.from_json_dict(doc)
        _require_keys(doc, "obj_tensor", "mor_tensor", "unit")
        obj_tensor = {(a, b): v for a, b, v in table_rows(doc, "obj_tensor", "[a, b, ab]")}
        mor_tensor = {(f, g): v for f, g, v in table_rows(doc, "mor_tensor", "[f, g, fg]")}
        return category, obj_tensor, mor_tensor, check_label(doc["unit"], "unit")

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "_TensorData":
        check_header(doc, cls.KIND)
        try:
            return cls(*cls._fields_from_json(doc))
        except StructuralError as exc:
            raise SchemaError(str(exc)) from exc

    @classmethod
    def from_json_text(cls, text: str) -> "_TensorData":
        return cls.from_json_dict(parse_json_text(text))


class FinMonoidalStructure(_TensorData):
    """A finite strict monoidal category by tables: skew data whose constraints are identities.

    Construction raises StructuralError on labels outside the category and
    on any law :func:`validate_strict_monoidal` lists, naming the first
    violation and their number, so every FinMonoidalStructure is strict
    monoidal and no later reader checks it again.  A loader raises the same
    message as a SchemaError.
    """

    KIND = "strict_monoidal"

    def __init__(
        self,
        category: FinCategory,
        obj_tensor: Mapping[tuple[str, str], str],
        mor_tensor: Mapping[tuple[str, str], str],
        unit: str,
    ) -> None:
        super().__init__(category, obj_tensor, mor_tensor, unit)
        _require_laws(validate_strict_monoidal(self))


def _require_laws(problems: list[LawViolation]) -> None:
    """Raise StructuralError naming the first of ``problems`` and their number, if there are any."""
    if problems:
        raise StructuralError(f"structure violates the laws: {problems[0]} ({len(problems)} total)")


def validate_strict_monoidal(m: _TensorData) -> list[LawViolation]:
    """The tensor data ``m`` checked as skew data whose alpha, lambda and rho are identities.

    A strict structure is that skew data with natural constraints, each violation named as it names
    it: :func:`tensor_violations`, then, once the tensor is a bifunctor, the typing of the
    constraints (``alpha typing``, ...: the object laws) and their naturality (``alpha naturality``,
    ...: the morphism laws), skipped where it cannot fail: in a thin category (:func:`_thin`), with
    nothing found before it.  Its one caller in the package, the :class:`FinMonoidalStructure`
    constructor, raises on the first violation, so a built structure has none.
    """
    bad = list(tensor_violations(m))
    if bad:
        return bad
    r, ids = m._rows, m._rows.ids
    # alpha at (a, b, c) is the identity of (a(x)b)(x)c; lambda and rho at a, of a
    id_rows = [[ids[v] for v in row] for row in r.t]
    alpha = [[id_rows[ab] for ab in row] for row in r.t]
    bad = list(_constraint_typing(r, alpha, ids, ids))
    if bad or not _thin(m.category):
        bad += _naturality_violations(r, alpha, ids, ids)
    return bad


@dataclass(frozen=True)
class Poset:
    """A finite partial order; ``leq`` holds all pairs (a, b) with a <= b."""

    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "leq", frozenset(tuple(p) for p in self.leq))
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise StructuralError("duplicate elements")
        for a, b in self.leq:
            if a not in elems or b not in elems:
                raise StructuralError(f"order pair ({a!r}, {b!r}) dangles")
        for a in elems:
            if (a, a) not in self.leq:
                raise StructuralError(f"order is not reflexive at {a!r}")
        up = {a: set() for a in elems}
        for a, b in self.leq:
            up[a].add(b)
        for a, b in self.leq:
            if a != b and (b, a) in self.leq:
                raise StructuralError(f"order is not antisymmetric on ({a!r}, {b!r})")
            if not up[b] <= up[a]:
                raise StructuralError(f"order is not transitive via {b!r}")


def chain_poset(labels: Sequence[str]) -> Poset:
    """The total order on ``labels`` in the given sequence order."""
    n = len(labels)
    leq = frozenset(
        (labels[i], labels[j]) for i in range(n) for j in range(i, n)
    )
    return Poset(tuple(labels), leq)


def antichain_poset(labels: Sequence[str]) -> Poset:
    return Poset(tuple(labels), frozenset((a, a) for a in labels))


@dataclass(frozen=True)
class MonoidalPoset:
    """A poset with a monotone, associative, strictly unital tensor.

    Construction builds the strict structure once, for :func:`poset_as_category`, whose
    constructor raises StructuralError unless it is strict monoidal; a non-monotone table
    leaves some (a <= b) (x) (c <= d) without a witness, which it rejects.
    """

    poset: Poset
    tensor: Mapping[tuple[str, str], str]
    unit: str
    _structure: FinMonoidalStructure = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tensor", dict(self.tensor))
        m = FinMonoidalStructure(
            poset_category(self.poset), self.tensor, poset_mor_tensor(self.poset, self.tensor), self.unit
        )
        object.__setattr__(self, "_structure", m)


def leq_label(a: str, b: str) -> str:
    return f"{a}<={b}"


def poset_category(p: Poset) -> FinCategory:
    """The category with one morphism a -> b for each a <= b, built unchecked: an order's
    reflexivity and transitivity give its identities and composites, which are lawful."""
    morphisms = [(leq_label(a, b), a, b) for a, b in sorted(p.leq)]
    identities = {a: leq_label(a, a) for a in p.elements}
    compose = {}
    for b, c in sorted(p.leq):
        for a, b2 in sorted(p.leq):
            if b2 == b:
                compose[(leq_label(b, c), leq_label(a, b))] = leq_label(a, c)
    return FinCategory._trusted(sorted(p.elements), morphisms, identities, compose)


def poset_mor_tensor(p: Poset, tensor: Mapping[tuple[str, str], str]) -> dict[tuple[str, str], str]:
    """The tensor on order witnesses: (a <= b) (x) (c <= d) is ac <= bd, where both are defined."""
    return {
        (leq_label(a, b), leq_label(c, d)): leq_label(tensor[(a, c)], tensor[(b, d)])
        for a, b in p.leq
        for c, d in p.leq
        if (a, c) in tensor and (b, d) in tensor
    }


def poset_as_category(mp: MonoidalPoset) -> FinMonoidalStructure:
    """A monoidal poset as a strict monoidal category by tables, the one its construction checked."""
    return mp._structure


@dataclass(frozen=True)
class MonoidObject:
    """A carrier with multiplication and unit morphisms satisfying the monoid laws."""

    carrier: str
    mu: str
    eta: str


def monoid_laws_hold(m: FinMonoidalStructure, a: str, mu: str, eta: str) -> bool:
    """Associativity and both unit laws, evaluated from the tables."""
    r = m._rows
    return _monoid_laws(r, r.objs.index(a), r.mors.index(mu), r.mors.index(eta))


def _monoid_laws(r: _Rows, a: int, mu: int, eta: int) -> bool:
    """:func:`monoid_laws_hold` on the index rows: mu.(mu(x)1) = mu.(1(x)mu) and mu.(eta(x)1) = 1 = mu.(1(x)eta)."""
    comp, tm, ida = r.comp, r.tm, r.ids[a]
    return (
        _paths_agree(comp, [tm[mu][ida], mu], [tm[ida][mu], mu])
        and _paths_agree(comp, [tm[eta][ida], mu], [ida])
        and _paths_agree(comp, [tm[ida][eta], mu], [ida])
    )


def enumerate_monoids(m: FinMonoidalStructure) -> list[MonoidObject]:
    """All (carrier, mu, eta) triples passing the three monoid laws.

    Enumeration order is lexicographic in (carrier, mu, eta) labels, so
    output listings are reproducible: the rows number labels in their order.
    """
    r = m._rows
    objs, mors, t, hom = r.objs, r.mors, r.t, r.hom
    return [
        MonoidObject(objs[a], mors[mu], mors[eta])
        for a in range(len(objs))
        for mu in sorted(hom[t[a][a]][a])
        for eta in sorted(hom[r.unit][a])
        if _monoid_laws(r, a, mu, eta)
    ]
