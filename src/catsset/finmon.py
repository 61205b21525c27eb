"""Finite categories by tables, tensor data over them, and monoids.

Everything is label-driven: objects and morphisms are strings, and
composition/tensor are explicit dicts.  Structural problems (unknown
labels, ill-typed entries), broken category laws and, for a strict
monoidal structure, broken strict laws raise on construction; the
validators behind those checks list every violation, so faults can be
listed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    the interchange of :func:`tensor_violations`, the nerve's level 3, the
    skew sweeps and the public skew checks, whose typed input makes each
    naturality square, axiom and pentagon such an equation
    (:func:`~catsset.skew.check_naturality`).
    """
    return len({(s, t) for _, s, t in cat.morphisms}) == len(cat.morphisms)


def tensor_violations(m: _TensorData) -> Iterator[LawViolation]:
    """The ways the tensor tables of ``m`` fail to be a bifunctor, lazily, in check order.

    Construction of ``m`` has rejected labels outside its category, so
    an entry is only ever missing or ill-typed.  Checked in order:
    totality of the object table, then totality and typing of the
    morphism table, then tensors of identities, then interchange.  The
    morphism table is read only once the object table is total, and the
    rest only once the morphism table is total and typed.  The category
    is lawful, so every composable pair has its composite, and
    interchange is skipped where it cannot fail: in a thin category
    (:func:`_thin`).
    """
    cat, obj_tensor, mor_tensor = m.category, m.obj_tensor, m.mor_tensor
    objs = cat.objects
    mors = cat.morphism_labels()
    clean = True
    for a in objs:
        for b in objs:
            if (a, b) not in obj_tensor:
                clean = False
                yield LawViolation("tensor totality", (a, b), f"object tensor undefined on {(a, b)!r}")
    if not clean:
        return
    ends = {f: (cat.src(f), cat.tgt(f)) for f in mors}
    for f in mors:
        sf, tf = ends[f]
        for g in mors:
            sg, tg = ends[g]
            v = mor_tensor.get((f, g))
            if v is None:
                law, what = "tensor totality", "undefined"
            elif ends[v] != (obj_tensor[(sf, sg)], obj_tensor[(tf, tg)]):
                law, what = "tensor typing", "ill-typed"
            else:
                continue
            clean = False
            yield LawViolation(law, (f, g), f"morphism tensor {what} on {(f, g)!r}")
    if not clean:
        return
    for a in objs:
        for b in objs:
            if mor_tensor[(cat.id_of(a), cat.id_of(b))] != cat.id_of(obj_tensor[(a, b)]):
                detail = f"tensor of identities at {(a, b)!r} is not an identity"
                yield LawViolation("identity tensor", (a, b), detail)
    # both sides of an interchange cell are parallel, so in a thin category no cell can fail
    # (nor can an identity tensor above)
    if _thin(cat):
        return
    into, comp = _into(cat), cat.composition
    composites = [(g, f, comp[g, f]) for g in mors for f in into[cat.src(g)]]
    for g, f, gf in composites:
        for g2, f2, g2f2 in composites:
            if mor_tensor[(gf, g2f2)] != comp[mor_tensor[(g, g2)], mor_tensor[(f, f2)]]:
                detail = f"interchange fails on {(g, f)!r} x {(g2, f2)!r}"
                yield LawViolation("interchange", (g, f, g2, f2), detail)


class _TensorData:
    """A finite category with a tensor and unit, all by tables, whatever laws they keep.

    The body that :class:`FinMonoidalStructure` and ``skew.SkewData`` share:
    construction rejects labels outside the category, and each subclass
    checks the laws of its own kind, totality of both tensors included, so
    the accessors read by subscript; both documents read and write the
    shared keys with this code.
    """

    KIND: str

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
        objset = set(category.objects)
        morset = set(category.morphism_labels())
        if unit not in objset:
            raise StructuralError(f"unit {unit!r} is not an object")
        for (a, b), v in self.obj_tensor.items():
            if a not in objset or b not in objset or v not in objset:
                raise StructuralError(f"object tensor dangles on ({a!r}, {b!r})")
        for (f, g), v in self.mor_tensor.items():
            if f not in morset or g not in morset or v not in morset:
                raise StructuralError(f"morphism tensor dangles on ({f!r}, {g!r})")

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
    """A finite strict monoidal category by tables; its constraints are identities.

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
    """Bifunctoriality and strict associativity/unitality of the tensor data ``m``.

    Its one caller in the package is the :class:`FinMonoidalStructure`
    constructor, which raises on the first violation listed, so on a built
    structure this returns [].  Every bifunctor violation is listed; the
    strict laws are read off the tables only once the tensor is a
    bifunctor.  The morphism-level laws are skipped where they cannot fail:
    in a thin category (:func:`_thin`), with no violation found before them.
    """
    c = m.category
    bad = list(tensor_violations(m))
    if bad:
        return bad
    # both tensors are total and typed now, so the laws read them by subscript
    objs, t = c.objects, m.obj_tensor
    mors, tm = c.morphism_labels(), m.mor_tensor
    for a in objs:
        if t[m.unit, a] != a or t[a, m.unit] != a:
            bad.append(LawViolation("strict unit", (a,), "unit does not act trivially"))
        for b in objs:
            for cc in objs:
                if t[t[a, b], cc] != t[a, t[b, cc]]:
                    bad.append(
                        LawViolation("strict associativity", (a, b, cc), "object tensor")
                    )
    unit_id = c.id_of(m.unit)
    # once the object laws hold, both sides of a morphism-law cell are parallel, so in a
    # thin category no cell can fail
    if bad or not _thin(c):
        for f in mors:
            if tm[unit_id, f] != f or tm[f, unit_id] != f:
                bad.append(LawViolation("strict unit", (f,), "unit identity does not act trivially"))
            for g in mors:
                fg = tm[f, g]
                for h in mors:
                    if tm[fg, h] != tm[f, tm[g, h]]:
                        bad.append(LawViolation("strict associativity", (f, g, h), "morphism tensor"))
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
    c = m.category
    ida = c.id_of(a)
    if c.compose(mu, m.tensor_mor(mu, ida)) != c.compose(mu, m.tensor_mor(ida, mu)):
        return False
    if c.compose(mu, m.tensor_mor(eta, ida)) != ida:
        return False
    if c.compose(mu, m.tensor_mor(ida, eta)) != ida:
        return False
    return True


def enumerate_monoids(m: FinMonoidalStructure) -> list[MonoidObject]:
    """All (carrier, mu, eta) triples passing the three monoid laws.

    Enumeration order is lexicographic in (carrier, mu, eta) labels, so
    output listings are reproducible.
    """
    out = []
    c = m.category
    for a in sorted(c.objects):
        for mu in sorted(c.hom(m.tensor_obj(a, a), a)):
            for eta in sorted(c.hom(m.unit, a)):
                if monoid_laws_hold(m, a, mu, eta):
                    out.append(MonoidObject(a, mu, eta))
    return out
