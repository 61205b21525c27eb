import hashlib
from itertools import product
from pathlib import Path

import pytest

from catsset import skew
from catsset.errors import BudgetExceededError, SchemaError, StructuralError
from catsset.classify import classify_maps
from catsset.dyck import FREE_EDGE, dimension, ez_decompose, face
from catsset.finmon import (
    FinCategory,
    FinMonoidalStructure,
    LawViolation,
    MonoidalPoset,
    Poset,
    _TensorData,
    antichain_poset,
    chain_poset,
    poset_as_category,
    poset_category,
    validate_strict_monoidal,
)
from catsset.library import boolean_or, chain3_max, zmonoid, zmonoid_category
from catsset.motzkin import dyck_to_motzkin
from catsset.nerve import monoidal_nerve
from catsset.sset import catalan_sset
from catsset.skew import (
    PENTAGONS,
    SkewData,
    SweepSummary,
    check_axioms,
    check_naturality,
    check_pentagons,
    enumerate_skew_structures,
    is_monoidal,
    skew_candidates,
    skew_from_strict,
    sweep_equivalence,
    verify_equivalence,
    _category_candidates,
)


def test_strict_boolean_structure_passes_everything():
    d = skew_from_strict(boolean_or())
    assert check_naturality(d) == []
    assert check_axioms(d).all_hold
    assert check_pentagons(d).all_hold
    assert verify_equivalence(d)


def test_skew_from_strict_is_the_checked_skew_data(library):
    # the trusted build gives the tables the checking constructor accepts, with identity
    # constraints, for every kappa in hom(I, I), and rejects any other kappa as the constructor does
    for name, m in library.items():
        c, t = m.category, m.obj_tensor
        alpha = {(a, b, e): c.id_of(t[t[a, b], e]) for a in c.objects for b in c.objects for e in c.objects}
        for kappa in (None, *c.hom(m.unit, m.unit)):
            d = skew_from_strict(m, kappa)
            checked = SkewData(c, t, m.mor_tensor, m.unit, alpha, c.identities, c.identities, kappa)
            assert type(d) is SkewData and d.category is c, (name, kappa)
            assert _fields(d) == _fields(checked), (name, kappa)
            assert d.to_json_text() == checked.to_json_text(), (name, kappa)
        for kappa in (*(f for f in c.morphism_labels() if f not in c.hom(m.unit, m.unit)), "ghost"):
            with pytest.raises(StructuralError) as exc:
                skew_from_strict(m, kappa)
            assert str(exc.value) == "kappa must be an endomorphism of the unit", (name, kappa)


def test_chain3_min_with_top_unit_is_skew_and_monoidal():
    elems = ["0", "1", "2"]
    tensor = {(a, b): min(a, b) for a in elems for b in elems}
    m = poset_as_category(MonoidalPoset(chain_poset(elems), tensor, "2"))
    d = skew_from_strict(m)
    assert check_naturality(d) == []
    assert check_axioms(d).all_hold
    # every constraint component is an identity here
    assert is_monoidal(d)


def test_monoidal_scan_results():
    # fixed by the first verified run: all components of these are identities
    assert is_monoidal(skew_from_strict(boolean_or()))
    assert is_monoidal(skew_from_strict(chain3_max()))
    assert is_monoidal(skew_from_strict(zmonoid()))


def test_kappa_z_breaks_the_fifth_pentagon():
    d = skew_from_strict(zmonoid(), kappa="z")
    report = check_pentagons(d)
    assert not report.result("A5").holds
    assert report.result("A1").holds
    # both sides of the equivalence fail consistently
    assert verify_equivalence(d)


def test_identity_components_on_zmonoid_are_natural():
    d = skew_from_strict(zmonoid())
    assert check_naturality(d) == []
    assert check_axioms(d).all_hold


def test_wrong_component_target_is_structural():
    m = boolean_or()
    d = skew_from_strict(m)
    lam = dict(d.lam)
    lam["top"] = "bot<=top"  # target bot<=top : bot -> top, source is wrong
    with pytest.raises(StructuralError):
        SkewData(
            m.category, d.obj_tensor, d.mor_tensor, d.unit, d.alpha, lam, d.rho
        )


def test_unit_roundtrip_is_not_enforced():
    # a retraction r/l with idempotent e = r.l lets the unit object differ
    # from its self-tensor; the axioms still pass while rho_I . lambda_I = e
    mors = {
        "1x": ("x", "x"),
        "1y": ("y", "y"),
        "r": ("x", "y"),
        "l": ("y", "x"),
        "e": ("y", "y"),
    }
    compose = {
        ("1x", "1x"): "1x", ("l", "r"): "1x", ("1y", "1y"): "1y",
        ("r", "l"): "e", ("e", "e"): "e", ("e", "r"): "r", ("l", "e"): "l",
        ("r", "1x"): "r", ("1y", "r"): "r", ("l", "1y"): "l", ("1x", "l"): "l",
        ("e", "1y"): "e", ("1y", "e"): "e",
    }
    cat = FinCategory(
        ["x", "y"],
        [(k, s, t) for k, (s, t) in mors.items()],
        {"x": "1x", "y": "1y"},
        compose,
    )
    objs = ["x", "y"]
    d = SkewData(
        cat,
        {(a, b): "y" for a in objs for b in objs},
        {(f, g): "1y" for f in mors for g in mors},
        "x",
        {(a, b, c): "1y" for a in objs for b in objs for c in objs},
        {"x": "l", "y": "1y"},
        {"x": "r", "y": "1y"},
    )
    assert check_axioms(d).all_hold
    assert cat.compose("r", "l") == "e" != "1y"


def test_constant_top_tensor_is_not_representable():
    # with unit bot, the left-unit component at bot would need a morphism
    # top -> bot, so no total component table exists for this tensor
    m = boolean_or()
    const_top = {(a, b): "top" for a in ("bot", "top") for b in ("bot", "top")}
    mor_const = {
        (f, g): "top<=top"
        for f in m.category.morphism_labels()
        for g in m.category.morphism_labels()
    }
    alpha = {
        (a, b, c): "top<=top"
        for a in ("bot", "top")
        for b in ("bot", "top")
        for c in ("bot", "top")
    }
    lam = {"bot": "top<=top", "top": "top<=top"}  # no candidate exists at bot
    rho = {"bot": "bot<=top", "top": "top<=top"}
    with pytest.raises(StructuralError):
        SkewData(m.category, const_top, mor_const, "bot", alpha, lam, rho)


def test_single_element_poset_has_one_structure():
    structures = enumerate_skew_structures(chain_poset(["x"]))
    assert len(structures) == 1


def test_chain2_structure_count():
    structures = enumerate_skew_structures(chain_poset(["0", "1"]))
    # fixed by the first verified sweep
    assert len(structures) == 4
    tensors = {tuple(sorted(d.obj_tensor.items())) + (d.unit,) for d in structures}
    join = (
        (("0", "0"), "0"),
        (("0", "1"), "1"),
        (("1", "0"), "1"),
        (("1", "1"), "1"),
        "0",
    )
    assert join in tensors


def test_zmonoid_structure_count():
    structures = enumerate_skew_structures(zmonoid_category())
    # fixed by the first verified sweep: only the strict identity structure
    assert len(structures) == 1
    d = structures[0]
    assert set(d.alpha.values()) == {"1"} and set(d.lam.values()) == {"1"}


@pytest.mark.parametrize("carrier_name", ("chain2", "zmonoid"))
def test_sweep_equivalence(carrier_name):
    carrier = (
        chain_poset(["0", "1"]) if carrier_name == "chain2" else zmonoid_category()
    )
    summary = sweep_equivalence(carrier)
    assert summary.equivalence_holds
    assert summary.a5_forces_identity_kappa
    assert summary.a8_a9_pass_with_identity_kappa
    if carrier_name == "chain2":
        assert summary.candidates == 4 and summary.skew_structure_count == 4
    else:
        assert summary.candidates == 64
        assert summary.natural_candidates == 36
        assert summary.skew_structure_count == 1


def test_every_enumerated_structure_is_skew():
    for d in enumerate_skew_structures(chain_poset(["0", "1", "2"])):
        assert check_naturality(d) == []
        assert check_axioms(d).all_hold
        # monoidal structures are in particular skew
        if is_monoidal(d):
            assert check_pentagons(d).all_hold


@pytest.mark.parametrize("carrier_name", ("chain2", "zmonoid"))
def test_monoidal_candidates_are_skew(carrier_name):
    carrier = (
        chain_poset(["0", "1"]) if carrier_name == "chain2" else zmonoid_category()
    )
    seen_monoidal = 0
    for d in skew_candidates(carrier):
        if check_naturality(d) or d.kappa != d.category.id_of(d.unit):
            continue
        if is_monoidal(d):
            seen_monoidal += 1
            assert check_axioms(d).all_hold
    assert seen_monoidal > 0


def test_budget_errors():
    with pytest.raises(BudgetExceededError):
        list(skew_candidates(chain_poset(["0", "1", "2", "3"])))
    big = FinCategory(
        ["*"],
        [(str(k), "*", "*") for k in range(7)],
        {"*": "0"},
        {(str(a), str(b)): str(min(int(a) + int(b), 6)) for a in range(7) for b in range(7)},
    )
    with pytest.raises(BudgetExceededError):
        list(skew_candidates(big))


def test_json_roundtrip():
    d = skew_from_strict(zmonoid(), kappa="z")
    doc = d.to_json_dict()
    again = SkewData.from_json_dict(doc)
    assert again.to_json_dict() == doc
    doc.pop("alpha")
    with pytest.raises(SchemaError):
        SkewData.from_json_dict(doc)


def test_poset_sweep_honours_the_budget():
    # chain3 has 3 ** 9 = 19683 raw tensor tables
    with pytest.raises(BudgetExceededError, match="19683 raw tensor tables exceed the sweep budget 19682"):
        list(skew_candidates(chain_poset(["0", "1", "2"]), budget=19682))
    assert len(list(skew_candidates(chain_poset(["0", "1", "2"]), budget=19683))) == 29


# -- the typed category sweep against a brute-force filter ----------------


MONOID_1AB = {
    ("1", "1"): "1", ("1", "a"): "a", ("1", "b"): "b",
    ("a", "1"): "a", ("a", "a"): "a", ("a", "b"): "b",
    ("b", "1"): "b", ("b", "a"): "b", ("b", "b"): "b",
}


def monoid_1ab(order=("1", "a", "b")) -> FinCategory:
    """One object; endomorphisms {1, a, b} with a idempotent and b absorbing, declared in ``order``."""
    return FinCategory(["*"], [(e, "*", "*") for e in order], {"*": "1"}, MONOID_1AB)


def discrete_two() -> FinCategory:
    return FinCategory(
        ["x", "y"],
        [("1x", "x", "x"), ("1y", "y", "y")],
        {"x": "1x", "y": "1y"},
        {("1x", "1x"): "1x", ("1y", "1y"): "1y"},
    )


SWEEP_CARRIERS = {
    "zmonoid": zmonoid_category,
    "discrete2": discrete_two,
    "monoid-1ab": monoid_1ab,
    # declared order differs from label order: components follow the one, tensor cells the other
    "monoid-1ba": lambda: monoid_1ab(("1", "b", "a")),
    "chain2-category": lambda: poset_category(chain_poset(["0", "1"])),
}


def _preserves_composition(cat, obj_tensor, mor_tensor) -> bool:
    """Typing, identities and interchange, read off the composition table."""
    for (f, g), h in mor_tensor.items():
        ends = (obj_tensor[(cat.src(f), cat.src(g))], obj_tensor[(cat.tgt(f), cat.tgt(g))])
        if (cat.src(h), cat.tgt(h)) != ends:
            return False
    for (a, b), ab in obj_tensor.items():
        if mor_tensor[(cat.identities[a], cat.identities[b])] != cat.identities[ab]:
            return False
    for (g, f), gf in cat.composition.items():
        for (g2, f2), g2f2 in cat.composition.items():
            if cat.composition[(mor_tensor[(g, g2)], mor_tensor[(f, f2)])] != mor_tensor[(gf, g2f2)]:
                return False
    return True


def _brute_force_candidates(cat):
    """Every label table, filtered; components in the category's declaration order."""
    objs = sorted(cat.objects)
    mors = sorted(cat.morphism_labels())
    obj_pairs = list(product(objs, objs))
    mor_pairs = list(product(mors, mors))

    def hom(a, b):
        return [h for h, s, t in cat.morphisms if (s, t) == (a, b)]

    for obj_values in product(objs, repeat=len(obj_pairs)):
        ot = dict(zip(obj_pairs, obj_values))
        for mor_values in product(mors, repeat=len(mor_pairs)):
            mt = dict(zip(mor_pairs, mor_values))
            if not _preserves_composition(cat, ot, mt):
                continue
            triples = list(product(objs, repeat=3))
            for unit in objs:
                alpha_choices = [hom(ot[(ot[(a, b)], c)], ot[(a, ot[(b, c)])]) for a, b, c in triples]
                for alpha_pick in product(*alpha_choices):
                    for lam_pick in product(*[hom(ot[(unit, a)], a) for a in objs]):
                        for rho_pick in product(*[hom(a, ot[(a, unit)]) for a in objs]):
                            for kappa in hom(unit, unit):
                                yield (
                                    ot, mt, unit, dict(zip(triples, alpha_pick)),
                                    dict(zip(objs, lam_pick)), dict(zip(objs, rho_pick)), kappa,
                                )


@pytest.mark.parametrize("carrier_name", ("zmonoid", "discrete2", "monoid-1ab", "monoid-1ba"))
def test_category_candidates_match_brute_force(carrier_name):
    cat = SWEEP_CARRIERS[carrier_name]()
    got = [
        (d.obj_tensor, d.mor_tensor, d.unit, d.alpha, d.lam, d.rho, d.kappa)
        for d in skew_candidates(cat)
    ]
    assert got == list(_brute_force_candidates(cat))


def _brute_force_object_tensors(cat):
    """Every object table of the raw label product whose cells type every morphism tensor
    cell, with a unit and a morphism for every alpha component, with its units, in order."""
    objs = sorted(cat.objects)
    pairs = list(product(objs, objs))
    arrows = {(s, t) for _, s, t in cat.morphisms}
    mors = cat.morphism_labels()
    cell_types = {((cat.src(f), cat.src(g)), (cat.tgt(f), cat.tgt(g))) for f, g in product(mors, repeat=2)}
    for values in product(objs, repeat=len(pairs)):
        ot = dict(zip(pairs, values))
        if not all((ot[s], ot[t]) in arrows for s, t in cell_types):
            continue
        units = [u for u in objs if all((ot[(u, a)], a) in arrows and (a, ot[(a, u)]) in arrows for a in objs)]
        associators = all((ot[(ot[(a, b)], c)], ot[(a, ot[(b, c)])]) in arrows for a, b, c in product(objs, repeat=3))
        if units and associators:
            yield ot, units


#: The carriers whose object tables the search is held against the raw product on.
OBJECT_TABLE_CARRIERS = {
    "chain1": lambda: poset_category(chain_poset(["0"])),
    "chain2": lambda: poset_category(chain_poset(["0", "1"])),
    "chain3": lambda: poset_category(chain_poset(["0", "1", "2"])),
    "antichain2": lambda: poset_category(antichain_poset(["a", "b"])),
    "antichain3": lambda: poset_category(antichain_poset(["a", "b", "c"])),
    "chain2-category": SWEEP_CARRIERS["chain2-category"],
    "discrete2": discrete_two,
    "isomorphic-pair": lambda: isomorphic_pair(),
}


@pytest.mark.parametrize("carrier_name", list(OBJECT_TABLE_CARRIERS))
def test_object_tensors_are_the_filtered_raw_product(carrier_name):
    # the search prunes partial tables; what it yields must be the full tables the three
    # rules keep, in the order of the raw product, each with every unit it admits
    cat = OBJECT_TABLE_CARRIERS[carrier_name]()
    r = skew._Rows.__new__(skew._Rows)
    mor = r._over(cat)[1]
    typed = [[sorted(mor[f] for f in cat.hom(a, b)) for b in r.objs] for a in r.objs]
    objs = r.objs
    got = [
        ({(objs[a], objs[b]): objs[v] for a, row in enumerate(t) for b, v in enumerate(row)}, [objs[u] for u in units])
        for t, units in skew._object_tensors(r, typed)
    ]
    assert got and got == list(_brute_force_object_tensors(cat))


@pytest.mark.parametrize(
    "carrier_name, expected",
    (
        ("chain2-category", SweepSummary(4, 4, True, True, True, 4)),
        ("monoid-1ab", SweepSummary(2916, 624, True, True, True, 1)),
    ),
)
def test_category_sweep_summaries(carrier_name, expected):
    assert sweep_equivalence(SWEEP_CARRIERS[carrier_name]()) == expected


def test_category_sweep_budget_counts_raw_tables():
    # chain2 as a category: 2 ** 4 object tables times 3 ** 9 morphism tables,
    # counted before typing leaves at most one table per object table
    with pytest.raises(BudgetExceededError, match="314928 raw tensor tables"):
        list(skew_candidates(SWEEP_CARRIERS["chain2-category"](), budget=314927))


def non_associative_1ab() -> FinCategory:
    """One object; endomorphisms {1, a, b} with (a.a).a = b.a = a but a.(a.a) = a.b = 1."""
    compose = {("1", "1"): "1", ("1", "a"): "a", ("a", "1"): "a", ("1", "b"): "b", ("b", "1"): "b"}
    compose.update({("a", "a"): "b", ("a", "b"): "1", ("b", "a"): "a", ("b", "b"): "b"})
    return FinCategory(["*"], [(e, "*", "*") for e in ("1", "a", "b")], {"*": "1"}, compose)


def zmonoid_without_zz() -> FinCategory:
    compose = dict(zmonoid_category().composition)
    del compose[("z", "z")]
    return FinCategory(["*"], [("1", "*", "*"), ("z", "*", "*")], {"*": "1"}, compose)


#: Category tables that break the category laws, with the message their constructor raises:
#: the first violation validate_category lists, and their number.
LAWLESS_CARRIERS = {
    "non-associative-1ab": (
        non_associative_1ab,
        "structure violates the laws: associativity at ('a', 'a', 'a'): (h.g).f = a, h.(g.f) = 1 (5 total)",
    ),
    "zmonoid-without-zz": (
        zmonoid_without_zz,
        "structure violates the laws: composability at ('z', 'z'): composable pair missing from table (1 total)",
    ),
}


@pytest.mark.parametrize("sweep", ["sweep_equivalence", "skew_candidates", "enumerate_skew_structures"])
@pytest.mark.parametrize("carrier_name", list(LAWLESS_CARRIERS))
def test_sweeps_reject_a_lawless_category(carrier_name, sweep):
    # the search reads composites only where it needs them, so on the non-associative
    # table it would sweep all 243 candidates to a passing summary; the tables never
    # become a carrier, since the category's constructor raises
    make, message = LAWLESS_CARRIERS[carrier_name]
    with pytest.raises(StructuralError) as exc:
        list(getattr(skew, sweep)(make()))  # skew_candidates is lazy
    assert str(exc.value) == message


#: Candidate count and digest of the candidate stream, in stream order.
STREAM_GOLDEN = {
    "chain1": (1, "0a95d48596a99d41dae26e83331b6b25eca8ae0907aa55d280931a77ed6912e7"),
    "chain2": (4, "824dfa6f98e6e8f6292d0b854e5a5ca9a8373c471cd279e88932899d25a62d27"),
    "chain3": (29, "4212e0809db984773af78471ddf9fbc66903a251a8c19d65afa88ed9245b10da"),
    "antichain2": (4, "9a15684ef6477c0b3b38bcefb5cfb1efeb4f26cf7191929739494ad43173ab6c"),
    "antichain3": (33, "3c07c5652d64ea28271979191a2e0b93cb93101fc10b59d884abb538fc117e7a"),
    "chain2-category": (4, "824dfa6f98e6e8f6292d0b854e5a5ca9a8373c471cd279e88932899d25a62d27"),
    "zmonoid": (64, "db48575ad393600e9bae7f4bec461c3f6a5a4c0323312c40619ecc840766c066"),
    "monoid-1ab": (2916, "a7e838b8a8c545370f27c95053539d2d350713501ccef88629759676ce948f9c"),
    "monoid-1ba": (2916, "3b2d92ec6c4064f01a0b5ec3a6a82ae620a43d3c0ac5ee5a06214fa6d55664d9"),
}

STREAM_CARRIERS = {
    "chain1": lambda: chain_poset(["0"]),
    "chain2": lambda: chain_poset(["0", "1"]),
    "chain3": lambda: chain_poset(["0", "1", "2"]),
    "antichain2": lambda: antichain_poset(["a", "b"]),
    "antichain3": lambda: antichain_poset(["a", "b", "c"]),
    "chain2-category": SWEEP_CARRIERS["chain2-category"],
    "zmonoid": SWEEP_CARRIERS["zmonoid"],
    "monoid-1ab": SWEEP_CARRIERS["monoid-1ab"],
    "monoid-1ba": SWEEP_CARRIERS["monoid-1ba"],
}


@pytest.mark.parametrize("carrier_name", list(STREAM_GOLDEN))
def test_candidate_stream_is_pinned(carrier_name):
    # tables are digested as sorted items: only the order of candidates
    # is part of the contract, not the insertion order of a table
    h = hashlib.sha256()
    count = 0
    for d in skew_candidates(STREAM_CARRIERS[carrier_name]()):
        count += 1
        tables = (d.obj_tensor, d.mor_tensor, d.alpha, d.lam, d.rho)
        row = (d.unit, d.kappa, *(sorted(t.items()) for t in tables))
        h.update(repr(row).encode("utf-8") + b"\n")
    assert (count, h.hexdigest()) == STREAM_GOLDEN[carrier_name]


def test_empty_carrier_has_no_candidates():
    # no object can be the unit, so the search stops before any table
    assert sweep_equivalence(chain_poset([])) == SweepSummary(0, 0, True, True, True, 0)
    assert list(skew_candidates(FinCategory([], [], {}, {}))) == []
    assert enumerate_skew_structures(chain_poset([])) == []


# -- naturality, checked once per stage by the search ------------------------

#: The six carriers a perfbench skew cycle sweeps.
FLAG_CARRIERS = {
    "chain2": lambda: poset_category(chain_poset(["0", "1"])),
    "chain3": lambda: poset_category(chain_poset(["0", "1", "2"])),
    "antichain3": lambda: poset_category(antichain_poset(["0", "1", "2"])),
    "zmonoid": zmonoid_category,
    "chain2-category": SWEEP_CARRIERS["chain2-category"],
    "monoid-1ab": monoid_1ab,
}

#: FLAG_CARRIERS as a sweep takes them: a poset as a poset, whose thin category it searches.
SWEPT_CARRIERS = {
    **FLAG_CARRIERS,
    "chain2": lambda: chain_poset(["0", "1"]),
    "chain3": lambda: chain_poset(["0", "1", "2"]),
    "antichain3": lambda: antichain_poset(["0", "1", "2"]),
}


@pytest.mark.parametrize("carrier_name", list(FLAG_CARRIERS))
def test_search_naturality_flag_is_check_naturality(carrier_name):
    flags = [
        (natural, check_naturality(d) == [])
        for d, natural in _category_candidates(FLAG_CARRIERS[carrier_name]())
    ]
    assert flags and all(natural == expected for natural, expected in flags)


@pytest.mark.parametrize("carrier_name", [*FLAG_CARRIERS, "discrete2"])
def test_search_candidates_pass_the_public_constructor(carrier_name):
    # the search builds its candidates unchecked; the public constructor,
    # which checks the tensor and every component, must accept each as is,
    # keeping the index rows it checked them on, which the search's data builds on first read
    cat = {**FLAG_CARRIERS, "discrete2": discrete_two}[carrier_name]()
    candidates = [d for d, _ in _category_candidates(cat)]
    assert candidates
    for d in candidates:
        rebuilt = SkewData(cat, d.obj_tensor, d.mor_tensor, d.unit, d.alpha, d.lam, d.rho, d.kappa)
        rows = vars(rebuilt).pop("_rows")
        assert vars(rebuilt) == vars(d)
        assert all(getattr(rows, k) == getattr(d._rows, k) for k in ("t", "tm", "alpha", "lam", "rho", "unit"))


#: Count of non-natural candidates and digest of every candidate's
#: ``check_naturality`` report, in stream order, from before the search
#: checked naturality per stage.  The reports on the docs examples are
#: pinned by the ``skew check`` digests of test_golden.
NATURALITY_GOLDEN = {
    "zmonoid": (28, "23375a7de5148494601595a4967b8cdb9b4b08a094480a70d54decaa9b951cc4"),
    "monoid-1ab": (2292, "7d7df325f94acb71097fce4a673d5be2d3084bef71ba93c5bfca892a5659a5f5"),
    "monoid-1ba": (2292, "fb3f8143cc7b169fb55c1508ced477c30e1a88cc9451c789760b2617dd3659f0"),
}

#: Reports of a few non-natural {1, a, b} candidates, by stream position.
NATURALITY_REPORTS = {
    0: [
        "lambda naturality at ('a',): 1 != a", "rho naturality at ('a',): 1 != a",
        "lambda naturality at ('b',): 1 != b", "rho naturality at ('b',): 1 != b",
    ],
    1407: [
        "alpha naturality at ('1', 'a', '1'): a != b", "alpha naturality at ('1', 'a', 'a'): a != b",
        "lambda naturality at ('a',): 1 != a", "rho naturality at ('a',): b != a",
    ],
    2912: ["rho naturality at ('a',): b != a"],
}


@pytest.mark.parametrize("carrier_name", list(NATURALITY_GOLDEN))
def test_naturality_reports_are_pinned(carrier_name):
    h = hashlib.sha256()
    failing = 0
    for k, d in enumerate(skew_candidates(SWEEP_CARRIERS[carrier_name]())):
        report = [str(v) for v in check_naturality(d)]
        failing += bool(report)
        h.update(repr(report).encode("utf-8") + b"\n")
        if carrier_name == "monoid-1ab" and k in NATURALITY_REPORTS:
            assert report == NATURALITY_REPORTS[k]
    assert (failing, h.hexdigest()) == NATURALITY_GOLDEN[carrier_name]


#: Count of natural candidates and digest of their ``check_axioms`` and
#: ``check_pentagons`` result strings, in stream order, from before the
#: sweep evaluated each report once per the picks it reads.
REPORT_GOLDEN = {
    "chain2": (4, "57aa417c46ff8fbf74319faf392ed998bd688074f22c47698d25b7a3ddfbfaff"),
    "chain3": (29, "8b6a32a3b77443d7c4c31bdd1e6293b50799e4210c229282b335c30939a5c03c"),
    "antichain3": (33, "e67c1a9920ab567ffd92d71b08e451e3cc5275d8faad1a80a4233230e57f4b91"),
    "zmonoid": (36, "a2fa7d53e5311442973420417d162df5a711c246bbac0b7c3c606e033a1ea88a"),
    "chain2-category": (4, "57aa417c46ff8fbf74319faf392ed998bd688074f22c47698d25b7a3ddfbfaff"),
    "monoid-1ab": (624, "bfa651e641604470319107612ec227a5c6b6ac8098b40fae01fedac9f5666fdd"),
}


@pytest.mark.parametrize("carrier_name", list(REPORT_GOLDEN))
def test_condition_reports_are_pinned(carrier_name):
    h = hashlib.sha256()
    count = 0
    for d, natural in _category_candidates(FLAG_CARRIERS[carrier_name]()):
        if not natural:
            continue
        count += 1
        row = [str(r) for r in check_axioms(d).results + check_pentagons(d).results]
        h.update(repr(row).encode("utf-8") + b"\n")
    assert (count, h.hexdigest()) == REPORT_GOLDEN[carrier_name]


def _evaluated(d: SkewData) -> tuple[list[LawViolation], skew.ConditionReport, skew.ConditionReport]:
    """``d``'s naturality violations and axiom and pentagon reports, every condition evaluated on
    fresh rows, thin or not: the reference for the public checks, which decide thin data by rule.
    A1-A4 share the axioms' witnesses, and A5-A9 read a copy of the rows that carries kappa."""
    r = skew._Rows(d)
    mors = r.mors
    hits = (*skew._alpha_unnatural(r, r.tm, r.alpha), *skew._unitors_unnatural(r, r.tm, r.unit, r.lam, r.rho))
    naturality = [
        LawViolation(f"{law} naturality", tuple(mors[f] for f in fs), f"{mors[left]} != {mors[right]}")
        for law, fs, left, right in hits
    ]
    kept = {}
    axioms = skew._evaluate(r, skew.AXIOMS, kept)
    kappa_rows = r._pick(r.t, r.tm, r.unit, r.alpha, r.lam, r.rho)
    kappa_rows.kappa = mors.index(d.kappa)
    free, with_kappa = PENTAGONS[: skew._KAPPA_FREE], PENTAGONS[skew._KAPPA_FREE :]
    pentagons = skew._evaluate(r, free, kept) + skew._evaluate(kappa_rows, with_kappa, {})
    return naturality, skew.ConditionReport(tuple(axioms)), skew.ConditionReport(tuple(pentagons))


def _summary_from_reports(cat: FinCategory) -> SweepSummary:
    """The sweep summary from the evaluated reports of every natural candidate, one candidate at a time."""
    candidates = natural = structures = 0
    equivalence = a5_forces = a8_a9 = True
    for d, is_natural in _category_candidates(cat):
        candidates += 1
        if not is_natural:
            continue
        natural += 1
        _, axioms, pentagons = _evaluated(d)
        identity_kappa = d.kappa == cat.id_of(d.unit)
        equivalence &= pentagons.all_hold == (axioms.all_hold and identity_kappa)
        a5_forces &= identity_kappa or not pentagons.result("A5").holds
        a8_a9 &= not identity_kappa or pentagons.result("A8").holds and pentagons.result("A9").holds
        structures += identity_kappa and axioms.all_hold
    return SweepSummary(candidates, natural, equivalence, a5_forces, a8_a9, structures)


@pytest.mark.parametrize("carrier_name", [*FLAG_CARRIERS, "isomorphic-pair", "discrete2"])
def test_sweep_summary_is_the_reports_of_every_natural_candidate(carrier_name):
    # the sweep reads verdicts once per the picks they depend on, and none on a
    # thin carrier; the evaluated reports of each candidate must give the same summary
    if carrier_name == "isomorphic-pair":
        carrier, budget = isomorphic_pair(), 2**4 * 4**16
    elif carrier_name == "discrete2":
        carrier, budget = discrete_two(), 1_000_000
    else:
        carrier, budget = SWEPT_CARRIERS[carrier_name](), 1_000_000
    summary = _summary_from_reports(skew._swept_category(carrier, budget))
    assert sweep_equivalence(carrier, budget) == summary


#: Condition evaluations of each sweep over a carrier that is not thin:
#: the five axioms and A2-A4, which read no kappa, per natural pick (A1 is
#: 5.1) and the five pentagons A5-A9 per natural candidate, one per kappa.
#: A thin carrier's sweep evaluates none.
SWEEP_EVALUATIONS = {"zmonoid": 324, "monoid-1ab": 4784}


@pytest.mark.parametrize("carrier_name", list(FLAG_CARRIERS))
def test_sweep_evaluation_count_is_pinned(carrier_name, monkeypatch):
    calls, results, unnatural = [], [], []
    witness, result = skew._witness, skew.ConditionResult
    monkeypatch.setattr(skew, "_witness", lambda *args: calls.append(args) or witness(*args))
    monkeypatch.setattr(skew, "ConditionResult", lambda *args: results.append(args) or result(*args))
    for name in ("_alpha_unnatural", "_unitors_unnatural"):
        real = getattr(skew, name)
        monkeypatch.setattr(skew, name, lambda *args, real=real: unnatural.append(args) or real(*args))
    summary = sweep_equivalence(SWEPT_CARRIERS[carrier_name]())
    if carrier_name in SWEEP_EVALUATIONS:
        picks = len({id(rows) for rows, _, _ in calls})
        assert len(calls) == SWEEP_EVALUATIONS[carrier_name] == 8 * picks + 5 * summary.natural_candidates
        assert unnatural
    else:
        # a thin carrier's squares and conditions hold by rule: each natural pick is a skew structure
        assert calls == unnatural == []
        assert summary.candidates == summary.natural_candidates == summary.skew_structure_count
    assert results == []


def boolean_lattice():
    """The 2x2 Boolean lattice: pairs of bits ordered componentwise."""
    elements = ["00", "01", "10", "11"]
    return Poset(elements, frozenset((a, b) for a in elements for b in elements if all(map(str.__le__, a, b))))


#: Thin carriers within the sweep caps or past them, with their candidate counts.
THIN_CARRIERS = {
    "chain4": (lambda: poset_category(chain_poset(["0", "1", "2", "3"])), 298),
    "boolean-lattice": (lambda: poset_category(boolean_lattice()), 240),
    "discrete2": (discrete_two, 4),
    "isomorphic-pair": (lambda: isomorphic_pair(), 32),
}


@pytest.mark.parametrize("carrier_name", list(THIN_CARRIERS))
def test_thin_carriers_pass_every_condition(carrier_name):
    # the sweeps and the public checks take a thin carrier's naturality,
    # axioms and pentagons by rule; the evaluator checks each in full
    make, count = THIN_CARRIERS[carrier_name]
    cat = make()
    assert skew._thin(cat)
    candidates = list(_category_candidates(cat))
    assert len(candidates) == count
    for d, natural in candidates:
        assert natural
        naturality, axioms, pentagons = _evaluated(d)
        assert naturality == []
        assert axioms.all_hold and pentagons.all_hold


THIN_SUBJECTS = [*THIN_CARRIERS, "chain3", "antichain3", "strict structures", "skew-two-or.json"]


@pytest.mark.parametrize("subjects", THIN_SUBJECTS)
def test_the_checks_of_thin_data_are_its_evaluated_reports(subjects, request):
    # the public checks decide thin data by rule; each result must be the evaluator's
    if subjects in THIN_CARRIERS:
        data = [d for d, _ in _category_candidates(THIN_CARRIERS[subjects][0]())]
    elif subjects in FLAG_CARRIERS:
        data = [d for d, _ in _category_candidates(FLAG_CARRIERS[subjects]())]
    elif subjects == "strict structures":
        strict = [
            *request.getfixturevalue("library").values(),
            request.getfixturevalue("left_zero_antichain"),
            *request.getfixturevalue("non_commutative").values(),
        ]
        data = [skew_from_strict(m) for m in strict if skew._thin(m.category)]
    else:
        data = [SkewData.from_json_text((Path(__file__).parent.parent / "docs" / "examples" / subjects).read_text())]
    assert data and all(skew._thin(d.category) for d in data)
    for d in data:
        assert (check_naturality(d), check_axioms(d), check_pentagons(d)) == _evaluated(d)


@pytest.mark.parametrize("axioms_first", (True, False))
def test_the_checks_of_a_structure_evaluate_13_conditions(axioms_first, monkeypatch):
    # A1 is 5.1, evaluated once for both reports, whichever runs first
    calls = []
    witness = skew._witness
    monkeypatch.setattr(skew, "_witness", lambda r, arity, fn: calls.append(arity) or witness(r, arity, fn))
    d = skew_from_strict(zmonoid(), kappa="z")
    if axioms_first:
        axioms = check_axioms(d)
        pentagons = check_pentagons(d)
    else:
        pentagons = check_pentagons(d)
        axioms = check_axioms(d)
    assert len(calls) == 13
    assert sorted(calls) == sorted(arity for _, arity, _ in skew.AXIOMS + skew.PENTAGONS[1:])
    assert pentagons.result("A1").witness is axioms.result("5.1").witness is None
    assert not pentagons.result("A5").holds
    # the axioms are kept on the structure's rows; a second report evaluates none of them
    check_axioms(d)
    assert len(calls) == 13


def test_a1_is_the_5_1_of_the_structure_itself():
    # A1 once copied 5.1's witness from whatever axiom report it was handed
    candidates = [d for d, _ in _category_candidates(monoid_1ab())]
    holds, fails = candidates[0], candidates[432]
    fails_axioms = check_axioms(fails)
    assert fails_axioms.result("5.1").witness == ("*", "*", "*", "*")
    assert check_axioms(holds).result("5.1").holds
    assert check_pentagons(holds).result("A1").holds
    assert check_pentagons(fails).result("A1") == skew.ConditionResult("A1", False, ("*", "*", "*", "*"))
    with pytest.raises(TypeError):
        check_pentagons(holds, fails_axioms)


class _KappaTrap(SkewData):
    """Skew data whose kappa cannot be read, not even one in its instance dict, which the property overrides."""

    @property
    def kappa(self):
        raise AssertionError("kappa was read")


def _unchecked_copy(d: SkewData, cls=SkewData) -> SkewData:
    """A copy of ``d`` as ``cls`` without its kept rows, which its first check builds afresh."""
    copy = cls.__new__(cls)
    copy.__dict__.update({k: v for k, v in vars(d).items() if k != "_rows"})
    return copy


@pytest.mark.parametrize("carrier_name", ("zmonoid", "monoid-1ab"))
def test_axioms_do_not_read_kappa(carrier_name):
    # the checks keep the axioms and A1-A4 on a structure's rows and the
    # sweep evaluates them once per pick of every table but kappa
    kappa_free = {"A1", "A2", "A3", "A4"}
    assert {name for name, _, _ in PENTAGONS[: skew._KAPPA_FREE]} == kappa_free
    for d, natural in _category_candidates(FLAG_CARRIERS[carrier_name]()):
        axioms = check_axioms(d)
        assert check_pentagons(d) == check_pentagons(_unchecked_copy(d))
        trapped = _unchecked_copy(d, _KappaTrap)
        assert check_axioms(trapped) == axioms
        with pytest.raises(AssertionError, match="kappa was read"):
            check_pentagons(trapped)
        rows = skew._Rows(trapped)
        for name, arity, fn in PENTAGONS:
            if name in kappa_free:
                skew._witness(rows, arity, fn)
            else:
                with pytest.raises(AttributeError, match="kappa"):
                    skew._witness(rows, arity, fn)


@pytest.mark.parametrize("carrier_name", list(STREAM_CARRIERS))
def test_enumerated_structures_are_the_filtered_stream(carrier_name):
    carrier = STREAM_CARRIERS[carrier_name]()
    expected = [
        d
        for d in skew_candidates(carrier)
        if not check_naturality(d) and d.kappa == d.category.id_of(d.unit) and check_axioms(d).all_hold
    ]
    assert [d.to_json_dict() for d in enumerate_skew_structures(carrier)] == [
        d.to_json_dict() for d in expected
    ]


def test_sweep_evaluates_a5_for_every_kappa(monkeypatch):
    # a planted A5 that ignores kappa holds for kappa = z, which the sweep
    # must see although it evaluates the axioms once per pick
    def a5_without_kappa(r):
        idu = r.ids[r.unit]
        return [idu, idu], [idu, idu, idu]

    planted = tuple(
        (name, arity, a5_without_kappa if name == "A5" else fn) for name, arity, fn in skew.PENTAGONS
    )
    assert sweep_equivalence(zmonoid_category()).a5_forces_identity_kappa
    monkeypatch.setattr(skew, "PENTAGONS", planted)
    assert not sweep_equivalence(zmonoid_category()).a5_forces_identity_kappa


# -- the pentagon conditions read off the Catalan simplicial set --------

#: The hand-written condition of each non-degenerate 4-simplex, by Motzkin word.
PENTAGON_OF = {
    "CCCC": "A1", "CUDC": "A2", "UDCC": "A3", "CCUD": "A4", "UUDD": "A5",
    "UDUD": "A6", "UCCD": "A7", "CUCD": "A8", "UCDC": "A9",
}

#: The constraint component of each non-degenerate 3-simplex, by Motzkin
#: word, at the objects of its free spine edges.
COMPONENT_OF = {
    "CCC": lambda d, a, b, c: d.alpha[(a, b, c)],
    "UDC": lambda d, a: d.lam[a],
    "CUD": lambda d, a: d.rho[a],
    "UCD": lambda d: d.kappa,
}


def _is_free(x: str, j: int, k: int) -> bool:
    """Whether the edge of the simplex x from vertex j to vertex k is free."""
    for v in reversed(range(dimension(x) + 1)):
        if v not in (j, k):
            x = face(x, v)
    return x == FREE_EDGE


def _pentagon_of_simplex(x: str):
    """The condition a non-degenerate 4-simplex x reads off its faces.

    It maps skew data and the objects of the free spine edges of x to a
    (top, bottom) pair of edge paths, top [d_1, d_3] and bottom
    [d_4, d_2, d_0], in the form of the hand-written table.
    """
    spine = [j for j in range(4) if _is_free(x, j, j + 1)]
    faces = []
    for i in range(5):
        phi, core = ez_decompose(face(x, i))
        verts = [v for v in range(5) if v != i]
        edges = [(a, b) for a, b in zip(verts, verts[1:]) if _is_free(x, a, b)]
        faces.append((COMPONENT_OF[dyck_to_motzkin(core)], edges) if phi.is_identity else None)

    def condition(d: SkewData, *args: str):
        c = d.category
        obj = dict(zip(spine, args))

        def edge_object(a: int, b: int) -> str:
            if b == a + 1:
                return obj[a]
            # a merged edge is read through the deleted vertex a + 1: the
            # tensor of two free edges, the unit under two unit edges, or
            # else the one free edge
            free = [obj[j] for j in (a, a + 1) if j in obj]
            return d.tensor_obj(*free) if len(free) == 2 else free[0] if free else d.unit

        morphisms = []
        for i, entry in enumerate(faces):
            if entry is None:
                morphisms.append(None)
                continue
            component, edges = entry
            f = component(d, *(edge_object(a, b) for a, b in edges))
            if i == 0 and 0 in obj:
                f = d.tensor_mor(c.id_of(obj[0]), f)
            if i == 4 and 3 in obj:
                f = d.tensor_mor(f, c.id_of(obj[3]))
            morphisms.append(f)
        top = [morphisms[1], morphisms[3]]
        bottom = [morphisms[4], morphisms[2], morphisms[0]]
        source = next(c.src(f) for f in top + bottom if f is not None)
        return _with_identities(c, top, source), _with_identities(c, bottom, source)

    return len(spine), condition


def _with_identities(c: FinCategory, path, source: str) -> list[str]:
    """The path with each degenerate face an identity where its neighbours meet."""
    out = []
    for p, f in enumerate(path):
        if f is None:
            after = [g for g in path[p + 1:] if g is not None]
            f = c.id_of(c.tgt(out[-1]) if out else c.src(after[0]) if after else source)
        out.append(f)
    return out


def _pentagon_rows(d):
    """The index rows of ``d`` as the pentagon route reads them, kappa included."""
    rows = skew._Rows(d)
    rows.kappa = rows.mors.index(d.kappa)
    return rows


def _hand_paths(rows, fn, args):
    """The hand-written condition fn at the objects ``args``, its index paths mapped to labels."""
    top, bottom = fn(rows, *(rows.objs.index(a) for a in args))
    return [rows.mors[f] for f in top], [rows.mors[f] for f in bottom]


def test_pentagons_biject_with_the_nondegenerate_4_simplices():
    words = {dyck_to_motzkin(x) for x in catalan_sset(4).nondegenerate(4)}
    assert words == set(PENTAGON_OF)
    assert sorted(PENTAGON_OF.values()) == [name for name, _, _ in PENTAGONS]


def test_pentagons_are_read_off_the_catalan_4_simplices():
    hand = {name: (arity, fn) for name, arity, fn in PENTAGONS}
    derived = {
        PENTAGON_OF[dyck_to_motzkin(x)]: _pentagon_of_simplex(x)
        for x in catalan_sset(4).nondegenerate(4)
    }
    assert {name: arity for name, (arity, _) in derived.items()} == {
        name: arity for name, (arity, _) in hand.items()
    }
    carriers = (
        chain_poset(["0", "1"]),
        chain_poset(["0", "1", "2"]),
        antichain_poset(["a", "b", "c"]),
        zmonoid_category(),
        SWEEP_CARRIERS["chain2-category"](),
        monoid_1ab(),
    )
    instances = 0
    for carrier in carriers:
        for d in skew_candidates(carrier):
            rows = _pentagon_rows(d)
            for name, (arity, condition) in derived.items():
                for args in product(rows.objs, repeat=arity):
                    assert condition(d, *args) == _hand_paths(rows, hand[name][1], args), (name, args)
                    instances += 1
    assert instances == 34354


def isomorphic_pair() -> FinCategory:
    """Objects I and X with inverse isomorphisms f: I -> X and g: X -> I."""
    return FinCategory(
        ["I", "X"],
        [("1I", "I", "I"), ("1X", "X", "X"), ("f", "I", "X"), ("g", "X", "I")],
        {"I": "1I", "X": "1X"},
        {
            ("1I", "1I"): "1I", ("1X", "1X"): "1X",
            ("f", "1I"): "f", ("1X", "f"): "f", ("g", "1X"): "g", ("1I", "g"): "g",
            ("g", "f"): "1I", ("f", "g"): "1X",
        },
    )


def test_merged_edges_read_the_unit_where_the_unit_is_not_idempotent():
    # every candidate on the other carriers has I (x) I = I; here half do not,
    # so a merged edge under two unit edges is read as I, not as I (x) I.
    # 2 ** 4 object tables times 4 ** 16 morphism tables, over the default budget
    budget = 2**4 * 4**16
    assert budget == 68_719_476_736
    cat = isomorphic_pair()
    assert sweep_equivalence(cat, budget) == SweepSummary(32, 32, True, True, True, 32)
    candidates = list(skew_candidates(cat, budget))
    assert sum(d.obj_tensor[(d.unit, d.unit)] != d.unit for d in candidates) == 16
    hand = {name: fn for name, _, fn in PENTAGONS}
    rows = [_pentagon_rows(d) for d in candidates]
    instances = 0
    for x in catalan_sset(4).nondegenerate(4):
        name = PENTAGON_OF[dyck_to_motzkin(x)]
        arity, condition = _pentagon_of_simplex(x)
        for d, r in zip(candidates, rows):
            for args in product(sorted(cat.objects), repeat=arity):
                assert condition(d, *args) == _hand_paths(r, hand[name], args), (name, args)
                instances += 1
    assert instances == 1120


# -- structural error messages -------------------------------------------


def _fields(d: SkewData) -> dict:
    return {
        "category": d.category,
        "obj_tensor": dict(d.obj_tensor),
        "mor_tensor": dict(d.mor_tensor),
        "unit": d.unit,
        "alpha": dict(d.alpha),
        "lam": dict(d.lam),
        "rho": dict(d.rho),
        "kappa": d.kappa,
    }


STRUCTURAL_FAILURES = {
    "unit": (
        "two", lambda k: k.update(unit="nope", kappa=None),
        "unit 'nope' is not an object",
    ),
    "object tensor undefined": (
        "two", lambda k: k["obj_tensor"].pop(("bot", "top")),
        "object tensor undefined on ('bot', 'top')",
    ),
    "object tensor dangles": (
        "two", lambda k: k["obj_tensor"].update({("top", "bot"): "mid"}),
        "object tensor dangles on ('top', 'bot')",
    ),
    "morphism tensor undefined": (
        "two", lambda k: k["mor_tensor"].pop(("bot<=top", "bot<=bot")),
        "morphism tensor undefined on ('bot<=top', 'bot<=bot')",
    ),
    "morphism tensor dangles": (
        "two", lambda k: k["mor_tensor"].update({("bot<=top", "top<=top"): "nope"}),
        "morphism tensor dangles on ('bot<=top', 'top<=top')",
    ),
    "ill-typed": (
        "two", lambda k: k["mor_tensor"].update({("bot<=bot", "bot<=top"): "bot<=bot"}),
        "morphism tensor ill-typed on ('bot<=bot', 'bot<=top')",
    ),
    "non-identity": (
        "z", lambda k: k["mor_tensor"].update({("1", "1"): "z"}),
        "tensor of identities at ('*', '*') is not an identity",
    ),
    "interchange": (
        "z", lambda k: k["mor_tensor"].update({("z", "z"): "1"}),
        "interchange fails on ('1', 'z') x ('z', '1')",
    ),
    "alpha undefined": (
        "two", lambda k: k["alpha"].pop(("bot", "top", "bot")),
        "alpha undefined at ('bot', 'top', 'bot')",
    ),
    "alpha ill-typed": (
        "two", lambda k: k["alpha"].update({("top", "bot", "top"): "bot<=top"}),
        "alpha component at ('top', 'bot', 'top') is ill-typed",
    ),
    "lambda": (
        "two", lambda k: k["lam"].update({"top": "bot<=top"}),
        "lambda component at 'top' is missing or ill-typed",
    ),
    "rho": (
        "two", lambda k: k["rho"].pop("bot"),
        "rho component at 'bot' is missing or ill-typed",
    ),
    "kappa": (
        "two", lambda k: k.update(kappa="bot<=top"),
        "kappa must be an endomorphism of the unit",
    ),
}


# the failures in the category, tensor tables and unit alone, and those of
# them that the label checks reject, before any law is read
TENSOR_FAILURES = {
    "unit", "object tensor undefined", "object tensor dangles", "morphism tensor undefined",
    "morphism tensor dangles", "ill-typed", "non-identity", "interchange",
}
CONSTRUCTOR_FAILURES = {"unit", "object tensor dangles", "morphism tensor dangles"}


@pytest.mark.parametrize("failure", sorted(STRUCTURAL_FAILURES))
def test_structural_error_messages(failure):
    base, edit, message = STRUCTURAL_FAILURES[failure]
    d = skew_from_strict(boolean_or() if base == "two" else zmonoid())
    fields = _fields(d)
    SkewData(**fields)  # the unedited fields are valid
    edit(fields)
    with pytest.raises(StructuralError) as exc:
        SkewData(**fields)
    assert str(exc.value) == message
    if failure not in TENSOR_FAILURES:
        return
    # the same tables as a strict structure fail on construction, with the same message or,
    # past the label checks, with the first violation the validator lists over them and their number
    tables = {k: fields[k] for k in ("category", "obj_tensor", "mor_tensor", "unit")}
    with pytest.raises(StructuralError) as exc:
        FinMonoidalStructure(**tables)
    if failure in CONSTRUCTOR_FAILURES:
        assert str(exc.value) == message
    else:
        problems = validate_strict_monoidal(_TensorData(**tables))
        assert problems[0].detail == message
        assert str(exc.value) == f"structure violates the laws: {problems[0]} ({len(problems)} total)"


def test_lax_skew_data_is_not_strict():
    # its tensor is zmonoid's strict one, but skew data is not a strict structure, whatever its
    # constraints: the nerve and the classification refuse it by its type
    d = skew_from_strict(zmonoid(), kappa="z")
    assert validate_strict_monoidal(d) == [] and not isinstance(d, FinMonoidalStructure)
    with pytest.raises(StructuralError, match="SkewData is not a strict monoidal structure"):
        monoidal_nerve(d, 3)
    with pytest.raises(StructuralError, match="SkewData is not a strict monoidal structure"):
        classify_maps(d)
