import json
from itertools import product

import pytest

import catsset.nerve
from catsset.errors import BudgetExceededError, StructuralError
from catsset.finmon import (
    FinCategory,
    FinMonoidalStructure,
    MonoidalPoset,
    _TensorData,
    chain_poset,
    poset_as_category,
    validate_strict_monoidal,
)
from catsset.library import boolean_or, chain3_max, zmonoid
from catsset.nerve import monoidal_nerve, two_label, two_simplex_data
from catsset.sset import (
    _boundaries,
    _enumerate_level_maps,
    catalan_sset,
    check_simplicial_identities,
    coskeletal_extension,
    is_r_coskeletal_up_to,
    isomorphisms,
)


def test_boolean_nerve_level_sizes(nerve_two4):
    assert [len(nerve_two4.level(n)) for n in range(5)] == [1, 2, 5, 14, 42]
    small = monoidal_nerve(boolean_or(), 0)
    assert small.levels == (("*",),)


def test_degeneracies_are_identity_triangles(nerve_two4):
    assert nerve_two4.degeneracy(0, 0, "*") == "bot"
    for a in ("bot", "top"):
        a12, a02, a01, mor = two_simplex_data(nerve_two4.degeneracy(1, 0, a))
        assert (a12, a02, a01) == (a, a, "bot") and mor == f"{a}<={a}"
        a12, a02, a01, mor = two_simplex_data(nerve_two4.degeneracy(1, 1, a))
        assert (a12, a02, a01) == ("bot", a, a) and mor == f"{a}<={a}"


def test_two_label_roundtrip():
    lab = two_label("a", "b", "c", "f")
    assert two_simplex_data(lab) == ("a", "b", "c", "f")
    with pytest.raises(StructuralError):
        two_simplex_data("s3:0")


def test_two_label_is_the_compact_json_array():
    # labels with quotes, backslashes, control characters and non-ASCII letters
    odd = ['"', "\\", 'a"b\\c', "\n\t\x00\x1f\x7f", "é", "Ωμ", "日本", "\U0001d11e", "\ud800", "", "plain"]
    for a12, a02, a01, mor in product(odd, repeat=4):
        label = two_label(a12, a02, a01, mor)
        assert label == json.dumps([a12, a02, a01, mor], separators=(",", ":"))
        assert two_simplex_data(label) == (a12, a02, a01, mor)


def test_chain3_level_two_size():
    nerve = monoidal_nerve(chain3_max(), 2)
    # direct count over all triples: max(a12, a01) <= a02
    elems = ["0", "1", "2"]
    count = sum(
        1
        for a12 in elems
        for a01 in elems
        for a02 in elems
        if max(a12, a01) <= a02
    )
    assert count == 14
    assert len(nerve.level(2)) == 14


def test_nerve_identities_and_coskeletality():
    for m in (boolean_or(), chain3_max(), zmonoid()):
        nerve = monoidal_nerve(m, 4)
        assert check_simplicial_identities(nerve) == []
        assert is_r_coskeletal_up_to(nerve, 3, 4)


def test_every_library_nerve_at_five(library):
    for name, m in library.items():
        nerve = monoidal_nerve(m, 5)
        assert check_simplicial_identities(nerve) == [], name
        assert is_r_coskeletal_up_to(nerve, 3, 5), name


@pytest.mark.parametrize("N", (3, 4, 5))
def test_nerve_is_the_checked_extension_of_its_three_truncation(library, N):
    # the nerve builds its levels without checking the identities; the
    # public extension checks them on the 3-truncation and must agree
    for name, m in library.items():
        checked = coskeletal_extension(monoidal_nerve(m, 3), N)
        assert monoidal_nerve(m, N).to_json_text() == checked.to_json_text(), name


def _chain_min(labels):
    """The chain on ``labels`` with min as tensor, its top the unit."""
    tensor = {(a, b): min(a, b, key=labels.index) for a in labels for b in labels}
    return poset_as_category(MonoidalPoset(chain_poset(labels), tensor, labels[-1]))


def _commutative_monoid(table):
    """The one-object category over a commutative monoid with unit "1", its product as tensor."""
    elems = sorted({x for x, _ in table})
    cat = FinCategory(["*"], [(e, "*", "*") for e in elems], {"*": "1"}, table)
    return FinMonoidalStructure(cat, {("*", "*"): "*"}, table, "*")


def test_level_three_is_the_commuting_boundaries(library, left_zero_antichain, non_commutative):
    z3 = {(a, b): "1gh"[("1gh".index(a) + "1gh".index(b)) % 3] for a in "1gh" for b in "1gh"}
    one_ab = {("1", x): x for x in "1ab"} | {(x, "1"): x for x in "1ab"}
    one_ab |= {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "b"}
    structures = dict(library)
    structures |= {"chain2-min": _chain_min(["0", "1"]), "chain3-min": _chain_min(["0", "1", "2"])}
    structures |= {"z3": _commutative_monoid(z3), "monoid-1ab": _commutative_monoid(one_ab)}
    structures["left-zero-antichain"] = left_zero_antichain
    structures |= non_commutative
    dropped = {}
    for name, m in structures.items():
        T = monoidal_nerve(m, 3)
        cat, data = m.category, [two_simplex_data(label) for label in T.levels[2]]
        found = _boundaries(T.levels, T.faces, 3)
        kept = []
        # the scalar rule: x2 . (x0 (x) id A01) = x1 . (id A23 (x) x3), one boundary at a time
        for bt in found:
            x0, x1, x2, x3 = (data[k] for k in bt)
            left = cat.compose(x2[3], m.tensor_mor(x0[3], cat.id_of(x3[2])))
            right = cat.compose(x1[3], m.tensor_mor(cat.id_of(x0[0]), x3[3]))
            if left == right:
                kept.append(bt)
        assert sorted(zip(*T.faces[3])) == kept, name
        dropped[name] = len(found) - len(kept)
    assert dropped["zmonoid"] > 0


def test_only_squares_that_can_fail_are_evaluated(monkeypatch):
    # the two composites of a square are parallel in a thin category whose
    # composites are typed, so its level 3 is every boundary, unevaluated
    squares = []
    commuting = catsset.nerve._commuting
    monkeypatch.setattr(catsset.nerve, "_commuting", lambda m, bs: squares.append(m) or commuting(m, bs))
    monoidal_nerve(boolean_or(), 4)
    monoidal_nerve(_chain_min(["0", "1", "2"]), 3)
    assert squares == []
    m = zmonoid()
    monoidal_nerve(m, 3)
    assert squares.pop() is m
    # a thin category with an ill-typed composite passes the strict laws, which do not
    # check the category; its constructor rejects it, so no nerve of it has squares to evaluate
    ill_typed = (
        ["x", "y"], [("1x", "x", "x"), ("1y", "y", "y")], {"x": "1x", "y": "1y"},
        {("1x", "1x"): "1x", ("1y", "1y"): "1x"},
    )
    tensor = {("x", "x"): "x", ("x", "y"): "y", ("y", "x"): "y", ("y", "y"): "x"}
    mor_tensor = {(f, g): "1" + tensor[f[1], g[1]] for f in ("1x", "1y") for g in ("1x", "1y")}
    m = FinMonoidalStructure(FinCategory._trusted(*ill_typed), tensor, mor_tensor, "x")
    assert validate_strict_monoidal(m) == []
    with pytest.raises(StructuralError, match=r"left identity at \('1y',\): id \. 1y = 1x"):
        FinCategory(*ill_typed)
    assert squares == []


def test_maps_from_catalan_restrict_bijectively_to_level_three(library, catalan4, left_zero_antichain):
    # a nerve is 3-coskeletal, so maps C_4 -> N(m)_4 are maps C_3 -> N(m)_3:
    # restricting to levels 0..3 is one-to-one and onto
    structures = dict(library)
    structures["left-zero-antichain"] = left_zero_antichain
    structures |= {"chain2-min": _chain_min(["0", "1"]), "chain3-min": _chain_min(["0", "1", "2"])}
    catalan3 = catalan_sset(3)
    for name, m in structures.items():
        T3, T4 = monoidal_nerve(m, 3), monoidal_nerve(m, 4)
        assert T3.levels == T4.levels[:4], name
        restricted = [tuple(map(tuple, comps[:4])) for comps in _enumerate_level_maps(catalan4, T4, 4, False)]
        found = {tuple(map(tuple, comps)) for comps in _enumerate_level_maps(catalan3, T3, 3, False)}
        assert restricted and len(set(restricted)) == len(restricted), name
        assert set(restricted) == found, name


def test_poset_nerves_are_two_coskeletal(nerve_two5):
    assert is_r_coskeletal_up_to(nerve_two5, 2, 5)
    nerve = monoidal_nerve(chain3_max(), 4)
    assert is_r_coskeletal_up_to(nerve, 2, 4)


def test_zmonoid_nerve_shape():
    nerve = monoidal_nerve(zmonoid(), 4)
    assert [len(nerve.level(n)) for n in range(4)] == [1, 1, 2, 10]
    # commuting squares over the idempotent monoid: x2.x0 == x1.x3
    mult = {"11": "1", "1z": "z", "z1": "z", "zz": "z"}
    brute = sum(
        1
        for x0 in "1z"
        for x1 in "1z"
        for x2 in "1z"
        for x3 in "1z"
        if mult[x2 + x0] == mult[x1 + x3]
    )
    assert brute == 10
    # a 3-boundary with no filler: the nerve is not 2-coskeletal
    assert not is_r_coskeletal_up_to(nerve, 2, 4)
    assert is_r_coskeletal_up_to(monoidal_nerve(zmonoid(), 5), 3, 5)


def test_nerve_isomorphic_to_dyck_presentation(catalan4, nerve_two4):
    assert len(isomorphisms(catalan4, nerve_two4)) == 1


def test_relabeling_induces_isomorphism(nerve_two4):
    relabeled = poset_as_category(
        MonoidalPoset(
            chain_poset(["F", "T"]),
            {("F", "F"): "F", ("F", "T"): "T", ("T", "F"): "T", ("T", "T"): "T"},
            "F",
        )
    )
    other = monoidal_nerve(relabeled, 4)
    assert len(isomorphisms(nerve_two4, other)) == 1


def test_budget_guard(monkeypatch):
    with pytest.raises(BudgetExceededError):
        monoidal_nerve(chain3_max(), 4, max_simplices=10)
    m = chain3_max()
    sizes = [len(level) for level in monoidal_nerve(m, 3).levels]
    below = sum(sizes[:3])
    joined = []
    real_join = catsset.nerve._join
    monkeypatch.setattr(catsset.nerve, "_join", lambda *args: joined.append(args[2]) or real_join(*args))
    # levels 0..2 alone exceed the budget: the check before the level-3 join raises
    with pytest.raises(BudgetExceededError, match=f"level 2 needs more than {below - 1} "):
        monoidal_nerve(m, 4, max_simplices=below - 1)
    assert joined == []
    # levels 0..2 fit and level 3 does not: adding level 3 raises, after its join
    with pytest.raises(BudgetExceededError, match=f"level 3 needs more than {below + sizes[3] - 1} "):
        monoidal_nerve(m, 4, max_simplices=below + sizes[3] - 1)
    assert joined == [3]
    assert monoidal_nerve(m, 3, max_simplices=below + sizes[3]).size() == below + sizes[3]


def test_invalid_structure_rejected():
    # no strict structure has a unit that acts non-trivially, and the nerve refuses the tables
    # left unchecked, so such a unit never reaches a nerve
    m = boolean_or()
    with pytest.raises(StructuralError, match="lambda typing"):
        FinMonoidalStructure(m.category, m.obj_tensor, m.mor_tensor, "top")
    broken = _TensorData(m.category, m.obj_tensor, m.mor_tensor, "top")
    with pytest.raises(StructuralError, match="_TensorData is not a strict monoidal structure"):
        monoidal_nerve(broken, 2)
