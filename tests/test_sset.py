import copy
import gc
import json
import math
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from catsset.dyck import enumerate_dyck
from catsset.errors import BudgetExceededError, IndexOutOfRangeError, SchemaError, StructuralError
from catsset.library import boolean_or, zmonoid
from catsset.nerve import monoidal_nerve
from catsset.sset import (
    SimplicialViolation,
    TruncatedSSet,
    _add_level,
    _boundaries,
    _commutes,
    _join,
    _take,
    boundaries,
    catalan_sset,
    check_simplicial_identities,
    coskeletal_extension,
    fillers,
    is_r_coskeletal_up_to,
    is_simplicial_map,
    isomorphisms,
    point_sset,
    simplicial_maps,
)

FREE = "UDUD"
UNIT = "UUDD"


def test_level_sizes(catalan6):
    assert [len(catalan6.level(n)) for n in range(7)] == [1, 2, 5, 14, 42, 132, 429]
    single = catalan_sset(0)
    assert single.levels == (("UD",),)



@pytest.mark.parametrize(
    "query, error",
    [
        pytest.param(lambda S: S.face(-1, 0, "UDUDUDUD"), IndexOutOfRangeError, id="face-negative-level"),
        pytest.param(lambda S: S.face(0, 0, "UD"), IndexOutOfRangeError, id="face-of-a-vertex"),
        pytest.param(lambda S: S.face(4, 0, "UDUDUDUDUD"), IndexOutOfRangeError, id="face-above-top"),
        pytest.param(lambda S: S.face(3, 4, "UDUDUDUD"), IndexOutOfRangeError, id="face-index-too-large"),
        pytest.param(lambda S: S.face(3, -1, "UDUDUDUD"), IndexOutOfRangeError, id="face-negative-index"),
        pytest.param(lambda S: S.face(3, 0, "UDUDUD"), StructuralError, id="face-unknown-label"),
        pytest.param(lambda S: S.degeneracy(3, 0, "UDUDUDUD"), IndexOutOfRangeError, id="degeneracy-of-the-top"),
        pytest.param(lambda S: S.degeneracy(-1, 0, "UDUDUDUD"), IndexOutOfRangeError, id="degeneracy-negative-level"),
        pytest.param(lambda S: S.degeneracy(1, 2, "UDUD"), IndexOutOfRangeError, id="degeneracy-index-too-large"),
        pytest.param(lambda S: S.degeneracy(1, 0, "UD"), StructuralError, id="degeneracy-unknown-label"),
        pytest.param(lambda S: S.face_vector(-1, "UDUDUDUD"), IndexOutOfRangeError, id="face-vector-negative-level"),
        pytest.param(lambda S: S.face_vector(2, "UDUD"), StructuralError, id="face-vector-unknown-label"),
        pytest.param(lambda S: S.degeneracy_witness(4, "UD"), IndexOutOfRangeError, id="witness-above-top"),
        pytest.param(lambda S: S.degeneracy_witness(2, "UUDD"), StructuralError, id="witness-unknown-label"),
        pytest.param(lambda S: S.is_degenerate(-1, "UUDDUDUD"), IndexOutOfRangeError, id="degenerate-negative-level"),
        pytest.param(lambda S: S.is_degenerate(0, "UUDD"), StructuralError, id="degenerate-unknown-label"),
    ],
)
def test_label_queries_reject_bad_levels_indices_and_labels(query, error):
    # a negative level used to read the top level, and the rest raised bare IndexError or KeyError
    with pytest.raises(error):
        query(catalan_sset(3))


def test_label_queries_in_range():
    S = catalan_sset(3)
    assert S.face(3, 0, "UDUDUDUD") == "UDUDUD"
    assert S.degeneracy(0, 0, "UD") == "UUDD"
    assert S.face_vector(0, "UD") == ()
    assert S.face_vector(2, "UUDDUD") == ("UDUD", "UDUD", "UUDD")
    assert S.degeneracy_witness(2, "UUDDUD") == 0 and S.is_degenerate(2, "UUDDUD")
    assert not S.is_degenerate(3, "UDUDUDUD")

def test_identities_pass(catalan8, nerve_two5):
    assert check_simplicial_identities(catalan8) == []
    assert check_simplicial_identities(nerve_two5) == []


def _editable_tables(S):
    """Copies of the levels and index tables of S that a test may edit."""
    return (
        [list(lv) for lv in S.levels],
        [[list(t) for t in tables] for tables in S.faces],
        [[list(t) for t in tables] for tables in S.degens],
    )


def _scalar_identities(S):
    """The identity check one simplex and one index pair at a time: the
    reference the column check must match in content and order."""
    bad = []
    F, D, L = S.faces, S.degens, S.levels
    for n in range(2, S.N + 1):
        for x in range(len(L[n])):
            for j in range(n + 1):
                dj = F[n][j][x]
                for i in range(j):
                    if F[n - 1][i][dj] != F[n - 1][j - 1][F[n][i][x]]:
                        bad.append(SimplicialViolation("d_i d_j = d_{j-1} d_i", n, (i, j), L[n][x]))
    for n in range(S.N - 1):
        for x in range(len(L[n])):
            for j in range(n + 1):
                sj = D[n][j][x]
                for i in range(j + 1):
                    if D[n + 1][i][sj] != D[n + 1][j + 1][D[n][i][x]]:
                        bad.append(SimplicialViolation("s_i s_j = s_{j+1} s_i", n, (i, j), L[n][x]))
    for n in range(S.N):
        for x in range(len(L[n])):
            for j in range(n + 1):
                sj = D[n][j][x]
                for i in range(n + 2):
                    got = F[n + 1][i][sj]
                    if i in (j, j + 1):
                        want = x
                    elif i < j:
                        want = D[n - 1][j - 1][F[n][i][x]]
                    else:
                        want = D[n - 1][j][F[n][i - 1][x]]
                    if got != want:
                        bad.append(SimplicialViolation("d_i s_j", n, (i, j), L[n][x]))
    return bad


def test_identities_catch_fault_injection():
    levels, faces, degens = _editable_tables(catalan_sset(3))
    # reroute one face of the all-free 3-simplex to a different triangle
    faces[3][0][levels[3].index("UDUDUDUD")] = levels[2].index("UDUUDD")
    broken = TruncatedSSet(levels, faces, degens)
    report = check_simplicial_identities(broken)
    assert report
    assert any(v.simplex == "UDUDUDUD" and v.dimension == 3 for v in report)
    assert report == _scalar_identities(broken)


def _single_cell_rewrites(S):
    """Copies of S, each with one table cell pointed at another simplex.

    Per level, every cell of one face table and of one degeneracy table
    (the middle one) is rewritten, one copy per cell; tables into a level
    of one simplex have no other value and are left out.
    """
    for n in range(S.N + 1):
        for key, tables, target in ((1, S.faces[n], n - 1), (2, S.degens[n], n + 1)):
            if not tables or len(S.levels[target]) < 2:
                continue
            i = n // 2
            for k, v in enumerate(tables[i]):
                edited = _editable_tables(S)
                edited[key][n][i][k] = (v + 1) % len(S.levels[target])
                yield TruncatedSSet(*edited)


@pytest.mark.parametrize("name", ["catalan4", "nerve_two4"])
def test_column_identities_match_the_scalar_check(name, request):
    S = request.getfixturevalue(name)
    reports = [check_simplicial_identities(T) for T in _single_cell_rewrites(S)]
    assert reports == [_scalar_identities(T) for T in _single_cell_rewrites(S)]
    # 5 + 14 + 42 face cells at levels 2-4 (level 1's faces all land on
    # the one vertex) and 1 + 2 + 5 + 14 degeneracy cells at levels 0-3
    assert len(reports) == 83
    # each moved cell breaks some identity, mostly at several simplices,
    # so the order across simplices is compared too
    assert all(reports)
    assert sum(len({v.simplex for v in r}) > 1 for r in reports) > 40


#: The sets the identity properties rewrite, built once.
REWRITE_BASES = {
    "catalan-3": catalan_sset(3),
    "catalan-4": catalan_sset(4),
    "two-or-nerve-4": monoidal_nerve(boolean_or(), 4),
    "zmonoid-nerve-3": monoidal_nerve(zmonoid(), 3),
}


@st.composite
def multi_cell_rewrites(draw):
    """A set of :data:`REWRITE_BASES` with one to four table cells pointed elsewhere.

    A third of the draws rewrite only face cells of degenerate simplices,
    which the first pass of the identity check reads through d_i s_j
    alone, and a third only face cells of non-degenerate ones; the rest
    rewrite any face or degeneracy cell.
    """
    S = REWRITE_BASES[draw(st.sampled_from(sorted(REWRITE_BASES)))]
    cells = [
        (key, n, i, x)
        for key, tables, step in ((1, S.faces, -1), (2, S.degens, 1))
        for n in range(S.N + 1)
        if tables[n] and len(S.levels[n + step]) > 1
        for i in range(len(tables[n]))
        for x in range(len(S.levels[n]))
    ]
    kind = draw(st.sampled_from(["any cell", "degenerate faces", "non-degenerate faces"]))
    if kind != "any cell":
        degenerate = kind == "degenerate faces"
        cells = [c for c in cells if c[0] == 1 and (S._witnesses(c[1])[c[3]] is not None) == degenerate]
    edited = _editable_tables(S)
    for key, n, i, x in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4, unique=True)):
        size = len(S.levels[n - 1 if key == 1 else n + 1])
        edited[key][n][i][x] = (edited[key][n][i][x] + draw(st.integers(1, size - 1))) % size
    return TruncatedSSet(*edited)


@settings(max_examples=150, deadline=None)
@given(multi_cell_rewrites())
def test_identity_check_matches_the_scalar_check_on_rewrites(T):
    assert check_simplicial_identities(T) == _scalar_identities(T)


@pytest.mark.parametrize(
    "family, key, n, i, cell, at",
    [
        # d_2 of the 3-simplex s_0 s_0 UDUD, which d_i s_j also reads at s_0 UDUD
        pytest.param("d_i d_j = d_{j-1} d_i", 1, 3, 2, "UUUDDDUD", "UUUDDDUD", id="d_i d_j"),
        # s_1 of the 2-simplex s_0 s_0 UD, which s_i s_j also reads at s_0 UD
        pytest.param("s_i s_j = s_{j+1} s_i", 2, 2, 1, "UUUDDD", "UUUDDD", id="s_i s_j"),
        # d_3 of the top simplex s_0 y, y = s_0 UDUDUD, read by d_i s_j at y and by d_i d_j
        pytest.param("d_i s_j", 1, 4, 3, "UUUDDDUDUD", "UUDDUDUD", id="d_i s_j"),
    ],
)
def test_faults_at_degenerate_simplices_are_found_and_listed(family, key, n, i, cell, at):
    # every instance the rewritten cell breaks sits at a degenerate simplex:
    # the face-face ones are not read by the check's first pass
    C = REWRITE_BASES["catalan-4"]
    edited = _editable_tables(C)
    x = C.levels[n].index(cell)
    size = len(C.levels[n - 1 if key == 1 else n + 1])
    edited[key][n][i][x] = (edited[key][n][i][x] + 1) % size
    T = TruncatedSSet(*edited)
    report = check_simplicial_identities(T)
    assert report == _scalar_identities(T)
    assert any(v.identity == family and v.simplex == at for v in report)
    assert all(C.is_degenerate(v.dimension, v.simplex) for v in report)


def test_take_composes_columns():
    assert _take([5, 6, 7], [2, 0, 2]) == (7, 5, 7)
    assert _take([5, 6, 7], (1,)) == (6,)
    assert _take((5, 6, 7), ()) == ()
    assert _take(range(4), range(1, 3)) == (1, 2)


def _empty_sset(N):
    """The empty simplicial set truncated at N, loaded from its JSON form."""
    doc = {
        "schema_version": 1,
        "kind": "truncated_sset",
        "levels": [[] for _ in range(N + 1)],
        "faces": [[[]] * (n + 1) for n in range(1, N + 1)],
        "degens": [[[]] * (n + 1) for n in range(N)],
    }
    return TruncatedSSet.from_json_dict(doc)


def _coskeletal_by_boundary(S, r, maxdim):
    """The definition: every boundary in dimensions r+1 .. maxdim has one filler."""
    return all(
        len(fillers(S, b)) == 1 for n in range(r + 1, maxdim + 1) for b in boundaries(S, n)
    )


@pytest.mark.parametrize(
    "build", [pytest.param(lambda: point_sset(5), id="point-5"), pytest.param(lambda: _empty_sset(3), id="empty-3")]
)
def test_levels_of_zero_and_one_simplices(build):
    S = build()
    assert check_simplicial_identities(S) == _scalar_identities(S) == []
    # each boundary of the point fills once, and the empty set has none
    for r in range(S.N):
        assert is_r_coskeletal_up_to(S, r, S.N) is _coskeletal_by_boundary(S, r, S.N) is True
    top = coskeletal_extension(S, S.N + 1).levels[-1]
    assert len(top) == len(boundaries(S, S.N + 1)) == len(S.levels[0])


def _with_top_edited(S, drop=None, copy_of=None, faces_of_new=None):
    """S with its top simplex ``drop`` removed, or with one top simplex added.

    The added simplex ``new`` carries the face vector of ``copy_of`` (a
    doubled filler) or the index vector ``faces_of_new``.  Only
    non-degenerate top simplices may be dropped, so no degeneracy points
    at them.
    """
    levels, faces, degens = _editable_tables(S)
    N = S.N
    if drop is not None:
        k = levels[N].index(drop)
        assert S.degeneracy_witness(N, drop) is None
        del levels[N][k]
        for table in faces[N]:
            del table[k]
        degens[N - 1] = [[v - (v > k) for v in table] for table in degens[N - 1]]
    else:
        vector = faces_of_new or [table[levels[N].index(copy_of)] for table in faces[N]]
        levels[N].append("new")
        for table, v in zip(faces[N], vector):
            table.append(v)
    return TruncatedSSet(levels, faces, degens)


def _not_a_boundary(S, n):
    found = set(_boundaries(S.levels, S.faces, n))
    return next(t for t in product(range(len(S.levels[n - 1])), repeat=n + 1) if t not in found)


@pytest.mark.parametrize(
    "build, r, want",
    [
        pytest.param(lambda: _with_top_edited(catalan_sset(3), drop="UDUDUDUD"), 2, False, id="missing-filler"),
        pytest.param(lambda: _with_top_edited(catalan_sset(3), copy_of="UDUUDDUD"), 2, False, id="doubled-filler"),
        pytest.param(
            lambda: _with_top_edited(catalan_sset(3), faces_of_new=_not_a_boundary(catalan_sset(3), 3)),
            2,
            True,
            id="extra-non-boundary-vector",
        ),
        pytest.param(lambda: catalan_sset(6), 2, True, id="catalan-6"),
        pytest.param(lambda: catalan_sset(4), 1, False, id="catalan-4-r1"),
        pytest.param(lambda: monoidal_nerve(boolean_or(), 5), 2, True, id="two-or-5"),
        pytest.param(lambda: monoidal_nerve(zmonoid(), 5), 2, False, id="zmonoid-5-r2"),
        pytest.param(lambda: monoidal_nerve(zmonoid(), 5), 3, True, id="zmonoid-5-r3"),
    ],
)
def test_level_coskeletality_matches_the_definition(build, r, want):
    S = build()
    assert is_r_coskeletal_up_to(S, r, S.N) == _coskeletal_by_boundary(S, r, S.N) == want


def test_edited_tops_are_simplicial_sets():
    # the coskeletality cases above differ from C only in fillers
    C = catalan_sset(3)
    for S in (_with_top_edited(C, drop="UDUDUDUD"), _with_top_edited(C, copy_of="UDUUDDUD")):
        assert check_simplicial_identities(S) == []
        assert boundaries(S, 3) == boundaries(C, 3)


@pytest.mark.parametrize(
    "table, shown",
    [
        pytest.param([0, "x", -1, 0, 0], "'x'", id="string-before-negative"),
        pytest.param([0, 0, 5, "x", -1], "5", id="too-large-first"),
        pytest.param([0, -1, "x", 0, 0], "-1", id="negative-first"),
        pytest.param([0.0, 0, 0, 0, 0], "0.0", id="float"),
        pytest.param([0, True, 0, 0, 0], "True", id="bool"),
        pytest.param((0, 1, 1, 0, 1.0), "1.0", id="float-last-in-tuple"),
    ],
)
def test_table_validator_names_the_first_bad_value(catalan2, table, shown):
    levels, faces, degens = _editable_tables(catalan2)
    faces[2][1] = table
    with pytest.raises(StructuralError, match=re.escape(f"face table 1 at level 2 has index {shown} outside level 1")):
        TruncatedSSet(levels, faces, degens)


def test_construction_rejects_partial_tables(catalan2):
    levels, faces, degens = _editable_tables(catalan2)
    del faces[2][0][levels[2].index("UDUDUD")]
    with pytest.raises(StructuralError):
        TruncatedSSet(levels, faces, degens)


def test_boundary_counts(catalan4):
    assert len(boundaries(catalan4, 1)) == 1
    assert len(boundaries(catalan4, 2)) == 8
    assert len(boundaries(catalan4, 3)) == 14
    assert len(boundaries(catalan4, 4)) == 42


def test_boundaries_dimension_two_oracle(catalan4):
    # brute force over all edge triples with matching endpoints
    edges = catalan4.level(1)
    brute = {
        (a, b, c)
        for a, b, c in product(edges, repeat=3)
        # single vertex, so every triple is compatible
    }
    assert set(boundaries(catalan4, 2)) == brute


def _brute_force_boundaries(S, n):
    # every facet tuple over level n-1, kept when d_i x_j = d_{j-1} x_i for i < j
    return {
        xs
        for xs in product(S.level(n - 1), repeat=n + 1)
        if all(
            S.face(n - 1, i, xs[j]) == S.face(n - 1, j - 1, xs[i])
            for j in range(n + 1)
            for i in range(j)
        )
    }


@pytest.mark.parametrize(
    "build, n",
    [
        pytest.param(catalan_sset, 3, id="catalan-3"),
        pytest.param(lambda N: monoidal_nerve(boolean_or(), N), 3, id="two-or-3"),
        pytest.param(lambda N: monoidal_nerve(boolean_or(), N), 4, id="two-or-4"),
        pytest.param(lambda N: monoidal_nerve(zmonoid(), N), 3, id="zmonoid-3"),
        pytest.param(lambda N: monoidal_nerve(zmonoid(), N), 4, id="zmonoid-4"),
    ],
)
def test_boundaries_match_brute_force(build, n):
    S = build(n)
    found = boundaries(S, n)
    assert len(found) == len(set(found))
    assert set(found) == _brute_force_boundaries(S, n)


@pytest.mark.parametrize(
    "build, n",
    [
        pytest.param(catalan_sset, 3, id="catalan-3"),
        pytest.param(lambda N: monoidal_nerve(boolean_or(), N), 3, id="two-or-3"),
        pytest.param(lambda N: monoidal_nerve(boolean_or(), N), 4, id="two-or-4"),
        pytest.param(lambda N: monoidal_nerve(zmonoid(), N), 3, id="zmonoid-3"),
        pytest.param(lambda N: monoidal_nerve(zmonoid(), N), 4, id="zmonoid-4"),
    ],
)
def test_boundaries_come_in_index_order(build, n):
    # the join lists its tuples in lexicographic order of facet indices
    S = build(n)
    position = S._position[n - 1]
    brute = sorted(tuple(position[x] for x in xs) for xs in _brute_force_boundaries(S, n))
    assert _boundaries(S.levels, S.faces, n) == brute


@pytest.mark.parametrize(
    "build, N, n",
    [
        pytest.param(catalan_sset, 7, 3, id="catalan7-3"),
        pytest.param(catalan_sset, 7, 7, id="catalan7-7"),
        pytest.param(catalan_sset, 7, 8, id="catalan7-8"),
        pytest.param(lambda N: monoidal_nerve(zmonoid(), N), 5, 5, id="zmonoid-5"),
    ],
)
def test_boundaries_are_sorted_and_distinct(build, N, n):
    S = build(N)
    found = _boundaries(S.levels, S.faces, n)
    assert found == sorted(set(found))


def test_catalan_boundary_counts_are_catalan_numbers(catalan7):
    for n in range(3, 8):
        assert len(boundaries(catalan7, n)) == math.comb(2 * n + 2, n + 1) // (n + 2)


@pytest.mark.parametrize(
    "inputs, call",
    [
        pytest.param(lambda: (zmonoid(), 5), monoidal_nerve, id="zmonoid-nerve-5"),
        pytest.param(lambda: (catalan_sset(2), 6), coskeletal_extension, id="extension-2-to-6"),
        pytest.param(lambda: (catalan_sset(6), 2, 6), is_r_coskeletal_up_to, id="coskeletal-6"),
    ],
)
def test_level_kernels_leave_no_cyclic_garbage(inputs, call):
    # a self-referencing closure in the join would leave a reference
    # cycle per call, holding its tables until the cyclic collector runs
    args = inputs()
    gc.collect()
    gc.disable()
    try:
        call(*args)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_join_needs_no_unique_fillers():
    # the zmonoid nerve has 3-boundaries without fillers, yet its
    # 5-boundaries are still enumerated and each fills uniquely
    nerve = monoidal_nerve(zmonoid(), 5)
    assert any(not fillers(nerve, b) for b in boundaries(nerve, 3))
    assert not is_r_coskeletal_up_to(nerve, 2, 5)
    assert is_r_coskeletal_up_to(nerve, 3, 5)
    assert all(len(fillers(nerve, b)) == 1 for b in boundaries(nerve, 5))


def _nth(word, letter, i):
    p = -1
    for _ in range(i + 1):
        p = word.index(letter, p + 1)
    return p


def test_catalan_tables_match_string_edits():
    # cell by cell: the (i+1)-st U and D deleted for d_i, doubled for s_i; a
    # second route beside the recurrence on the last face that builds the tables
    for N in range(9):
        S = catalan_sset(N)
        for n in range(N + 1):
            assert S.level(n) == tuple(enumerate_dyck(n))
            for i in range(n + 1):
                cells = [(w, _nth(w, "U", i), _nth(w, "D", i)) for w in S.level(n)]
                if n >= 1:
                    assert [S.levels[n - 1][k] for k in S.faces[n][i]] == [
                        "".join(c for p, c in enumerate(w) if p not in (u, d))
                        for w, u, d in cells
                    ]
                if n < N:
                    assert [S.levels[n + 1][k] for k in S.degens[n][i]] == [
                        "".join(c * 2 if p in (u, d) else c for p, c in enumerate(w))
                        for w, u, d in cells
                    ]
            if n == N:
                assert S.degens[n] == ()


def test_fillers(catalan4):
    assert fillers(catalan4, (FREE, UNIT, FREE)) == []
    assert fillers(catalan4, (FREE, FREE, FREE)) == ["UDUDUD"]
    tetra = tuple(catalan4.face(3, i, "UDUDUDUD") for i in range(4))
    assert len(fillers(catalan4, tetra)) == 1
    with pytest.raises(StructuralError):
        fillers(catalan4, ("XXXX", FREE, FREE))


def test_coskeletality(catalan6, catalan4, nerve_two5):
    assert is_r_coskeletal_up_to(catalan6, 2, 6)
    assert not is_r_coskeletal_up_to(catalan4, 1, 4)
    assert is_r_coskeletal_up_to(nerve_two5, 2, 5)


def test_unique_fillers_through_dimension_six(catalan6):
    for n in range(3, 7):
        for b in boundaries(catalan6, n):
            assert len(fillers(catalan6, b)) == 1


def test_coskeletal_extension_matches(catalan6):
    ext = coskeletal_extension(catalan_sset(2), 6)
    assert [len(ext.level(n)) for n in range(7)] == [1, 2, 5, 14, 42, 132, 429]
    assert check_simplicial_identities(ext) == []
    isos = isomorphisms(ext, catalan6)
    assert len(isos) == 1
    # the isomorphism fixes the shared 2-truncation
    assert all(isos[0](n, x) == x for n in range(3) for x in ext.level(n))


def test_extension_of_a_point():
    ext = coskeletal_extension(TruncatedSSet([["pt"]], [[]], [[]]), 5)
    assert all(len(ext.level(n)) == 1 for n in range(6))
    assert check_simplicial_identities(ext) == []


def test_coskeletality_needs_a_dimension_above_r(catalan4):
    for r in range(5):
        with pytest.raises(ValueError, match="need 0 <= r < maxdim"):
            is_r_coskeletal_up_to(catalan4, r, r)


def test_extension_rejects_inconsistent_input():
    levels, faces, degens = _editable_tables(catalan_sset(3))
    faces[3][0][levels[3].index("UDUDUDUD")] = levels[2].index("UDUUDD")
    with pytest.raises(StructuralError):
        coskeletal_extension(TruncatedSSet(levels, faces, degens), 4)


def test_new_level_needs_the_forced_degeneracies(catalan2):
    # a level 3 with no simplices: four empty face columns, so no s_i x has its forced face vector
    tables = [list(catalan2.levels), list(catalan2.faces), list(catalan2.degens)]
    with pytest.raises(StructuralError, match="not compatible"):
        _add_level(*tables, [()] * 4, 1_000_000)
    assert tables == [list(catalan2.levels), list(catalan2.faces), list(catalan2.degens)]


def test_extension_budget():
    with pytest.raises(BudgetExceededError):
        coskeletal_extension(catalan_sset(2), 6, max_simplices=50)


def test_max_simplices_bounds_the_returned_set(library):
    # one size rule: a builder's budget is the size of the set it returns, whatever its top level
    builds = {
        f"nerve-{name}-{N}": lambda budget, m=m, N=N: monoidal_nerve(m, N, max_simplices=budget)
        for name, m in library.items()
        for N in range(6)
    }
    for N in range(3, 7):
        builds[f"extension-catalan-2-to-{N}"] = lambda budget, N=N: coskeletal_extension(
            catalan_sset(2), N, max_simplices=budget
        )
    for name, build in builds.items():
        size = build(1_000_000).size()
        assert build(size).size() == size, name
        with pytest.raises(BudgetExceededError):
            build(size - 1)


def _built_sets(library):
    """The sets the level builders make from a nerve or an extension, by name."""
    sets = {f"nerve-{name}-5": monoidal_nerve(m, 5) for name, m in library.items()}
    sets["extension-catalan-3-to-7"] = coskeletal_extension(catalan_sset(3), 7)
    for name, m in library.items():
        sets[f"extension-{name}-3-to-5"] = coskeletal_extension(monoidal_nerve(m, 3), 5)
    return sets


def _trusted_sets(library):
    """Every set the trust tests build through the level builders, by name."""
    return {f"catalan-{n}": catalan_sset(n) for n in range(9)} | _built_sets(library)


def test_marked_levels_are_the_joins(library):
    for name, T in _trusted_sets(library).items():
        # C's levels come from the recurrence, so no level of C is marked; a nerve's level 3
        # keeps only the commuting boundaries, so the levels from 4 up are marked
        assert T._cosk == (T.N + 1 if name.startswith("catalan") else 4), name
        for n in range(T._cosk, T.N + 1):
            fresh = _boundaries(T.levels, T.faces, n)
            index = T._filler_index(n)
            assert sorted(index) == sorted(fresh), (name, n)
            assert all(len(xs) == 1 for xs in index.values()), (name, n)
        for n in range(1, T.N + 1):
            lower = T.levels[n - 1]
            fresh = [tuple(lower[x] for x in t) for t in _boundaries(T.levels, T.faces, n)]
            assert boundaries(T, n) == fresh, (name, n)
        assert TruncatedSSet(T.levels, T.faces, T.degens)._cosk == T.N + 1, name
        assert TruncatedSSet.from_json_text(T.to_json_text())._cosk == T.N + 1, name
    for name, m in library.items():
        for N in range(6):
            assert monoidal_nerve(m, N)._cosk == min(N + 1, 4), (name, N)


def test_builder_output_passes_the_public_constructor(library):
    # the builders skip the constructor's checks, so each set they build must pass them
    for name, T in _trusted_sets(library).items():
        assert "_position" not in vars(T), name
        checked = TruncatedSSet(T.levels, T.faces, T.degens)
        assert (checked.levels, checked.faces, checked.degens) == (T.levels, T.faces, T.degens), name
        assert check_simplicial_identities(T) == [], name
        want = tuple({label: k for k, label in enumerate(lv)} for lv in T.levels)
        assert T._position == checked._position == want, name


def _sorted_by_label_ranks(S, n):
    """The boundary tuples sorted as tuples of their facets' label ranks: the order in which
    the level builders once sorted the join's tuples before labelling them."""
    lower = S.levels[n - 1]
    order = sorted(range(len(lower)), key=lower.__getitem__)
    rank = sorted(order, key=order.__getitem__)
    return sorted(_boundaries(S.levels, S.faces, n), key=lambda t: [rank[x] for x in t])


def test_join_in_label_order_is_the_rank_sort(library, left_zero_antichain):
    sets = _trusted_sets(library)
    for N in range(3, 6):
        sets[f"nerve-left-zero-antichain-{N}"] = monoidal_nerve(left_zero_antichain, N)
    for name, m in {**library, "left-zero-antichain": left_zero_antichain}.items():
        sets[f"extension-{name}-3-to-5"] = coskeletal_extension(monoidal_nerve(m, 3), 5)
    for name, S in sets.items():
        for n in range(3, S.N + 1):
            lower = S.levels[n - 1]
            cols = _join(S.levels, S.faces, n, sorted(range(len(lower)), key=lower.__getitem__))
            assert len(cols) == n + 1, (name, n)
            assert list(zip(*cols)) == _sorted_by_label_ranks(S, n), (name, n)
            assert list(zip(*_join(S.levels, S.faces, n, None))) == _boundaries(S.levels, S.faces, n)


def _join_by_backtracking(S, n, order, steps):
    """The facet tuples over level n - 1 of S, lexicographic in ``order``, as n + 1 columns.

    A depth-first search extends a partial tuple x_0 .. x_{m-1} by each x,
    taken in ``order``, with d_i x = d_{m-1} x_i for every i < m, the faces
    read one label at a time by ``S.face``.  ``steps[m]`` gets the number of
    extensions of each partial tuple of length m.
    """
    below = S.levels[n - 1]
    faces_of = [tuple(S.face(n - 1, i, x) for i in range(n)) for x in below]
    # the candidates for x_m, by the face d_0 x_m = d_{m-1} x_0 that pins them first
    by_first = {}
    for x in order:
        by_first.setdefault(faces_of[x][0], []).append(x)
    found = []

    def extend(xs):
        m = len(xs)
        if m == n + 1:
            found.append(xs)
            return
        pinned = by_first.get(faces_of[xs[0]][m - 1], ())
        grown = [x for x in pinned if all(faces_of[x][i] == faces_of[xs[i]][m - 1] for i in range(1, m))]
        steps[m].append(len(grown))
        for x in grown:
            extend((*xs, x))

    for x in order:
        extend((x,))
    return [tuple(c) for c in zip(*found)] or [()] * (n + 1)


def _identities_broken_at_two():
    """Levels v; e, f; t with d_0 t = d_2 t = e and d_1 t = f, built by the constructor: the
    identities fail, and the 3-join keeps x_1 = t after x_0 = t but finds no x_2 with d_0 x_2 = f."""
    return TruncatedSSet([["v"], ["e", "f"], ["t"]], [[], [[0, 0], [0, 0]], [[0], [1], [0]]], [[[0]], [[0, 0], [0, 0]], []])


def test_join_matches_a_backtracking_enumerator(library, left_zero_antichain, catalan6):
    cases = [(f"nerve-{name}-5", monoidal_nerve(m, 5), (4, 5)) for name, m in library.items()]
    cases.append(("nerve-left-zero-antichain-4", monoidal_nerve(left_zero_antichain, 4), (4,)))
    cases.append(("catalan-6", catalan6, (4, 5, 6)))
    cases.append(("identities-broken-at-2", _identities_broken_at_two(), (2, 3)))
    assert check_simplicial_identities(cases[-1][1])
    # per join step, how its partial tuples fared: the join drops some by compress when none
    # branches, copies through the partial behind each tuple when one does, and may keep none
    seen = set()
    for name, S, dims in cases:
        for n in dims:
            lower = S.levels[n - 1]
            for order in (None, sorted(range(len(lower)), key=lower.__getitem__)):
                steps = {m: [] for m in range(1, n + 1)}
                want = _join_by_backtracking(S, n, order or range(len(lower)), steps)
                assert [tuple(c) for c in _join(S.levels, S.faces, n, order)] == want, (name, n, order is None)
                for hits in filter(None, steps.values()):
                    seen.add("branch" if max(hits) > 1 else "empty" if not any(hits) else "drop" if not all(hits) else "one")
    assert seen == {"one", "drop", "branch", "empty"}


def _witnesses_by_definition(S, n):
    """Per simplex x of level n, the smallest i with s_i d_i x = x, or None."""
    return tuple(
        next((i for i in range(n) if S.degens[n - 1][i][S.faces[n][i][x]] == x), None) for x in range(len(S.levels[n]))
    )


def test_witnesses_match_their_definition(library, left_zero_antichain):
    sets = [catalan_sset(7), monoidal_nerve(left_zero_antichain, 4), *(monoidal_nerve(m, 5) for m in library.values())]
    for S in sets:
        for n in range(S.N + 1):
            assert S._witnesses(n) == _witnesses_by_definition(S, n)
            assert S.nondegenerate(n) == tuple(x for x, w in zip(S.levels[n], _witnesses_by_definition(S, n)) if w is None)
    # x: s_0 d_0 x = s_1 d_1 x = x, and the smaller index wins; y: s_0 only; z: s_1 only; b: none
    edited = TruncatedSSet(
        [["v"], ["a", "b"], ["x", "y", "z"]],
        [[], [[0, 0], [0, 0]], [[0, 1, 0], [0, 0, 1], [1, 1, 1]]],
        [[[0]], [[0, 1], [0, 2]], []],
    )
    want = [(None,), (0, None), (0, 0, 1)]
    assert [edited._witnesses(n) for n in range(3)] == [_witnesses_by_definition(edited, n) for n in range(3)] == want


def _unique_fillers_by_brute_force(S, n):
    """Whether every boundary at level n is the face vector of exactly one simplex."""
    index = _grouped_by_brute_force(S, n)
    return all(len(index.get(b, ())) == 1 for b in _boundaries(S.levels, S.faces, n))


def test_handed_over_filler_indexes_are_the_indexes(library):
    for name, T in _trusted_sets(library).items():
        # _add_level indexes each level it adds, and an extension keeps its input's indexes
        if name.startswith("catalan"):
            first = T.N + 1
        else:
            first = 4 if name == "extension-catalan-3-to-7" else 3
        assert sorted(T._filler_cache) == list(range(first, T.N + 1)), name
        for n, index in T._filler_cache.items():
            assert index == _grouped_by_brute_force(T, n), (name, n)
        checked = TruncatedSSet(T.levels, T.faces, T.degens)
        loaded = TruncatedSSet.from_json_text(T.to_json_text())
        assert checked._filler_cache == loaded._filler_cache == {}, name
        unique = [None, *(_unique_fillers_by_brute_force(T, n) for n in range(1, T.N + 1))]
        for S in (T, checked):
            for n in range(1, T.N + 1):
                assert is_r_coskeletal_up_to(S, n - 1, n) == unique[n], (name, n)
            for r in range(T.N):
                assert is_r_coskeletal_up_to(S, r, T.N) == all(unique[r + 1 :]), (name, r)


def test_coskeletality_compares_with_the_sets_own_face_vectors():
    built = monoidal_nerve(boolean_or(), 4)
    levels, faces, degens = _editable_tables(built)
    for table in faces[4]:
        table[-1] = table[0]
    planted = TruncatedSSet(levels, faces, degens)
    assert is_r_coskeletal_up_to(built, 3, 4)
    assert not is_r_coskeletal_up_to(planted, 3, 4)


def _grouped_by_brute_force(S, n):
    """Face vector -> the ascending tuple of the simplices of level n carrying it."""
    index = {}
    for x in range(len(S.levels[n])):
        index.setdefault(tuple(table[x] for table in S.faces[n]), []).append(x)
    return {vector: tuple(xs) for vector, xs in index.items()}


def test_filler_index_on_both_paths(catalan4, library):
    sets = [catalan_sset(5), *(monoidal_nerve(m, 4) for m in library.values())]
    distinct = shared = 0
    for S in sets:
        for n in range(1, S.N + 1):
            index = S._filler_index(n)
            assert index == _grouped_by_brute_force(S, n)
            distinct += len(index) == len(S.levels[n])
            shared += len(index) < len(S.levels[n])
    assert distinct and shared
    # both edges of C lie over (pt, pt), so level 1 is grouped
    assert len(catalan4._filler_index(1)) == 1
    assert fillers(catalan4, ("UD", "UD")) == ["UDUD", "UUDD"]


@pytest.mark.parametrize(
    "build, added",
    [
        pytest.param(
            lambda: coskeletal_extension(catalan_sset(3), 6), (5, 6), id="extension-3-to-6"
        ),
        pytest.param(lambda: monoidal_nerve(boolean_or(), 5), (4, 5), id="two-or-5"),
    ],
)
def test_added_levels_follow_the_label_order(build, added):
    # labels are compared as strings, so "s4:10" sorts before "s4:2" and
    # the label order of these levels is not their face vectors' index order
    T = build()
    for n in added:
        assert T.levels[n] == tuple(f"s{n}:{k}" for k in range(len(T.levels[n])))
        vectors = list(zip(*T.faces[n]))
        labels = [tuple(T.levels[n - 1][x] for x in v) for v in vectors]
        assert labels == sorted(labels)
        assert vectors != sorted(vectors)


def test_extension_of_nerve_truncation(nerve_two4):
    low = TruncatedSSet(
        nerve_two4.levels[:3],
        nerve_two4.faces[:3],
        [list(nerve_two4.degens[0]), list(nerve_two4.degens[1]), []],
    )
    ext = coskeletal_extension(low, 4)
    assert [len(l) for l in ext.levels] == [len(l) for l in nerve_two4.levels]
    assert len(isomorphisms(ext, nerve_two4)) == 1


def test_isomorphisms(catalan4, nerve_two4):
    isos = isomorphisms(catalan4, nerve_two4)
    assert len(isos) == 1
    assert isos[0](1, FREE) == "top"
    assert isos[0](1, UNIT) == "bot"
    self_isos = isomorphisms(catalan4, catalan4)
    assert len(self_isos) == 1
    assert all(
        self_isos[0](n, x) == x for n in range(5) for x in catalan4.level(n)
    )
    assert isomorphisms(catalan_sset(2), point_sset(2)) == []


def test_simplicial_maps_counts(catalan4, nerve_two4):
    assert len(simplicial_maps(catalan4, nerve_two4, 3)) == 2
    assert len(simplicial_maps(catalan_sset(1), point_sset(1), 0)) == 1
    from catsset.library import chain3_max

    maps = simplicial_maps(catalan4, monoidal_nerve(chain3_max(), 4), 3)
    assert len(maps) == 3


def test_simplicial_maps_rejects_shallow_target(catalan4):
    nerve_z = monoidal_nerve(zmonoid(), 4)
    with pytest.raises(StructuralError):
        simplicial_maps(catalan4, nerve_z, 2)  # its nerve is not 2-coskeletal


def test_map_verification_negative(catalan4, nerve_two4):
    good = next(
        f for f in simplicial_maps(catalan4, nerve_two4, 3) if f(1, FREE) == "top"
    )
    comps = [good.level_map(n) for n in range(5)]
    assert is_simplicial_map(catalan4, nerve_two4, comps)
    comps[1][FREE], comps[1][UNIT] = comps[1][UNIT], comps[1][FREE]
    assert not is_simplicial_map(catalan4, nerve_two4, comps)


def _scalar_commutes(S, T, comps):
    """The commutation check one simplex at a time: the reference for ``_commutes``."""
    for n in range(1, len(comps)):
        for s, t in zip(S.faces[n], T.faces[n]):
            if any(comps[n - 1][s[x]] != t[y] for x, y in enumerate(comps[n])):
                return False
    for n in range(len(comps) - 1):
        for s, t in zip(S.degens[n], T.degens[n]):
            if any(comps[n + 1][s[x]] != t[y] for x, y in enumerate(comps[n])):
                return False
    return True


def test_commutes_matches_the_scalar_check(catalan4, nerve_two4):
    # both maps, and every rewrite of one simplex's image in one of them,
    # each of which breaks the map
    maps = [
        [[nerve_two4.levels[n].index(f(n, x)) for x in catalan4.levels[n]] for n in range(5)]
        for f in simplicial_maps(catalan4, nerve_two4, 3)
    ]
    assert len(maps) == 2
    for comps in maps:
        for n, level in enumerate(comps):
            for x, y in product(range(len(level)), range(len(nerve_two4.levels[n]))):
                edited = [list(c) for c in comps]
                edited[n][x] = y
                verdict = _commutes(catalan4, nerve_two4, edited)
                assert verdict == _scalar_commutes(catalan4, nerve_two4, edited) == (y == level[x])


def test_is_simplicial_map_rejects_bad_label_components(catalan4, nerve_two4):
    comps = [simplicial_maps(catalan4, nerve_two4, 3)[0].level_map(n) for n in range(5)]
    assert is_simplicial_map(catalan4, nerve_two4, comps)
    missing, extra, unknown, unhashable, renamed = (copy.deepcopy(comps) for _ in range(5))
    del missing[2]["UDUDUD"]
    extra[1]["UUUDDD"] = "top"
    unknown[1][FREE] = "middle"
    unhashable[1][FREE] = ["top"]
    renamed[1]["UUUDDD"] = renamed[1].pop(FREE)
    for bad in (missing, extra, unknown, unhashable, renamed):
        assert is_simplicial_map(catalan4, nerve_two4, bad) is False


def test_json_roundtrip_is_byte_exact(catalan4):
    text = catalan4.to_json_text()
    again = TruncatedSSet.from_json_text(text)
    assert again.to_json_text() == text
    assert [again.level(n) for n in range(5)] == [catalan4.level(n) for n in range(5)]


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        TruncatedSSet.from_json_text("{}")
    with pytest.raises(SchemaError):
        TruncatedSSet.from_json_text("not json")
    doc = catalan_sset(1).to_json_dict()
    doc["kind"] = "something"
    with pytest.raises(SchemaError):
        TruncatedSSet.from_json_dict(doc)


def _set_key(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _set_cell(key, n, i, k, value):
    return lambda doc: doc[key][n][i].__setitem__(k, value)


# edits of the catalan_sset(3) document and the SchemaError each raises
TABLE_ERRORS = {
    "faces-not-array": (_set_key("faces", 5), "faces must be an array"),
    "degens-not-array": (_set_key("degens", 5), "degens must be an array"),
    "face-table-not-array": (
        lambda doc: doc["faces"][1].__setitem__(0, 5), "face table length mismatch at level 2"
    ),
    "degen-table-not-array": (
        lambda doc: doc["degens"][1].__setitem__(0, 5), "degeneracy table length mismatch at level 1"
    ),
    "face-index-too-large": (_set_cell("faces", 1, 0, 0, 2), "index 2 outside level 1"),
    "face-index-negative": (_set_cell("faces", 1, 0, 0, -1), "index -1 outside level 1"),
    "face-index-string": (_set_cell("faces", 0, 0, 0, "0"), "index '0' outside level 0"),
    "degen-index-too-large": (_set_cell("degens", 0, 0, 0, 9), "index 9 outside level 1"),
    "degen-index-bool": (_set_cell("degens", 1, 1, 0, True), "index True outside level 2"),
    "label-not-string": (
        lambda doc: doc["levels"][0].__setitem__(0, ["x"]), "levels[0][0] must be a string label"
    ),
    "schema-version": (_set_key("schema_version", 99), "unsupported schema_version 99"),
    "missing-levels": (lambda doc: doc.pop("levels"), "missing key 'levels'"),
    "missing-faces": (lambda doc: doc.pop("faces"), "missing key 'faces'"),
    "missing-degens": (lambda doc: doc.pop("degens"), "missing key 'degens'"),
    "duplicate-label": (
        lambda doc: doc["levels"][1].__setitem__(1, doc["levels"][1][0]),
        "duplicate labels at level 1",
    ),
}


@pytest.mark.parametrize("case", sorted(TABLE_ERRORS))
def test_json_table_errors_are_schema_errors(case):
    edit, message = TABLE_ERRORS[case]
    doc = catalan_sset(3).to_json_dict()
    edit(doc)
    with pytest.raises(SchemaError, match=re.escape(message)):
        TruncatedSSet.from_json_dict(doc)


FUZZ_BASE = catalan_sset(3).to_json_dict()
#: Table cells other than ints; an edit sets an int, in range or not, as often.
OTHER_CELLS = st.one_of(
    st.booleans(), st.text(max_size=2), st.floats(), st.lists(st.integers(0, 2), max_size=2)
)


@st.composite
def edited_catalan3_documents(draw):
    """The catalan_sset(3) document with one to three entries set, dropped or added.

    An edit walks down ``levels`` (to a level) or ``faces``/``degens``
    (to a level's tables, then to one table), mostly to the bottom, then
    sets an entry to a cell value, drops the last entry or appends one: a
    copy of the last entry or a cell value.
    """

    def cell():
        return draw(st.integers(-2, 16)) if draw(st.booleans()) else draw(OTHER_CELLS)

    doc = copy.deepcopy(FUZZ_BASE)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(["levels", "faces", "degens"]))
        node = doc[key]
        for _ in range(draw(st.sampled_from((1, 1, 0) if key == "levels" else (2, 2, 2, 1, 0)))):
            if not isinstance(node, list) or not node:
                break
            node = node[draw(st.integers(0, len(node) - 1))]
        if not isinstance(node, list):
            continue
        edit = draw(st.sampled_from(["set", "set", "drop", "append"]))
        if edit == "set" and node:
            node[draw(st.integers(0, len(node) - 1))] = cell()
        elif edit == "drop" and node:
            node.pop()
        elif edit == "append" and node and draw(st.booleans()):
            node.append(copy.deepcopy(node[-1]))
        elif edit == "append":
            node.append(cell())
    return doc


@settings(max_examples=300)
@given(edited_catalan3_documents())
def test_edited_documents_load_exactly_or_raise_schema_errors(doc):
    try:
        S = TruncatedSSet.from_json_dict(doc)
    except SchemaError:
        return
    assert S.to_json_text() == json.dumps(doc, separators=(",", ":"))
    for n in range(S.N + 1):
        for tables, target in ((S.faces[n], n - 1), (S.degens[n], n + 1)):
            size = len(S.levels[target]) if 0 <= target <= S.N else 0
            assert all(type(v) is int and 0 <= v < size for t in tables for v in t)
