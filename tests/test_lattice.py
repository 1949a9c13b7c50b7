"""Rough-set and lattice-law tests.

The enumeration is cross-checked against a deliberately naive
closure scan written from scratch in this file, so the two routes
share no code beyond the Relation container.
"""

import gc
import itertools
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chemlattice import lattice as lattice_module
from chemlattice.errors import CapacityError, ConfigError
from chemlattice.harness import main, relation_from_source
from chemlattice.lattice import (
    Lattice,
    analyze_laws,
    boolean_blocks,
    build_two_block_relation,
    check_distributive,
    check_orthomodular,
    closure,
    enumerate_lattice,
    find_complements,
    format_subset,
    hasse_cover,
    lattice_to_dot,
    law_report_json,
    lower_approx,
    meet_join,
    parse_relation,
    relation_from_file,
    upper_approx,
    Relation,
)

S7 = frozenset(range(7))
S8 = frozenset(range(8))


def slow_fixed_points(rel):
    """Independent oracle: test every subset against a from-scratch
    closure written with plain set logic."""
    cells = rel.cells.tolist()
    n, m = len(cells), len(cells[0])

    def clo(x):
        cols = {j for i in x for j in range(m) if cells[i][j]}
        return frozenset(
            i for i in range(n)
            if all(j in cols for j in range(m) if cells[i][j])
        )

    out = set()
    for mask in range(1 << n):
        x = frozenset(i for i in range(n) if mask >> i & 1)
        if clo(x) == x:
            out.add(x)
    return out


# -------------------------------------------------------------- parsing


def test_parse_accepts_spaces_and_comments():
    rel = parse_relation("# header\n1 0\n0 1  # trailing\n\n")
    assert rel.n_rows == 2 and rel.n_cols == 2
    assert rel.cells[0, 0] and not rel.cells[0, 1]


def test_parse_reports_bad_character_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_relation("10\n1x\n")


def test_parse_rejects_ragged_rows():
    with pytest.raises(ConfigError, match="row length"):
        parse_relation("10\n100\n")


def test_parse_rejects_empty_input():
    with pytest.raises(ConfigError, match="no rows"):
        parse_relation("# nothing\n")


def test_relation_rejects_empty_row_and_column():
    with pytest.raises(ConfigError, match="row"):
        parse_relation("00\n01\n")
    with pytest.raises(ConfigError, match="column"):
        parse_relation("10\n10\n")


def test_relation_file_roundtrip(tmp_path):
    path = tmp_path / "rel.txt"
    path.write_text("110\n011\n101\n")
    rel = relation_from_file(path)
    assert rel.n_rows == 3
    assert rel.cells[2, 0] and not rel.cells[2, 1]


# ------------------------------------------------------------ generator


def test_single_block_nofill_is_diagonal():
    rel = build_two_block_relation([3], fill_off_blocks=False)
    assert np.array_equal(rel.cells, np.eye(3, dtype=bool))


def test_two_block_filled_layout():
    rel = build_two_block_relation([4, 4])
    assert rel.n_rows == 8
    inside = rel.cells[:4, :4]
    assert np.array_equal(inside, np.eye(4, dtype=bool))
    assert rel.cells[:4, 4:].all() and rel.cells[4:, :4].all()


def test_overlapped_blocks_span_seven():
    rel = build_two_block_relation((3, 3, 2), (3,))
    assert rel.n_rows == 7 and rel.n_cols == 7
    expected = np.ones((7, 7), dtype=bool)
    eye = np.eye(7, dtype=bool)
    for lo, hi in ((0, 3), (2, 5), (5, 7)):  # 0-based spans, A3 shared
        expected[lo:hi, lo:hi] = eye[lo:hi, lo:hi]
    assert np.array_equal(rel.cells, expected)


def test_generator_rejects_bad_overlap():
    with pytest.raises(ConfigError, match="not a block boundary"):
        build_two_block_relation((3, 3), (2,))
    with pytest.raises(ConfigError, match="final block boundary"):
        build_two_block_relation((3, 3), (6,))
    with pytest.raises(ConfigError, match="positive"):
        build_two_block_relation((3, 0))


# ------------------------------------------------- approximations, fig4


@pytest.fixture(scope="module")
def fig4():
    return build_two_block_relation((3, 3, 2), (3,))


def test_upper_approx_examples(fig4):
    assert upper_approx(fig4, ()) == frozenset()
    assert upper_approx(fig4, {0}) == {0, 3, 4, 5, 6}
    diag = build_two_block_relation([3], fill_off_blocks=False)
    assert upper_approx(diag, {1}) == {1}


def test_lower_approx_examples(fig4):
    assert lower_approx(fig4, range(7)) == S7
    assert lower_approx(fig4, ()) == frozenset()
    assert lower_approx(fig4, {0, 3, 4, 5, 6}) == {0}


def test_worked_closures(fig4):
    assert closure(fig4, {0}) == {0}
    assert closure(fig4, {2}) == {2}
    assert closure(fig4, {0, 1}) == {0, 1, 3, 4}
    assert closure(fig4, {0, 5}) == S7
    assert closure(fig4, S7) == S7


# ---------------------------------------------------------- enumeration


def test_diagonal_lattice_is_the_power_set():
    lat = enumerate_lattice(Relation(np.eye(3, dtype=bool)))
    assert len(lat) == 8
    assert set(lat.elements) == {
        frozenset(s)
        for s in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    }
    # meet and join degenerate to intersection and union
    for x in lat.elements:
        for y in lat.elements:
            assert meet_join(lat, x, y) == (x & y, x | y)
    assert len(hasse_cover(lat)) == 12


def test_two_block_lattice_has_thirty_elements():
    rel = build_two_block_relation([4, 4])
    lat = enumerate_lattice(rel)
    assert len(lat) == 30
    assert set(lat.elements) == slow_fixed_points(rel)
    assert len(hasse_cover(lat)) == 64


def test_two_block_meet_join_inside_a_block():
    lat = enumerate_lattice(build_two_block_relation([4, 4]))
    assert meet_join(lat, {0, 1}, {1, 2}) == (frozenset({1}), frozenset({0, 1, 2}))
    assert meet_join(lat, {0}, frozenset()) == (frozenset(), frozenset({0}))
    assert meet_join(lat, {0}, S8) == (frozenset({0}), S8)
    # atoms from different blocks span everything
    assert meet_join(lat, {0}, {4}) == (frozenset(), S8)


def test_fig4_mixed_atoms_join_to_top(fig4):
    lat = enumerate_lattice(fig4)
    assert meet_join(lat, {0}, {5})[1] == S7


def test_two_block_laws():
    lat = enumerate_lattice(build_two_block_relation([4, 4]))
    report = analyze_laws(lat)
    assert not report.distributive
    x, y, z = report.distributive_witness
    lhs = meet_join(lat, x, meet_join(lat, y, z)[1])[0]
    rhs = meet_join(lat, meet_join(lat, x, y)[0], meet_join(lat, x, z)[0])[1]
    assert lhs != rhs  # the witness really violates distributivity
    assert report.orthomodular
    assert report.shared_elements == [frozenset(), S8]
    blocks = {(frozenset().union(*atoms), n) for atoms, n in report.boolean_blocks}
    assert blocks == {(frozenset(range(4)), 16), (frozenset(range(4, 8)), 16)}


def test_two_block_orthocomplement_is_involutive_and_order_reversing():
    lat = enumerate_lattice(build_two_block_relation([4, 4]))
    cmap = check_orthomodular(lat).complement_map
    for x, xc in cmap.items():
        assert cmap[xc] == x
        assert meet_join(lat, x, xc) == (frozenset(), S8)
    for x in lat.elements:
        for y in lat.elements:
            if x <= y:
                assert cmap[y] <= cmap[x]


def test_two_block_complements_of_an_atom():
    lat = enumerate_lattice(build_two_block_relation([4, 4]))
    comps = find_complements(lat, {0})
    assert len(comps) == 15
    assert frozenset({1, 2, 3}) in comps  # the in-block set complement
    assert find_complements(lat, ()) == [S8]


def test_diag_complements_and_laws():
    lat = enumerate_lattice(Relation(np.eye(3, dtype=bool)))
    assert find_complements(lat, {0}) == [frozenset({1, 2})]
    report = analyze_laws(lat)
    assert report.distributive and report.distributive_witness is None
    assert report.orthomodular
    assert report.complement_map[frozenset({0})] == frozenset({1, 2})


def test_fig4_lattice_structure(fig4):
    lat = enumerate_lattice(fig4)
    assert len(lat) == 14
    report = analyze_laws(lat)
    blocks = {(frozenset().union(*atoms), n) for atoms, n in report.boolean_blocks}
    assert blocks == {
        (frozenset({0, 1, 2}), 8),
        (frozenset({2, 3, 4}), 8),
        (frozenset({5, 6}), 4),  # the 2^2 block over A6, A7
    }
    assert report.shared_elements == [
        frozenset(),
        frozenset({2}),
        frozenset({0, 1, 3, 4}),
        S7,
    ]
    assert not report.distributive
    assert report.orthomodular
    assert len(hasse_cover(lat)) == 26


# ----------------------------------------------------- law edge cases


def test_hexagon_fails_the_orthomodular_law():
    o6 = Lattice.from_subsets(3, [(), (0,), (0, 1), (2,), (1, 2), (0, 1, 2)])
    report = check_orthomodular(o6)
    assert not report.holds
    assert report.witness == (frozenset({0}), frozenset({0, 1}))
    x, y = report.witness
    xc = report.complement_map[x]
    rebuilt = meet_join(o6, x, meet_join(o6, xc, y)[0])[1]
    assert rebuilt != y  # y != x v (x' ^ y) although x <= y


def test_chain_is_distributive():
    chain = Lattice.from_subsets(2, [(), (0,), (0, 1)])
    assert check_distributive(chain).holds
    assert len(hasse_cover(chain)) == 2


def test_two_element_lattice():
    lat = Lattice.from_subsets(1, [(), (0,)])
    assert len(hasse_cover(lat)) == 1
    assert check_orthomodular(lat).holds


def test_lattice_requires_bounds():
    with pytest.raises(ValueError, match="empty set"):
        Lattice.from_subsets(2, [(0,), (0, 1)])
    with pytest.raises(ValueError, match="full ground set"):
        Lattice.from_subsets(2, [(), (0,)])
    with pytest.raises(ValueError):
        Lattice.from_subsets(2, [(), (5,), (0, 1)])


def test_index_of_rejects_non_elements():
    # {A1,A2} mixes the two blocks and closes to the top, so it is
    # inside the ground set but not a fixed point
    lat = enumerate_lattice(build_two_block_relation([2, 2]))
    with pytest.raises(ValueError, match="not a lattice element"):
        lat.index_of({0, 1})
    with pytest.raises(ValueError, match="outside"):
        meet_join(lat, {0}, {0, 1, 9})


def test_meet_join_detects_non_lattice_family():
    family = Lattice.from_subsets(
        4, [(), (0,), (1,), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3)]
    )
    with pytest.raises(ValueError, match="join resolves outside"):
        meet_join(family, {0}, {1})


def test_enumeration_capacity_cap():
    with pytest.raises(CapacityError, match="capped at 20 rows"):
        enumerate_lattice(Relation(np.eye(21, dtype=bool)))


def test_law_table_capacity_cap():
    lat = enumerate_lattice(Relation(np.eye(10, dtype=bool)))
    assert len(lat) == 1024
    with pytest.raises(CapacityError, match="capped at 512"):
        analyze_laws(lat)


def test_law_table_cap_comes_before_the_cover_scan(monkeypatch):
    scans = []
    scan = lattice_module._scan_cover
    monkeypatch.setattr(lattice_module, "_scan_cover", lambda lat: scans.append(1) or scan(lat))
    lat = Lattice(12, range(4096))  # past the Hasse cap of 2048 as well
    with pytest.raises(CapacityError, match="pairwise law tables are capped at 512"):
        lat._tables
    assert scans == []


def test_enumeration_element_bound():
    diag = Relation(np.eye(9, dtype=bool))
    assert len(enumerate_lattice(diag, max_elements=512)) == 512
    with pytest.raises(CapacityError, match="capped at 511 elements"):
        enumerate_lattice(diag, max_elements=511)


def test_mask_width_capacity_cap():
    lat = Lattice.from_subsets(63, [(), range(63)])
    assert len(lat) == 2 and check_orthomodular(lat).holds
    with pytest.raises(CapacityError, match="capped at 63"):
        Lattice(64, [0, (1 << 64) - 1])


def _count_searches(monkeypatch) -> list:
    """Record each first descent as "descent" and each backtracking run
    as its enforce_oml flag, in call order."""
    calls = []
    descend = lattice_module._first_descent
    backtrack = lattice_module._backtrack_orthocomplement

    def counted_descent(comp):
        calls.append("descent")
        return descend(comp)

    def counted_backtrack(lat, enforce_oml):
        calls.append(enforce_oml)
        return backtrack(lat, enforce_oml)

    monkeypatch.setattr(lattice_module, "_first_descent", counted_descent)
    monkeypatch.setattr(lattice_module, "_backtrack_orthocomplement", counted_backtrack)
    return calls


def test_orthocomplement_search_runs_once_per_lattice(monkeypatch):
    calls = _count_searches(monkeypatch)
    lat = enumerate_lattice(build_two_block_relation([4, 4]))
    assert check_orthomodular(lat).holds
    report = analyze_laws(lat)
    blocks = boolean_blocks(lat)
    assert calls == ["descent"]
    assert blocks == report.boolean_blocks


def test_plain_search_runs_only_after_the_pruned_one_fails(monkeypatch):
    calls = _count_searches(monkeypatch)
    o6 = Lattice.from_subsets(3, [(), (0,), (0, 1), (2,), (1, 2), (0, 1, 2)])
    assert not check_orthomodular(o6).holds
    report = analyze_laws(o6)
    assert boolean_blocks(o6) == report.boolean_blocks
    assert calls == ["descent", True, False]


def test_law_checks_leave_no_lattice_for_the_cycle_collector():
    # Reference counting alone must free an analysed lattice: nothing
    # the checks build may hold it in a reference cycle.  blocks:2,2,2,2
    # runs the backtracking under both flags; blocks:4,4 only descends.
    for spec in ("blocks:4,4", "blocks:2,2,2,2:overlap=2,3"):
        gc.collect()
        gc.disable()
        try:
            lat = lattice_of(spec)
            analyze_laws(lat)
            ref = weakref.ref(lat)
            del lat
            assert ref() is None, spec
        finally:
            gc.enable()


# ------------------------------------------------------------- exports


def test_format_subset():
    assert format_subset(()) == "{}"
    assert format_subset({2, 0}) == "{A1,A3}"


def test_law_report_json_shape():
    lat = enumerate_lattice(Relation(np.eye(3, dtype=bool)))
    doc = law_report_json(analyze_laws(lat))
    assert sorted(doc) == ["blocks", "distributive", "orthomodular", "shared", "witness"]
    assert doc["distributive"] is True and doc["witness"] is None
    assert doc["blocks"] == [{"atoms": ["{A1}", "{A2}", "{A3}"], "elements": 8}]
    assert doc["shared"] == []


def test_dot_export_lists_every_node_and_edge():
    lat = enumerate_lattice(Relation(np.eye(3, dtype=bool)))
    dot = lattice_to_dot(lat)
    assert dot.startswith("digraph hasse {")
    assert dot.count(" -> ") == 12
    assert '[label="{}"]' in dot
    assert '[label="{A1,A2}"]' in dot


# ----------------------------------------------------------- properties


@st.composite
def relations(draw, max_rows=8, max_cols=8):
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(st.integers(1, (1 << m) - 1), min_size=n, max_size=n)
    )
    covered = 0
    for r in rows:
        covered |= r
    assume(covered == (1 << m) - 1)  # no empty column
    cells = np.array(
        [[bool(r >> j & 1) for j in range(m)] for r in rows], dtype=bool
    )
    return Relation(cells)


def subset_of(n):
    return st.sets(st.integers(0, n - 1), max_size=n).map(frozenset)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_closure_operator_laws(data):
    rel = data.draw(relations())
    x = data.draw(subset_of(rel.n_rows))
    y = data.draw(subset_of(rel.n_rows))
    cx = closure(rel, x)
    assert x <= cx
    assert closure(rel, cx) == cx
    if x <= y:
        assert cx <= closure(rel, y)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_galois_adjunction(data):
    rel = data.draw(relations())
    x = data.draw(subset_of(rel.n_rows))
    yy = data.draw(subset_of(rel.n_cols))
    assert (upper_approx(rel, x) <= yy) == (x <= lower_approx(rel, yy))


@given(rel=relations(max_rows=6, max_cols=6))
@example(rel=parse_relation("11001\n00110\n11110"))  # columns 1 and 3 repeat 0 and 2
@example(rel=parse_relation("101\n011\n111"))  # column 2 touches every row: its E_c is empty
@example(rel=parse_relation("111"))  # one row
@example(rel=parse_relation("1\n1\n1"))  # one column
@settings(max_examples=60, deadline=None)
def test_enumerated_elements_are_exactly_the_fixed_points(rel):
    lat = enumerate_lattice(rel)
    assert set(lat.elements) == slow_fixed_points(rel)
    for e in lat.elements:
        assert closure(rel, e) == e


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_meet_join_are_tight_bounds(data):
    rel = data.draw(relations(max_rows=6, max_cols=6))
    lat = enumerate_lattice(rel)
    elems = lat.elements
    x = elems[data.draw(st.integers(0, len(elems) - 1))]
    y = elems[data.draw(st.integers(0, len(elems) - 1))]
    m, j = meet_join(lat, x, y)
    assert m <= x and m <= y
    assert x <= j and y <= j
    for e in elems:
        if e <= x and e <= y:
            assert e <= m
        if x <= e and y <= e:
            assert j <= e


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_tables_match_meet_join(data):
    lat = enumerate_lattice(data.draw(relations(max_rows=6, max_cols=6)))
    mt, jt = lat._tables
    elems = lat.elements
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            m, jn = meet_join(lat, x, y)
            assert (mt[i, j], jt[i, j]) == (lat.index_of(m), lat.index_of(jn))


def argmax_tables(lat) -> tuple:
    """Reference meet/join tables by a per-row scan of the inclusion
    matrix: a join is the first common upper bound, provided it lies
    inside every other one (else the family is no lattice), and a meet
    the last common lower bound."""
    n = len(lat)
    sub = lat._subset_matrix
    below = np.ascontiguousarray(sub.T[:, ::-1])
    meet_tab = np.empty((n, n), dtype=np.int32)
    join_tab = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        meet_tab[i] = n - 1 - (below[i] & below).argmax(axis=1)
        up = sub[i] & sub
        join_tab[i] = up.argmax(axis=1)
        if (up & ~sub[join_tab[i]]).any():
            raise ValueError("the family is not a lattice")
    return meet_tab, join_tab


def assert_tables_match_argmax(lat):
    try:
        want = argmax_tables(lat)
    except ValueError:
        with pytest.raises(ValueError, match="not a lattice"):
            lat._tables
        return
    mt, jt = lat._tables
    assert mt.dtype == jt.dtype == np.int32
    assert np.array_equal(mt, want[0]) and np.array_equal(jt, want[1])


# set families over a small ground set; bottom and top are added
FAMILY_UNIVERSES = st.integers(1, 5)
FAMILY_MASKS = st.lists(st.integers(0, 31), max_size=10)


@given(universe=FAMILY_UNIVERSES, masks=FAMILY_MASKS)
@example(universe=4, masks=[0b0001, 0b0010, 0b0111, 0b1011])  # no join
@example(universe=4, masks=[0b0001, 0b0010, 0b0111, 0b1011, 0b0011])  # a lattice
@settings(max_examples=300, deadline=None)
def test_tables_reject_exactly_the_non_lattice_families(universe, masks):
    full = (1 << universe) - 1
    lat = Lattice(universe, [0, full] + [m & full for m in masks])
    elems = lat.elements
    try:
        for x in elems:
            for y in elems:
                meet_join(lat, x, y)
        is_lattice = True
    except ValueError:
        is_lattice = False
    if is_lattice:
        lat._tables
    else:
        with pytest.raises(ValueError, match="not a lattice"):
            lat._tables
    assert_tables_match_argmax(lat)


@st.composite
def lattices(draw):
    """Closure lattices of relations, or set families with bottom and
    top that happen to be lattices."""
    if draw(st.booleans()):
        return enumerate_lattice(draw(relations(max_rows=6, max_cols=6)))
    universe = draw(st.integers(1, 6))
    full = (1 << universe) - 1
    lat = Lattice(universe, [0, full] + draw(st.lists(st.integers(0, full), max_size=8)))
    try:
        lat._tables
    except ValueError:
        assume(False)
    return lat


@given(lat=lattices())
# its complements admit no order-reversing choice
@example(lat=Lattice(5, [0, 0b00110, 0b01001, 0b01101, 0b11000, 0b11111]))
@settings(max_examples=300, deadline=None)
def test_found_orthocomplement_is_an_involutive_order_reversing_complement(lat):
    cmap = check_orthomodular(lat).complement_map
    assume(cmap is not None)
    for x, c in cmap.items():
        assert cmap[c] == x
        assert meet_join(lat, x, c) == (lat.bottom, lat.top)
        for y in lat.elements:
            if x <= y:
                assert cmap[y] <= c


def triple_scan_distributive(lat) -> bool:
    """Reference verdict: meet over join on every triple (x, y, z)."""
    mt, jt = lat._tables
    return not any(
        (mt[x][jt] != jt[mt[x][:, None], mt[x][None, :]]).any()
        for x in range(len(lat))
    )


M3 = Lattice.from_subsets(4, [(), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)])
N5 = Lattice.from_subsets(3, [(), (0,), (0, 1), (2,), (0, 1, 2)])
CHAIN = Lattice.from_subsets(3, [(), (0,), (0, 1), (0, 1, 2)])


@pytest.mark.parametrize("lat", [M3, N5], ids=["M3", "N5"])
def test_m3_and_n5_are_not_distributive(lat):
    report = check_distributive(lat)
    assert not report.holds and report.witness is not None


@given(lat=lattices())
@example(lat=M3)
@example(lat=N5)
@example(lat=CHAIN)
@settings(max_examples=300, deadline=None)
def test_join_prime_verdict_matches_the_triple_scan(lat):
    assert check_distributive(lat).holds == triple_scan_distributive(lat)


@given(lat=lattices())
@example(lat=M3)
@example(lat=N5)
@settings(max_examples=300, deadline=None)
def test_complements_match_the_tables(lat):
    mt, jt = lat._tables
    n = len(lat)
    for x, e in enumerate(lat.elements):
        hits = np.flatnonzero((mt[x] == 0) & (jt[x] == n - 1))
        assert find_complements(lat, e) == [lat.elements[c] for c in hits]


def reference_blocks(lat) -> set:
    """From-scratch block search over every atom subset: keep those whose
    joins are distinct and meet and join like intersection and union,
    then those agreeing with the orthocomplement (when one exists), then
    the inclusion-maximal ones."""
    elems, bottom = lat.elements, lat.bottom
    atoms = [e for e in elems if e != bottom and not any(bottom < f < e for f in elems)]
    cmap = check_orthomodular(lat).complement_map

    def join_of(atom_set):
        out = bottom
        for a in atom_set:
            out = meet_join(lat, out, a)[1]
        return out

    found = []
    for k in range(1, len(atoms) + 1):
        for combo in map(frozenset, itertools.combinations(atoms, k)):
            joins = {
                frozenset(s): join_of(s)
                for r in range(k + 1)
                for s in itertools.combinations(combo, r)
            }
            if len(set(joins.values())) != len(joins):
                continue
            if any(
                meet_join(lat, joins[s], joins[t]) != (joins[s & t], joins[s | t])
                for s in joins
                for t in joins
            ):
                continue
            if cmap is not None and any(cmap[a] != joins[combo - {a}] for a in combo):
                continue
            found.append(combo)
    return {b for b in found if not any(b < c for c in found)}


DIAG3 = enumerate_lattice(build_two_block_relation([3], fill_off_blocks=False))
# orthocomplemented but not orthomodular
O6 = Lattice.from_subsets(3, [(), (0,), (0, 1), (2,), (1, 2), (0, 1, 2)])
# the first descent pairs an element with no candidate left, and the
# backtracking finds an orthomodular assignment all the same
DESCENT_FAILS_OML = Lattice(
    5, [0b0, 0b101, 0b110, 0b1100, 0b1110, 0b10011, 0b10100, 0b10110, 0b11100, 0b11111]
)
# the first descent is a complement assignment that is not order-reversing
DESCENT_FAILS_PLAIN = Lattice(4, [0b0, 0b101, 0b110, 0b1101, 0b1110, 0b1111])
# atoms A1, A2, A3 have 8 distinct joins, but {A1,A2,A4} ∧ {A2,A3,A4} is
# {A2,A4}, not A2: only the meet check rejects the 3-atom cube
MEET_ONLY = Lattice(4, [0b0000, 0b0001, 0b0010, 0b0100, 0b1010, 0b0101, 0b1011, 0b1110, 0b1111])


@given(lat=lattices())
@example(lat=M3)
@example(lat=N5)
@example(lat=DIAG3)
@example(lat=MEET_ONLY)
@example(lat=O6)
@example(lat=DESCENT_FAILS_OML)
@settings(max_examples=300, deadline=None)
def test_boolean_blocks_match_a_from_scratch_search(lat):
    blocks = boolean_blocks(lat)
    sets = [frozenset(atoms) for atoms, _ in blocks]
    assert len(set(sets)) == len(sets)
    assert set(sets) == reference_blocks(lat)
    assert all(count == 2 ** len(atoms) for atoms, count in blocks)


# M3 and N5 as families not closed under intersection
N5_UNCLOSED = Lattice.from_subsets(4, [(), (0, 1), (0, 1, 2), (0, 3), (0, 1, 2, 3)])
DIAG9 = enumerate_lattice(Relation(np.eye(9, dtype=bool)))
BLOCKS88 = enumerate_lattice(build_two_block_relation([8, 8]))


def test_blocks_of_the_large_builtins():
    # the from-scratch reference is too slow at 9 and 16 atoms
    singletons = [frozenset({i}) for i in range(16)]
    assert boolean_blocks(DIAG9) == [(tuple(singletons[:9]), 512)]
    assert boolean_blocks(BLOCKS88) == [
        (tuple(singletons[:8]), 256),
        (tuple(singletons[8:]), 256),
    ]


def _reverses_order(sub, assign, x: int, c: int) -> bool:
    """Whether pairing x with c keeps the assigned pairs order-reversing:
    u <= x implies c <= u' (and the same for x <= u, u <= c, c <= u)."""
    u = np.flatnonzero(assign >= 0)
    pu = assign[u]
    return not (
        (sub[u, x] & ~sub[c, pu]).any()
        or (sub[x, u] & ~sub[pu, c]).any()
        or (sub[u, c] & ~sub[x, pu]).any()
        or (sub[c, u] & ~sub[pu, x]).any()
    )


def _extend(assign, comp, fits, nodes) -> bool:
    """Complete a partial complement assignment in place, depth first:
    pair the first unassigned element with each free candidate of its
    ``comp`` row that ``fits`` accepts.  Each call draws one search node
    from ``nodes``."""
    next(nodes)
    todo = np.flatnonzero(assign < 0)
    if todo.size == 0:
        return True
    x = int(todo[0])
    for c in np.flatnonzero(comp[x]).tolist():
        if assign[c] >= 0 or c == x or not fits(x, c):
            continue
        assign[x] = c
        assign[c] = x
        if _extend(assign, comp, fits, nodes):
            return True
        assign[x] = assign[c] = -1
    return False


def reference_orthocomplement(lat, enforce_oml: bool) -> tuple:
    """The numpy backtracking that the forward-checking search replaced,
    without a node budget: (assignment or None, search nodes drawn)."""
    mt, jt = lat._tables
    sub = lat._subset_matrix
    n = len(lat)
    comp = (mt == 0) & (jt == n - 1)
    assign = np.full(n, -1, dtype=np.int64)
    assign[0] = n - 1
    assign[n - 1] = 0

    def fits(x: int, c: int) -> bool:
        if not _reverses_order(sub, assign, x, c):
            return False
        return not enforce_oml or (
            lattice_module._oml_break(mt, jt, sub, x, c) is None
            and lattice_module._oml_break(mt, jt, sub, c, x) is None
        )

    nodes = itertools.count()
    found = _extend(assign, comp, fits, nodes)
    return (assign if found else None), next(nodes)


def search_alone(lat, enforce_oml: bool):
    """The forward-checking search without the first-descent shortcut."""
    return lattice_module._backtrack_orthocomplement(lat, enforce_oml)


def fresh(lat):
    """A copy of ``lat`` with none of its cached stages built."""
    return Lattice(lat.universe, lat._masks)


def assert_same_assignment(got, want):
    assert (got is None) == (want is None)
    assert want is None or np.array_equal(got, want)


def lattice_of(spec: str):
    return enumerate_lattice(relation_from_source(spec), max_elements=lattice_module.LAW_MAX_ELEMENTS)


# the first descent fails under both flags, and the plain search's
# assignment decides which atom set is the one Boolean block
BLOCKS222 = lattice_of("blocks:2,2,2:overlap=2,3")
BLOCKS2222 = lattice_of("blocks:2,2,2,2:overlap=2,3")
# a census-family relation (symmetric, reflexive) with a 24-element
# lattice: its descent fails under both flags, and the plain reference
# draws 42 nodes where forward checking draws 13
CENSUS = enumerate_lattice(parse_relation("""
100101000
011110010
011011111
110111000
011111110
101111000
001010101
011010011
001000111
"""))


@given(lat=lattices())
@example(lat=DESCENT_FAILS_OML)
@example(lat=DESCENT_FAILS_PLAIN)
@example(lat=O6)
@example(lat=DIAG9)
@example(lat=BLOCKS88)
@example(lat=BLOCKS222)
@example(lat=BLOCKS2222)
@example(lat=Lattice(0, [0]))
@example(lat=Lattice(1, [0, 1]))
@example(lat=CENSUS)
@settings(max_examples=300, deadline=None)
def test_search_returns_the_backtracking_assignment(lat):
    # the blocks depend on which assignment is found, not just on one existing
    wants = {}
    for enforce_oml in (True, False):
        want, nodes = reference_orthocomplement(lat, enforce_oml)
        # forward checking visits a subset of the reference's nodes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_module, "_ORTHO_NODE_CAP", nodes)
            assert_same_assignment(search_alone(lat, enforce_oml), want)
        wants[enforce_oml] = want
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_searches(mp)
        assign, holds = fresh(lat)._orthocomplement
    assert holds == (wants[True] is not None)
    # a descent that passes stands for the backtracking under both flags
    for enforce_oml in (True, False) if calls == ["descent"] else (holds,):
        assert_same_assignment(assign, wants[enforce_oml])


@pytest.mark.parametrize(
    "lat, enforce_oml",
    [(DESCENT_FAILS_OML, True), (DESCENT_FAILS_PLAIN, False)],
    ids=["oml", "plain"],
)
def test_a_failed_descent_falls_back_to_the_backtracking(monkeypatch, lat, enforce_oml):
    calls = _count_searches(monkeypatch)
    assign, holds = fresh(lat)._orthocomplement
    assert assign is not None and holds == enforce_oml
    assert calls == ["descent", True] + ([] if enforce_oml else [False])
    assert fresh(DIAG9)._orthocomplement[1]
    assert calls[-1] == "descent"  # a passing descent needs no backtracking


@pytest.mark.parametrize(
    "lat, enforce_oml, nodes",
    [(DESCENT_FAILS_PLAIN, False, 3), (BLOCKS2222, True, 1), (BLOCKS2222, False, 4)],
    ids=["descent-fails-plain", "blocks2222-oml", "blocks2222-plain"],
)
def test_node_budget_is_exact(monkeypatch, lat, enforce_oml, nodes):
    want = reference_orthocomplement(lat, enforce_oml)[0]
    monkeypatch.setattr(lattice_module, "_ORTHO_NODE_CAP", nodes - 1)
    with pytest.raises(CapacityError, match="node budget"):
        search_alone(lat, enforce_oml)
    monkeypatch.setattr(lattice_module, "_ORTHO_NODE_CAP", nodes)
    assert_same_assignment(search_alone(lat, enforce_oml), want)


@pytest.mark.parametrize(
    "lat, calls",
    [
        (O6, ["descent", True, False]),
        (BLOCKS2222, ["descent", True, False]),
        (lattice_of("blocks:4,4"), ["descent"]),
    ],
    ids=["O6", "blocks2222", "blocks44"],
)
def test_one_analysis_descends_once_and_backtracks_once_per_flag(monkeypatch, lat, calls):
    lat = fresh(lat)
    counted = _count_searches(monkeypatch)
    analyze_laws(lat)
    assert counted == calls
    # the down rows serve only the backtracking
    assert ("_down_rows" in vars(lat)) == (len(calls) > 1)


def test_cli_lattice_exits_3_when_the_search_runs_out_of_nodes(monkeypatch, tmp_path, capsys):
    # the law-pruned search draws 1 node and finds nothing; the plain
    # search then needs 4
    monkeypatch.setattr(lattice_module, "_ORTHO_NODE_CAP", 3)
    out = str(tmp_path / "run")
    assert main(["lattice", "blocks:2,2,2,2:overlap=2,3", "--out", out]) == 3
    assert "node budget" in capsys.readouterr().err
    monkeypatch.setattr(lattice_module, "_ORTHO_NODE_CAP", 4)
    assert main(["lattice", "blocks:2,2,2,2:overlap=2,3", "--out", out]) == 0


@given(lat=lattices())
@example(lat=M3)
@example(lat=N5_UNCLOSED)
@example(lat=DIAG9)
@example(lat=BLOCKS88)
@settings(max_examples=300, deadline=None)
def test_tables_match_the_argmax_reference(lat):
    assert_tables_match_argmax(lat)


def reference_scan_cover(lat) -> list:
    """The per-element block scan the up-set scan replaced: y covers x
    iff y is a strict superset of x and no other strict superset of x
    lies below y."""
    n = len(lat)
    sub = lat._subset_matrix
    pc = np.array([int(m).bit_count() for m in lat._masks])
    pairs = []
    for x in range(n):
        ups = np.flatnonzero(sub[x] & (pc > pc[x]))
        if ups.size == 0:
            continue
        s = sub[np.ix_(ups, ups)]
        np.fill_diagonal(s, False)
        minimal = ~s.any(axis=0)
        pairs.extend((x, y) for y in ups[minimal].tolist())
    return pairs


FIG4_LATTICE = enumerate_lattice(build_two_block_relation((3, 3, 2), (3,)))
FIG5_LATTICE = enumerate_lattice(build_two_block_relation([4, 4]))


@given(lat=lattices())
@example(lat=DIAG9)
@example(lat=BLOCKS88)
@example(lat=FIG4_LATTICE)
@example(lat=FIG5_LATTICE)
@settings(max_examples=300, deadline=None)
def test_cover_scan_matches_the_block_reference(lat):
    assert lattice_module._scan_cover(lat) == reference_scan_cover(lat)


# ------------------------------------------- wide relations, cover check


def next_closure_reference(rel, max_elements) -> list:
    """Ganter's next-closure over `closure`, on frozensets: the closed
    row sets in lectic order (row 0 most significant), stopping after
    max_elements + 1 of them."""
    n = rel.n_rows
    a = closure(rel, ())
    found = [a]
    while len(a) < n and len(found) <= max_elements:
        for i in reversed(range(n)):
            if i in a:
                continue
            low = frozenset(j for j in a if j < i)
            b = closure(rel, low | {i})
            if all(j >= i for j in b - low):
                a = b
                found.append(a)
                break
    return found


@st.composite
def wide_relations(draw):
    """Relations of 9-20 rows and 9-70 columns, so that rows and columns
    both span more than one byte; every row and column is touched."""
    n, m = draw(st.integers(9, 20)), draw(st.integers(9, 70))
    density = draw(st.sampled_from([0.05, 0.2, 0.35, 0.5, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random((n, m)) < density
    cells[np.arange(n), rng.integers(0, m, n)] = True
    cells[rng.integers(0, n, m), np.arange(m)] = True
    return Relation(cells)


def _mask(subset) -> int:
    return sum(1 << i for i in subset)


BLOCKS5555 = build_two_block_relation([5, 5, 5, 5])  # 20 rows, 122 elements


@given(rel=wide_relations(), max_elements=st.integers(1, 1000))
@example(rel=BLOCKS5555, max_elements=1000)
@example(rel=BLOCKS5555, max_elements=121)
@example(rel=Relation(np.arange(70) % 20 == np.arange(20)[:, None]), max_elements=40)  # 2^20
@example(rel=Relation(np.eye(20, dtype=bool)), max_elements=512)  # 2^20
@example(rel=build_two_block_relation([8, 8]), max_elements=510)  # exactly 510 elements
@example(rel=build_two_block_relation([8, 8]), max_elements=509)
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_next_closure_across_byte_boundaries(rel, max_elements):
    want = next_closure_reference(rel, max_elements)
    if len(want) <= max_elements:
        lat = enumerate_lattice(rel, max_elements=max_elements)
        assert lat.elements == sorted(want, key=_mask)
        return

    def capped():
        with pytest.raises(CapacityError, match=f"capped at {max_elements} elements"):
            enumerate_lattice(rel, max_elements=max_elements)

    # a capped run holds at most 2 * max_elements masks, where the full
    # lattices of the 2^20 examples would hold a million
    assert traced_peak_mib(capped) < 1.0


@st.composite
def union_families(draw):
    """Set families over 6-8 points, with bottom, top and up to 25 masks,
    and often all their pairwise unions as well."""
    universe = draw(st.integers(6, 8))
    full = (1 << universe) - 1
    masks = [0, full] + draw(st.lists(st.integers(0, full), max_size=25))
    if draw(st.booleans()):
        masks += [a | b for a in masks for b in masks]
    return universe, masks


# {A1} and {A2} have two minimal upper bounds, {A1,A2,A3} and
# {A1,A2,A4}, five covers below top along the chain above them
DEEP_MISSING_JOIN = (8, [0, 0b1, 0b10, 0b111, 0b1011, 0b1111, 0b11111, 0b111111, 0b1111111, 0xFF])
# above the 32 subsets of {A1..A5}, {A1..A6} and {A1..A5,A7} have two
# minimal upper bounds: the failing cover pairs come last
LATE_MISSING_JOIN = (9, list(range(32)) + [0x3F, 0x5F, 0xFF, 0x17F, 0x1FF])


@given(family=union_families())
@example(family=DEEP_MISSING_JOIN)
@example(family=LATE_MISSING_JOIN)
@settings(max_examples=300, deadline=None)
def test_cover_check_rejects_what_the_argmax_reference_rejects(family):
    assert_tables_match_argmax(Lattice(*family))


@pytest.mark.parametrize("family", [DEEP_MISSING_JOIN, LATE_MISSING_JOIN], ids=["deep", "late"])
def test_a_missing_join_is_rejected(family):
    with pytest.raises(ValueError, match="not a lattice"):
        argmax_tables(Lattice(*family))
    with pytest.raises(ValueError, match="not a lattice"):
        Lattice(*family)._tables


@given(lat=union_families().map(lambda family: Lattice(*family)))
@example(lat=N5_UNCLOSED)
@example(lat=MEET_ONLY)
@example(lat=Lattice(*DEEP_MISSING_JOIN))
@example(lat=Lattice(*LATE_MISSING_JOIN))
@settings(max_examples=300, deadline=None)
def test_cover_scan_matches_the_block_reference_on_any_family(lat):
    # the scan runs before the lattice check, so non-lattices reach it too
    assert lattice_module._scan_cover(lat) == reference_scan_cover(lat)


def enumerated_within_the_law_cap(rel):
    try:
        return enumerate_lattice(rel, max_elements=lattice_module.LAW_MAX_ELEMENTS)
    except CapacityError:
        assume(False)


@given(rel=st.one_of(relations(), wide_relations()))
@example(rel=BLOCKS5555)
@settings(max_examples=150, deadline=None)
def test_enumerated_tables_equal_the_checked_ones(rel):
    # closure fixed points skip the lattice check; a copy of the same
    # family built by hand runs it and must get the same tables
    lat = enumerated_within_the_law_cap(rel)
    checked = Lattice(lat.universe, lat._masks)
    assert lat._closure_system and not checked._closure_system
    for got, want in zip(lat._tables, checked._tables):
        assert np.array_equal(got, want)


@given(rel=wide_relations())
@example(rel=BLOCKS5555)
@settings(max_examples=100, deadline=None)
def test_dot_labels_and_edges_across_byte_boundaries(rel):
    lat = enumerated_within_the_law_cap(rel)
    lines = lattice_to_dot(lat).splitlines()
    nodes = [line for line in lines if "[label=" in line]
    assert nodes == [f'  n{i} [label="{format_subset(e)}"];' for i, e in enumerate(lat.elements)]
    edges = [line for line in lines if " -> " in line]
    assert [tuple(map(int, re.findall(r"n(\d+)", e))) for e in edges] == reference_scan_cover(lat)


def first_failing_triple(lat):
    """Reference witness: the first (x, y, z) in row-major element order
    with x ∧ (y ∨ z) != (x ∧ y) ∨ (x ∧ z), or None."""
    mt, jt = lat._tables
    for x in range(len(lat)):
        fails = np.argwhere(mt[x][jt] != jt[mt[x][:, None], mt[x][None, :]])
        if fails.size:
            return tuple(lat.elements[i] for i in (x, *fails[0]))
    return None


# x ∧ (y ∨ z) is {A1,A2,A4} but (x ∧ y) ∨ (x ∧ z) is {A1,A2} for x =
# {A1,A2,A4}, y = {A1}, z = {A2,A3,A4}, while every x ∧ - preserves the
# join of any two join-irreducibles: a row filter must let y range wider
IRREDUCIBLE_PAIRS_PASS = Lattice(4, [0, 1, 2, 3, 4, 11, 13, 14, 15])


@given(lat=lattices())
@example(lat=M3)
@example(lat=N5)
@example(lat=BLOCKS88)
@example(lat=DIAG9)
@example(lat=IRREDUCIBLE_PAIRS_PASS)
@settings(max_examples=300, deadline=None)
def test_distributivity_witness_is_the_first_failing_triple(lat):
    assert check_distributive(lat).witness == first_failing_triple(lat)


def traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lat", [DIAG9, BLOCKS88], ids=["diag9", "blocks88"])
def test_tables_and_distributivity_stay_within_their_memory(lat):
    fresh = Lattice(lat.universe, lat._masks)
    fresh._cover_pairs  # the cover scan is the Hasse stage, measured apart
    assert traced_peak_mib(lambda: fresh._tables) <= 3.0
    assert traced_peak_mib(lambda: check_distributive(fresh)) <= 4.5
