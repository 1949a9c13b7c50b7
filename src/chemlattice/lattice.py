"""Rough-set closure lattices over binary relations, with law checks.

A binary relation between a row set and a column set induces an upper
approximation (columns related to any chosen row), a lower approximation
(rows whose whole related-column set lies inside a chosen column set),
and their composite closure on row subsets.  The closure's fixed points,
ordered by inclusion, form a complete lattice: they are the full row set
and the intersections of the sets of rows not related to a column.  This
module enumerates that lattice as those intersections, resolves meets
and joins against the enumerated element set, extracts the Hasse
diagram, and checks distributivity, maximal Boolean sublattices, and
orthomodularity.

Subsets are handled as frozensets of 0-based row indices externally and
as integer bitmasks internally.  Exact enumeration is capped at 20 rows;
the pairwise law checks and the Hasse scan carry their own element-count
caps, and oversize requests raise CapacityError suggesting block
decomposition rather than silently degrading.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityError, ConfigError

__all__ = [
    "Relation",
    "Lattice",
    "LawReport",
    "parse_relation",
    "relation_from_file",
    "build_two_block_relation",
    "upper_approx",
    "lower_approx",
    "closure",
    "enumerate_lattice",
    "meet_join",
    "hasse_cover",
    "find_complements",
    "check_distributive",
    "check_orthomodular",
    "boolean_blocks",
    "analyze_laws",
    "lattice_to_dot",
    "law_report_json",
    "format_subset",
]

ENUM_MAX_ROWS = 20
LAW_MAX_ELEMENTS = 512
HASSE_MAX_ELEMENTS = 2048
BLOCK_MAX_ATOMS = 16
_ORTHO_NODE_CAP = 1_000_000
MASK_MAX_UNIVERSE = 63  # element masks are held in an int64 array
_NOT_A_LATTICE = "a join resolves outside the element set; the family is not a lattice"


@dataclass(frozen=True, eq=False)
class Relation:
    """Binary relation as a dense boolean matrix, rows x columns.

    Rows and columns must each touch the relation at least once; empty
    rows or columns reject at construction.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=bool)
        if cells.ndim != 2 or cells.size == 0:
            raise ConfigError("relation must be a non-empty 2-D 0/1 matrix")
        object.__setattr__(self, "cells", cells)
        empty_rows = np.flatnonzero(~cells.any(axis=1))
        if empty_rows.size:
            raise ConfigError(f"relation row {int(empty_rows[0]) + 1} is empty")
        empty_cols = np.flatnonzero(~cells.any(axis=0))
        if empty_cols.size:
            raise ConfigError(f"relation column {int(empty_cols[0]) + 1} is empty")

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def n_cols(self) -> int:
        return self.cells.shape[1]


def _int_rows(bits) -> list:
    """Rows of a boolean matrix as Python ints, bit j for column j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(mask: int) -> list:
    """Indices of the set bits of a mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def parse_relation(text: str) -> Relation:
    """Parse a 0/1 matrix; '#' starts a comment, blank lines skipped."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].replace(" ", "").replace("\t", "").strip()
        if not line:
            continue
        bad = set(line) - {"0", "1"}
        if bad:
            raise ConfigError(
                f"line {lineno}: unexpected character {sorted(bad)[0]!r} in relation"
            )
        rows.append([c == "1" for c in line])
        if len(rows[-1]) != len(rows[0]):
            raise ConfigError(
                f"line {lineno}: row length {len(rows[-1])} != {len(rows[0])}"
            )
    if not rows:
        raise ConfigError("relation text contains no rows")
    return Relation(np.array(rows, dtype=bool))


def relation_from_file(path) -> Relation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_relation(fh.read())


def build_two_block_relation(
    block_sizes: Sequence[int],
    overlap: Iterable[int] = (),
    fill_off_blocks: bool = True,
) -> Relation:
    """Square relation from diagonal block squares.

    Blocks of the given sizes are laid out along the diagonal.  Inside
    each block's square only the diagonal cells are related; outside
    every block square all cells are related when ``fill_off_blocks`` is
    set, none otherwise.  Each index in ``overlap`` (1-based) makes the
    block ending there share that position with the next block, so e.g.
    sizes (3, 3, 2) with overlap (3,) span 7 positions.
    """
    sizes = list(block_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigError(f"block sizes must be positive, got {sizes}")
    overlap_set = set(int(i) for i in overlap)
    spans = []
    start = 1
    for bi, size in enumerate(sizes):
        end = start + size - 1
        spans.append((start, end))
        if end in overlap_set:
            if bi == len(sizes) - 1:
                raise ConfigError(
                    f"overlap index {end} falls on the final block boundary"
                )
            overlap_set.discard(end)
            start = end
        else:
            start = end + 1
    if overlap_set:
        raise ConfigError(
            f"overlap index {sorted(overlap_set)[0]} is not a block boundary"
        )
    n = spans[-1][1]
    cells = np.full((n, n), bool(fill_off_blocks))
    eye = np.eye(n, dtype=bool)
    for lo, hi in spans:
        sl = slice(lo - 1, hi)
        cells[sl, sl] = eye[sl, sl]
    return Relation(cells)


def _as_indices(x: Iterable[int], bound: int, what: str) -> frozenset:
    out = frozenset(int(i) for i in x)
    for i in out:
        if not 0 <= i < bound:
            raise ValueError(f"{what} index {i} outside 0..{bound - 1}")
    return out


def _mask_of(subset: Iterable[int], universe: int) -> int:
    return sum(1 << i for i in _as_indices(subset, universe, "ground-set"))


def upper_approx(rel: Relation, rows: Iterable[int]) -> frozenset:
    """Columns related to at least one of the given rows."""
    idx = _as_indices(rows, rel.n_rows, "row")
    if not idx:
        return frozenset()
    hit = rel.cells[sorted(idx)].any(axis=0)
    return frozenset(int(j) for j in np.flatnonzero(hit))


def lower_approx(rel: Relation, cols: Iterable[int]) -> frozenset:
    """Rows whose entire related-column set lies inside the given columns."""
    idx = _as_indices(cols, rel.n_cols, "column")
    outside = np.ones(rel.n_cols, dtype=bool)
    if idx:
        outside[sorted(idx)] = False
    ok = ~(rel.cells & outside).any(axis=1)
    return frozenset(int(i) for i in np.flatnonzero(ok))


def closure(rel: Relation, rows: Iterable[int]) -> frozenset:
    """Lower approximation of the upper approximation; extensive,
    monotone, and idempotent on row subsets."""
    return lower_approx(rel, upper_approx(rel, rows))


def enumerate_lattice(rel: Relation, max_elements: Optional[int] = None) -> "Lattice":
    """All closure fixed points, as the intersection closure of the
    column extents of the complementary relation.

    Since upper(X) <= U exactly when X <= lower(U), the closure lower o
    upper comes from a Galois connection, and its fixed points are the
    lower approximations lower(U).  A row lies in lower(U) when it touches
    no column outside U, so lower(U) is the intersection of
    E_c = {rows not related to c} over the columns c outside U: the fixed
    points are the full row set and all intersections of the E_c (Ganter
    & Wille, Formal Concept Analysis, 1999, ch. 1).  Starting from the
    full set, each distinct E_c in turn adds e & E_c for every mask e
    held, one int AND per held mask.

    Exact and exhaustive; relations wider than ``ENUM_MAX_ROWS`` rows raise
    CapacityError (decompose the relation into blocks instead), and so
    does a lattice with more than ``max_elements`` elements, checked
    after each E_c: a step at most doubles the held masks, so a capped
    run never holds more than 2 * max_elements.  Closure fixed points
    hold the full set and are closed under intersection, so they form a
    complete lattice (ch. 0); the result is marked so that its tables
    skip the lattice check.
    """
    n = rel.n_rows
    if n > ENUM_MAX_ROWS:
        raise CapacityError(
            f"exact lattice enumeration is capped at {ENUM_MAX_ROWS} rows "
            f"(got {n}); decompose the relation into blocks"
        )
    held = {(1 << n) - 1}
    for extent in dict.fromkeys(_int_rows(~rel.cells.T)):
        held |= {e & extent for e in held}
        if max_elements is not None and len(held) > max_elements:
            raise CapacityError(
                f"lattice enumeration is capped at {max_elements} "
                "elements; decompose the relation into blocks"
            )
    lat = Lattice(n, held)
    lat._closure_system = True
    return lat


class Lattice:
    """Finite lattice of subsets of a ground set, ordered by inclusion.

    Elements are stored as bitmasks sorted numerically, so the empty set
    comes first and the full ground set last.  The meet and join tables
    the law checks read are built on first use by the cover recursion
    (``_tables``), which raises ValueError when a pair has no least upper
    bound: the family is then not a lattice.  `meet_join` resolves one
    pair against the element set instead, without the tables.
    """

    _closure_system = False  # set by enumerate_lattice: a lattice by theorem

    def __init__(self, universe: int, masks: Iterable[int]):
        self.universe = int(universe)
        if self.universe > MASK_MAX_UNIVERSE:
            raise CapacityError(
                f"lattice ground sets are capped at {MASK_MAX_UNIVERSE} "
                f"elements (got {self.universe}); decompose the relation into blocks"
            )
        uniq = sorted(set(int(m) for m in masks))
        full = (1 << self.universe) - 1
        if not uniq:
            raise ValueError("a lattice needs at least one element")
        if uniq[0] < 0 or uniq[-1] > full:
            raise ValueError("element outside the ground set")
        if uniq[0] != 0:
            raise ValueError("the empty set must be an element (bottom)")
        if uniq[-1] != full:
            raise ValueError("the full ground set must be an element (top)")
        self._masks = uniq
        self._index = {m: i for i, m in enumerate(uniq)}
        self._elements = [frozenset(_bits(m)) for m in uniq]

    @classmethod
    def from_subsets(cls, universe: int, subsets: Iterable[Iterable[int]]) -> "Lattice":
        return cls(universe, [_mask_of(s, universe) for s in subsets])

    def __len__(self) -> int:
        return len(self._masks)

    @property
    def elements(self) -> list:
        return list(self._elements)

    @property
    def bottom(self) -> frozenset:
        return self._elements[0]

    @property
    def top(self) -> frozenset:
        return self._elements[-1]

    def index_of(self, subset) -> int:
        try:
            return self._index[_mask_of(subset, self.universe)]
        except KeyError:
            raise ValueError(
                f"{format_subset(frozenset(subset))} is not a lattice element"
            ) from None

    @cached_property
    def _subset_matrix(self) -> np.ndarray:
        m = np.array(self._masks, dtype=np.int64)
        return (m[:, None] & ~m[None, :]) == 0

    @cached_property
    def _tables(self) -> tuple:
        """Dense meet/join index tables, built once, capped in size.

        Both tables follow the cover recursion (Davey & Priestley,
        Introduction to Lattices and Order, 2nd ed., ch. 2), top down for
        joins: i ∨ j is j when i <= j, else the least of i ∨ c over the
        upper covers c of j.  Element indices extend inclusion, so that
        least is the smallest index: every i ∨ c lies above i ∨ j, and
        an upper cover of j below i ∨ j gives i ∨ j itself.  Meets run the
        dual, bottom up over lower covers.  Rows are filled a level at a
        time (see _fill_by_level), after the cover scan.

        In any family the recursion's f(j) = join_tab[j, i] is a common
        upper bound of i and j, and f(u) = u for each common upper bound
        u.  If f preserves order, f(j) <= f(u) = u, so f(j) is the join;
        in a lattice, joins do preserve order.  So the family is a lattice
        iff f(lo) <= f(hi) along every cover pair (lo, hi), for every i.
        Only joins need the check: a finite poset with a bottom and all
        binary joins has all binary meets (the join of the common lower
        bounds).  It is skipped for the fixed points of a closure operator
        (see enumerate_lattice): that family is closed under intersection
        and holds the full set, so the intersection of the common upper
        bounds of i and j is an element and their join, and the check
        cannot fail.  Every other family is checked.
        """
        n = len(self._masks)
        if n > LAW_MAX_ELEMENTS:
            raise CapacityError(
                f"pairwise law tables are capped at {LAW_MAX_ELEMENTS} "
                f"elements (got {n}); decompose the relation into blocks"
            )
        sub = self._subset_matrix
        lo, hi = np.array(self._cover_pairs, dtype=np.intp).reshape(-1, 2).T
        join_tab = _fill_by_level(lo, hi, n - 1, np.minimum, sub.T)
        step = max(1, (1 << 16) // n)  # temporaries of at most 512 KiB
        chunks = (slice(s, s + step) for s in range(0, lo.size, step))
        if not self._closure_system and not all(
            sub.ravel()[np.multiply(join_tab[lo[c]], n, dtype=np.intp) + join_tab[hi[c]]].all()
            for c in chunks
        ):
            raise ValueError(_NOT_A_LATTICE)
        meet_tab = _fill_by_level(hi, lo, 0, np.maximum, sub)
        return meet_tab, join_tab

    @cached_property
    def _up_rows(self) -> list:
        """Up-sets as Python ints: bit y of row x when x <= y."""
        return _int_rows(self._subset_matrix)

    @cached_property
    def _down_rows(self) -> list:
        """Down-sets as Python ints: bit y of row x when y <= x."""
        return _int_rows(self._subset_matrix.T)

    @cached_property
    def _complement_rows(self) -> list:
        """Complements as Python ints: bit c of row x when x ∧ c = 0, x ∨ c = 1."""
        mt, jt = self._tables
        return _int_rows((mt == 0) & (jt == len(self) - 1))

    @cached_property
    def _orthocomplement(self) -> tuple:
        """(assign, holds), searched once: an involutive order-reversing
        complement as an index array (None when none exists) and whether
        it satisfies the orthomodular law.

        The first descent (see _first_descent) is checked whole: x <= y
        must give y' <= x'.  A descent that passes is exactly what
        _backtrack_orthocomplement returns under either flag, since each
        of its pairs passes every check made when that pair is fixed.
        That includes the orthomodular law: a lattice with an
        orthocomplement breaks it iff some x < y has x' ∧ y = 0, and then
        x and y are both complements of both y' < x'.  Of the four, the
        descent reaches x or y' first, while the other three are free,
        and prefers the lower of its two candidates (y' for x, x for y')
        to the upper one, so it never ends with both x' for x and y' for
        y.  Only a failing descent runs the backtracking: plain first,
        since an orthomodular assignment is also an orthocomplement and
        most lattices that fail the descent have none, and law-pruned
        only when the plain search finds one.  The law-pruned search's
        assignment is reported when it exists, the plain one otherwise.
        """
        assign = _first_descent(self._complement_rows)
        sub = self._subset_matrix
        if assign is not None and (sub <= sub[assign][:, assign].T).all():
            return assign, True
        plain = _backtrack_orthocomplement(self, False)
        if plain is None:
            return None, False
        assign = _backtrack_orthocomplement(self, True)
        return (plain, False) if assign is None else (assign, True)

    @cached_property
    def _cover_pairs(self) -> list:
        """Covering pairs (lower, upper) of element indices in ascending
        order, scanned once."""
        return _scan_cover(self)


def _fill_by_level(lo, hi, seed: int, reduce, fixed):
    """Index table whose row ``seed`` is constant and whose row x reduces
    the rows of the hi paired with x, then holds x where ``fixed[x]`` is
    set: in batches of every row whose hi are done, one slot of hi at a
    time, in place (``seed``, the reduction's identity, pads the slots)."""
    n = len(fixed)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    counts = np.bincount(lo, minlength=n)
    slots = np.full((n, max(int(counts.max()), 1)), seed, dtype=np.intp)
    slots[lo, np.arange(lo.size) - (np.cumsum(counts) - counts)[lo]] = hi
    tab = np.empty((n, n), dtype=np.int32)
    tab[seed] = seed
    done = np.arange(n) == seed
    while not done.all():
        batch = np.flatnonzero(~done & done[slots].all(axis=1))
        batch = batch[np.argsort(-counts[batch], kind="stable")]
        buf = tab[slots[batch, 0]]
        for s in range(1, counts[batch[0]]):
            m = np.count_nonzero(counts[batch] > s)  # rows with slot s filled
            reduce(buf[:m], tab[slots[batch[:m], s]], out=buf[:m])
        np.copyto(buf, batch[:, None], where=fixed[batch])
        tab[batch] = buf
        done[batch] = True
    return tab


def meet_join(lat: Lattice, x: Iterable[int], y: Iterable[int]) -> tuple:
    """Greatest element inside x∩y and least element containing x∪y.

    Both arguments must be lattice elements; resolution happens against
    the enumerated element set, without table construction, so it works
    at any lattice size.
    """
    xm, ym = lat._masks[lat.index_of(x)], lat._masks[lat.index_of(y)]
    inter = xm & ym
    or_all = 0
    for m in lat._masks:
        if m & ~inter == 0:
            or_all |= m
    if or_all not in lat._index:
        raise ValueError("meet resolves outside the element set")
    union = xm | ym
    and_all = lat._masks[-1]
    for m in lat._masks:
        if union & ~m == 0:
            and_all &= m
    if and_all not in lat._index:
        raise ValueError("join resolves outside the element set")
    return frozenset(_bits(or_all)), frozenset(_bits(and_all))


def _scan_cover(lat: Lattice) -> list:
    """Covering pairs (x, y), ascending in x and then in y, by a greedy
    scan over up-sets held as one Python int per element.

    For each x, ``left`` starts as the strict up-set of x; its least index
    y is emitted as a cover and takes its whole up-set out of ``left``.
    Indices extend inclusion, which is all this needs, so it holds for any
    family, lattice or not.  A z with x < z < y has a smaller index than
    y, so it left ``left`` with the up-set of an emitted y' <= z, which
    holds y too: y covers x.  A cover c never leaves, since that needs an
    emitted y' with x < y' < c.  So each x costs one step per cover.
    """
    n = len(lat)
    if n > HASSE_MAX_ELEMENTS:
        raise CapacityError(
            f"Hasse extraction is capped at {HASSE_MAX_ELEMENTS} elements (got {n})"
        )
    ups = lat._up_rows
    pairs = []
    for x, left in enumerate(ups):
        left ^= 1 << x
        while left:
            y = (left & -left).bit_length() - 1
            pairs.append((x, y))
            left &= ~ups[y]
    return pairs


def hasse_cover(lat: Lattice) -> list:
    """Covering pairs (lower, upper) of the inclusion order, ordered by
    the elements' indices."""
    elements = lat._elements
    return [(elements[lo], elements[hi]) for lo, hi in lat._cover_pairs]


def find_complements(lat: Lattice, x: Iterable[int]) -> list:
    """Elements whose meet with x is bottom and join with x is top."""
    return [lat._elements[i] for i in _bits(lat._complement_rows[lat.index_of(x)])]


@dataclass(frozen=True)
class DistributivityReport:
    holds: bool
    witness: Optional[tuple] = None


def check_distributive(lat: Lattice) -> DistributivityReport:
    """Check meet-over-join, x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z).

    The verdict is Birkhoff's (Davey & Priestley, Introduction to
    Lattices and Order, 2nd ed., ch. 5): a finite lattice is distributive
    iff every join-irreducible j (one lower cover) is join-prime, that
    is j <= x ∨ y only if j <= x or j <= y: iff the join of all elements
    not above j, reduced pairwise through the join table for every j at
    once, is not above j.  Only on failure does the triple scan run, for
    the first failing triple (x, y, z) in element order as the witness.
    It skips each x whose y ↦ x ∧ y preserves the joins y ∨ z with
    join-irreducible z: every z is a join of join-irreducibles, so that
    map then preserves all joins and row x has no failing triple.
    """
    mt, jt = lat._tables
    sub, n = lat._subset_matrix, len(lat)
    covers = Counter(hi for _, hi in lat._cover_pairs)
    irr = np.array([j for j, c in covers.items() if c == 1], dtype=np.intp)
    joins = np.zeros((irr.size, 1 << (n - 1).bit_length()), dtype=np.int32)
    joins[:, :n] = np.where(sub[irr], 0, np.arange(n))  # bottom pads
    while joins.shape[1] > 1:
        joins = jt[joins[:, ::2], joins[:, 1::2]]
    if not sub[irr, joins[:, 0]].any():
        return DistributivityReport(True, None)
    # Some j <= x ∨ y lies below neither x nor y, so j ∧ x and j ∧ y lie
    # below j's one lower cover and (j, x, y) fails: the scan always returns.
    to_irr = jt[:, irr]
    for x in range(n):
        mx = mt[x]
        if (mx[to_irr] == jt[mx[:, None], mx[irr]]).all():
            continue
        y, z = divmod(int((mx[jt] != jt[mx][:, mx]).argmax()), n)
        return DistributivityReport(False, tuple(lat._elements[i] for i in (x, y, z)))


@dataclass(frozen=True)
class OrthomodularityReport:
    holds: bool
    witness: Optional[tuple] = None
    complement_map: Optional[dict] = None
    note: str = ""


def _oml_break(mt, jt, sub, x: int, c: int) -> Optional[int]:
    """First y >= x with y != x ∨ (c ∧ y), or None: where complement c
    of x breaks the orthomodular law."""
    ups = np.flatnonzero(sub[x])
    bad = ups[jt[x, mt[c, ups]] != ups]
    return int(bad[0]) if bad.size else None


def _backtrack_orthocomplement(lat: Lattice, enforce_oml: bool):
    """Depth-first search for an involutive order-reversing complement
    assignment on the lattice's complement rows, with forward checking
    (Haralick & Elliott, Artificial Intelligence 14, 1980).

    A node pairs the least unassigned x with each candidate c of its row,
    ascending, testing the orthomodular law both ways when asked.  Fixing
    x <-> c narrows each unassigned v's row: v <= x needs v' >= c, v >= x
    needs v' <= c, and the same with x and c swapped.  A row narrows on
    its own side only, so c must also hold x in its row; the two rows then
    test order reversal against every pair fixed so far.  A row with no
    unassigned candidate left means no assignment below: backing out skips
    only subtrees that come back empty, so in the same variable and value
    orders the first assignment reached is the unpruned search's.  One
    node per call; node _ORTHO_NODE_CAP + 1 raises CapacityError.
    """
    n = len(lat)
    sub = lat._subset_matrix
    # locals, so that the closures below hold no reference to the lattice
    up, down, comp = lat._up_rows, lat._down_rows, lat._complement_rows
    mt, jt = lat._tables
    assign = [-1] * n
    assign[0], assign[n - 1] = n - 1, 0
    nodes = itertools.count()

    def narrow(rows: list, x: int, c: int, rest: int) -> Optional[list]:
        rows = rows[:]
        for region, allowed in (
            (down[x], up[c]), (up[x], down[c]), (down[c], up[x]), (up[c], down[x])
        ):
            for v in _bits(region & rest):
                rows[v] &= allowed
                if not rows[v] & rest:
                    return None
        return rows

    def extend(free: int, rows: list) -> bool:
        if next(nodes) >= _ORTHO_NODE_CAP:
            raise CapacityError("orthocomplement search exceeded its node budget")
        if not free:
            return True
        x = (free & -free).bit_length() - 1
        free ^= 1 << x
        for c in _bits(rows[x] & free):
            if not rows[c] >> x & 1 or enforce_oml and (
                _oml_break(mt, jt, sub, x, c) is not None
                or _oml_break(mt, jt, sub, c, x) is not None
            ):
                continue
            narrowed = narrow(rows, x, c, free ^ 1 << c)
            if narrowed is not None and extend(free ^ 1 << c, narrowed):
                assign[x], assign[c] = c, x
                return True
        return False

    free = ((1 << n) - 1) & ~1 & ~(1 << (n - 1))
    return np.array(assign, dtype=np.int64) if extend(free, comp) else None


def _first_descent(comp: list):
    """The backtracking's first descent without its checks: each
    unassigned element, ascending, paired with its first unassigned
    candidate in its ``comp`` row; None when one has no candidate left."""
    n = len(comp)
    assign = [-1] * n
    assign[0], assign[n - 1] = n - 1, 0
    free = ((1 << n) - 1) & ~1 & ~(1 << (n - 1))
    while free:
        low = free & -free
        free ^= low
        cand = comp[low.bit_length() - 1] & free
        if not cand:
            return None
        pick = cand & -cand
        free ^= pick
        x, c = low.bit_length() - 1, pick.bit_length() - 1
        assign[x], assign[c] = c, x
    return np.array(assign, dtype=np.int64)


def check_orthomodular(lat: Lattice) -> OrthomodularityReport:
    """Search for an orthocomplementation satisfying the orthomodular law.

    If some involutive order-reversing complement assignment satisfies
    x <= y  =>  y = x ∨ (x' ∧ y) throughout, the lattice passes and the
    assignment is reported.  If complement assignments exist but every
    one breaks the law, the first violating pair under the first
    assignment found is the witness.  If no assignment exists at all the
    result carries a note instead of a witness.
    """
    assign, holds = lat._orthocomplement
    if assign is None:
        return OrthomodularityReport(
            False, None, None, "no consistent orthocomplementation"
        )
    n = len(lat)
    cmap = {lat._elements[i]: lat._elements[int(assign[i])] for i in range(n)}
    if holds:
        return OrthomodularityReport(True, None, cmap, "")
    # The law-pruned search failed, so this assignment breaks the law at
    # some pair and the scan always returns.
    mt, jt = lat._tables
    sub = lat._subset_matrix
    for x in range(n):
        y = _oml_break(mt, jt, sub, x, int(assign[x]))
        if y is not None:
            witness = (lat._elements[x], lat._elements[y])
            return OrthomodularityReport(False, witness, cmap, "")


def _grow(mt, jt, cube, a: int):
    """``cube`` grown by atom ``a``, or None when that breaks it.

    ``cube`` lists the joins of all subsets of some atoms and is
    Boolean, so growing it by one atom checks only the new half.  Joins
    need no check: in any lattice the join of two subset joins is the
    join of their union.  Meets must be the joins of the intersections;
    the distinctness test is implied by that but rejects sooner.
    """
    grown = np.concatenate([cube, jt[cube, a]])
    if len(set(grown.tolist())) != grown.size:
        return None
    s = np.arange(grown.size)
    new = s[cube.size:, None]
    return grown if (mt[grown[new], grown] == grown[new & s]).all() else None


def _cubes(mt, jt, atoms: Sequence[int], current: tuple, cube):
    """Yield (atom indices, cube) for every extension of ``current`` by
    atoms from ``atoms`` whose joins form a Boolean cube (see _grow),
    depth first, each set before its own extensions."""
    for i, a in enumerate(atoms):
        grown = _grow(mt, jt, cube, a)
        if grown is not None:
            trial = current + (a,)
            yield trial, grown
            yield from _cubes(mt, jt, atoms[i + 1:], trial, grown)


def _maximal_cliques(adj: list, r: int, p: int, x: int):
    """Yield the maximal cliques through clique ``r`` of the graph whose
    vertex v has neighbour bitmask ``adj[v]``, as bitmasks: Bron and
    Kerbosch (1973) with a pivot, ``p`` the candidates and ``x`` the
    vertices already covered."""
    if not p | x:
        yield r
        return
    pivot = max(_bits(p | x), key=lambda v: (p & adj[v]).bit_count())
    for v in _bits(p & ~adj[pivot]):
        low = 1 << v
        yield from _maximal_cliques(adj, r | low, p & adj[v], x & adj[v])
        p ^= low
        x |= low


def _boolean_blocks_raw(lat: Lattice) -> list:
    """Atom sets spanning Boolean sublattices, as (atom indices, cube).

    The atoms are the upper covers of bottom.  When the lattice has an
    orthocomplement assignment, a block must agree with it: each atom's
    in-cube complement, the join of the others, must be its
    orthocomplement.  That distinguishes genuine blocks from accidental
    cubes such as a cross pair of atoms from two different blocks, whose
    meet is bottom and join top all the same.  An agreeing atom set S is
    a maximal set of pairwise orthogonal atoms (b <= a'): for a != b in
    S, b lies below the join of S without a, which is a'; and an atom
    orthogonal to all of S would lie below the meet of those joins,
    which is bottom.  So only the maximal orthogonal sets, found by
    Bron–Kerbosch and taken in ascending order, have their cubes built
    and checked, and the agreeing ones form an antichain as they stand.

    Without any complement assignment every atom set whose joins form a
    Boolean cube is enumerated, growing each from its parent one atom
    smaller (see _cubes), and the inclusion-maximal cubes stand as
    found.
    """
    assign = lat._orthocomplement[0]
    # the cover pairs ascend in their lower element, so bottom's come first
    atoms = [hi for _, hi in itertools.takewhile(lambda p: p[0] == 0, lat._cover_pairs)]
    if len(atoms) > BLOCK_MAX_ATOMS:
        raise CapacityError(
            f"Boolean block search is capped at {BLOCK_MAX_ATOMS} atoms "
            f"(got {len(atoms)})"
        )
    mt, jt = lat._tables
    if assign is None:
        found = list(_cubes(mt, jt, atoms, (), np.zeros(1, dtype=np.int64)))
        sets = [frozenset(a) for a, _ in found]
        return [b for b, s in zip(found, sets) if not any(s < t for t in sets)]
    # bit j of adj[i]: atom j lies below atom i's orthocomplement
    adj = _int_rows(lat._subset_matrix[np.ix_(atoms, assign[atoms])].T)
    orthogonal_sets = sorted(
        tuple(atoms[j] for j in _bits(clique))
        for clique in _maximal_cliques(adj, 0, (1 << len(atoms)) - 1, 0)
        if clique  # the one-element lattice's only clique is empty
    )
    blocks = []
    for atom_idx in orthogonal_sets:
        cube = np.zeros(1, dtype=np.int64)
        for a in atom_idx:
            cube = _grow(mt, jt, cube, a)
            if cube is None:
                break
        else:
            if all(
                cube[(cube.size - 1) ^ (1 << bit)] == assign[a]
                for bit, a in enumerate(atom_idx)
            ):
                blocks.append((atom_idx, cube))
    return blocks


def boolean_blocks(lat: Lattice) -> list:
    """Maximal Boolean sublattices generated by lattice atoms.

    Each entry is (atom elements, sublattice element count); a block of
    k atoms spans 2**k elements including bottom and top.  When the
    lattice carries an orthocomplementation, blocks are additionally
    required to agree with it (see _boolean_blocks_raw).
    """
    return _block_elements(lat, _boolean_blocks_raw(lat))


def _block_elements(lat: Lattice, raw_blocks: list) -> list:
    return [
        (tuple(lat._elements[i] for i in atom_idx), int(cube.size))
        for atom_idx, cube in raw_blocks
    ]


@dataclass(frozen=True)
class LawReport:
    """Aggregate law-check results for one lattice."""

    distributive: bool
    distributive_witness: Optional[tuple]
    boolean_blocks: list
    shared_elements: list
    orthomodular: bool
    orthomodular_witness: Optional[tuple] = None
    complement_map: Optional[dict] = None
    note: str = ""


def analyze_laws(lat: Lattice) -> LawReport:
    """Run the distributivity, block, shared-element, and orthomodularity
    checks and collect the results."""
    dist = check_distributive(lat)
    ortho = check_orthomodular(lat)
    raw_blocks = _boolean_blocks_raw(lat)
    # a cube lists each element once, so a count is a number of blocks
    counts = Counter(e for _, cube in raw_blocks for e in cube.tolist())
    return LawReport(
        distributive=dist.holds,
        distributive_witness=dist.witness,
        boolean_blocks=_block_elements(lat, raw_blocks),
        shared_elements=[lat._elements[e] for e in sorted(counts) if counts[e] >= 2],
        orthomodular=ortho.holds,
        orthomodular_witness=ortho.witness,
        complement_map=ortho.complement_map,
        note=ortho.note,
    )


def format_subset(subset: Iterable[int]) -> str:
    """Render a row subset as '{A1,A3}' with 1-based labels; '{}' when empty."""
    idx = sorted(int(i) for i in subset)
    return "{" + ",".join(f"A{i + 1}" for i in idx) + "}"


def lattice_to_dot(lat: Lattice) -> str:
    """Graphviz digraph of the Hasse diagram, bottom ranked lowest."""
    lines = ["digraph hasse {", "  rankdir=BT;", '  node [shape=box, fontname="Helvetica"];']
    names = [f"A{i + 1}" for i in range(lat.universe)]
    for i, m in enumerate(lat._masks):
        label = ",".join([names[b] for b in _bits(m)])
        lines.append(f'  n{i} [label="{{{label}}}"];')
    index = {e: i for i, e in enumerate(lat._elements)}
    for lo, hi in hasse_cover(lat):
        lines.append(f"  n{index[lo]} -> n{index[hi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def law_report_json(report: LawReport) -> dict:
    """Five-key JSON form: distributive, witness, blocks, shared,
    orthomodular."""
    witness = None
    if report.distributive_witness is not None:
        witness = [format_subset(e) for e in report.distributive_witness]
    blocks = [
        {"atoms": [format_subset(a) for a in atoms], "elements": count}
        for atoms, count in report.boolean_blocks
    ]
    return {
        "distributive": report.distributive,
        "witness": witness,
        "blocks": blocks,
        "shared": [format_subset(e) for e in report.shared_elements],
        "orthomodular": report.orthomodular,
    }
