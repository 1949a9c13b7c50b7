"""Stochastic dynamics of an activity-gated cluster chemistry.

A population of N molecules is partitioned into clusters, and every
molecule carries a binary activity flag.  One step attempts, in fixed
order: a merge of two uniformly drawn clusters (allowed only while both
are mostly inactive), a size-biased split (allowed only for mostly
active clusters), global activity resets at the two extremes of
aggregation, independent per-molecule activity noise, and optionally a
population-wide coherence kick driven by the modal cluster (see
`interplay`).  All randomness comes from one seeded PCG64 generator
held on the state.  The step draws through `Draws`, which reads the
generator's raw 64-bit output in blocks and replays numpy's bounded-integer
and uniform-float conversions on it, so every value and the generator's
stream are exactly what direct ``integers``/``random`` calls would give,
and trajectories replay bit-exactly.  A row of per-molecule events comes
either as a dense boolean mask (``below``, the kick) or as the sparse
list of its hit indices with an offset (``hits``, the noise); both are
bit-exact.  A state is not safe to share between threads; parameter
sweeps use independent states.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import mul
from typing import Literal, NamedTuple, Optional

import numpy as np

from . import interplay
from .errors import ConfigError

__all__ = [
    "Draws",
    "NoiseSchedule",
    "SimParams",
    "SimState",
    "StepReport",
    "init_state",
    "attempt_clustering",
    "attempt_declustering",
    "apply_boundary_rules",
    "apply_noise",
    "noise_at",
    "step",
    "audit_consistency",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step activity-flip probability, flat or linearly ramped.

    A ramp contributes nothing before ``onset_step`` and then grows
    linearly from ``p0`` at ``rate`` per step, clamped to [0, 1].
    """

    kind: Literal["constant", "ramp"] = "constant"
    p0: float = 0.0
    rate: float = 0.0
    onset_step: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "ramp"):
            raise ConfigError(f"unknown noise schedule kind {self.kind!r}")
        if not 0.0 <= self.p0 <= 1.0:
            raise ConfigError(f"noise p0 must lie in [0, 1], got {self.p0}")
        if self.rate < 0.0:
            raise ConfigError(f"noise ramp rate must be >= 0, got {self.rate}")
        if self.onset_step < 0:
            raise ConfigError(f"onset_step must be >= 0, got {self.onset_step}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "p0": self.p0}
        if self.kind == "ramp":
            d["rate"] = self.rate
            d["onset_step"] = self.onset_step
        return d


def noise_at(schedule: NoiseSchedule, t: int) -> float:
    """Flip probability in effect at step ``t``, always within [0, 1]."""
    if schedule.kind == "constant":
        return schedule.p0
    if t < schedule.onset_step:
        return 0.0
    p = schedule.p0 + schedule.rate * (t - schedule.onset_step)
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class SimParams:
    """Immutable run parameters.

    ``theta_c`` gates merging (both clusters must have an active fraction
    strictly below it), ``theta_dec`` gates splitting (strictly above),
    ``theta_a`` half-widths the mixed-activity band that lets a coherence
    kick fire, and ``p_coh`` is the per-molecule kick participation
    probability.  ``pooled_modal_ratio`` switches the kick's input from
    one representative cluster to all clusters of the modal size.
    """

    n_molecules: int = 200
    theta_c: float = 0.5
    theta_dec: float = 0.5
    noise_schedule: NoiseSchedule = NoiseSchedule()
    theta_a: float = 0.3
    p_coh: float = 0.95
    interplay_enabled: bool = False
    max_steps: int = 100_000
    seed: int = 11
    pooled_modal_ratio: bool = False

    def __post_init__(self) -> None:
        if self.n_molecules < 2:
            raise ConfigError(f"n_molecules must be >= 2, got {self.n_molecules}")
        for name in ("theta_c", "theta_dec", "p_coh"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 <= self.theta_a <= 0.5:
            raise ConfigError(f"theta_a must lie in [0, 0.5], got {self.theta_a}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["noise_schedule"] = self.noise_schedule.to_dict()
        return d


DRAW_BLOCK = 1 << 14  # raw 64-bit words fetched from the generator per refill
_M32 = 0xFFFFFFFF
_TWO53 = 2.0**53
_NO_WORDS = np.empty(0, dtype=np.uint64)


class Draws:
    """Draws from a PCG64 ``np.random.Generator``, served from blocks of
    its raw 64-bit output.

    ``integers(m)`` returns exactly ``int(gen.integers(m))`` and
    ``below(n, p)`` exactly ``gen.random(n) < p``, and both consume the
    stream as those calls do, so a run is bit-identical to one that calls
    the generator directly.  ``hits(n, p)`` is the sparse form of
    ``below``: the indices of its True entries, from the same n words, as
    a list and an offset to subtract from each.  Bounded integers use
    Lemire's rejection on 32-bit halves: a raw word serves its low half
    first and caches its high half, like PCG64's ``next_uint32``, and the
    replay keeps that cache from construction on.  ``random()`` is
    ``(word >> 11) * 2**-53``, so ``random() < p`` is
    ``word < ceil(p * 2**53) << 11``.

    ``bit_generator`` returns the generator moved to the replay's logical
    position.  Drawing from it directly desynchronises the replay.
    """

    __slots__ = ("_gen", "_base", "_block", "_pos", "_has32", "_u32",
                 "_last_p", "_hit_p", "_hits")

    def __init__(self, gen: np.random.Generator) -> None:
        bg = gen.bit_generator
        if type(bg) is not np.random.PCG64:
            raise TypeError(
                f"Draws replays the PCG64 stream only, got {type(bg).__name__}"
            )
        self._gen = gen
        # The logical position is word _pos of the block drawn from state
        # _base, plus the cached high half-word.
        self._base = bg.state
        self._block = _NO_WORDS
        self._pos = 0
        self._has32 = self._base["has_uint32"]
        self._u32 = self._base["uinteger"]
        self._forget_hits()

    @property
    def bit_generator(self) -> np.random.PCG64:
        return self._synced().bit_generator

    def clone(self) -> "Draws":
        """Copy at the same logical position.  The copy shares the
        read-only block and hit list and builds its own generator only
        when it needs one, so cloning draws nothing."""
        twin = Draws.__new__(Draws)
        twin._gen = None
        for name in Draws.__slots__[1:]:  # every slot but _gen
            setattr(twin, name, getattr(self, name))
        return twin

    def _synced(self) -> np.random.Generator:
        # Move the generator to the logical position.  advance() clears
        # the half-word cache, so it is written back afterwards.
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64())
        bg = self._gen.bit_generator
        bg.state = self._base
        bg.advance(self._pos)
        state = bg.state
        state["has_uint32"] = self._has32
        state["uinteger"] = self._u32
        bg.state = state
        return self._gen

    def _forget_hits(self) -> None:
        # _hits lists every index of the current block whose word is below
        # the threshold of probability _hit_p; _last_p is the p of the last
        # ``hits`` call served from this block.
        self._last_p = self._hit_p = self._hits = None

    def _refill(self, n: int) -> None:
        # A new block starting at the logical position; the words left in
        # the old one are drawn again.
        bg = self._synced().bit_generator
        self._base = bg.state
        block = bg.random_raw(max(DRAW_BLOCK, n))
        block.flags.writeable = False  # shared with clones
        self._block = block
        self._pos = 0
        self._forget_hits()

    def _take(self, n: int) -> int:
        # Block offset of the next n words, which are then consumed.
        pos = self._pos
        if pos + n > self._block.size:
            self._refill(n)
            pos = 0
        self._pos = pos + n
        return pos

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32  # numpy keeps the stale half after use too
        pos = self._take(1)  # may refill, so read the block after it
        word = self._block.item(pos)
        self._has32 = 1
        self._u32 = word >> 32
        return word & _M32

    def integers(self, m: int) -> int:
        """A uniform integer in 0..m-1, for 1 <= m < 2**32; m = 1 draws
        nothing."""
        if not 1 < m <= _M32:
            if m == 1:
                return 0
            raise ValueError(f"integer bound {m} outside 1..{_M32}")
        # The first half-word inline, as in _next32; only a rejection,
        # with probability below m / 2**32, calls it.
        if self._has32:
            self._has32 = 0
            prod = self._u32 * m
        else:
            pos = self._pos
            if pos == self._block.size:
                self._refill(1)
                pos = 0
            word = self._block.item(pos)
            self._pos = pos + 1
            self._has32 = 1
            self._u32 = word >> 32
            prod = (word & _M32) * m
        if prod & _M32 < m:
            threshold = (_M32 + 1 - m) % m
            while prod & _M32 < threshold:
                prod = self._next32() * m
        return prod >> 32

    def below(self, n: int, p: float) -> np.ndarray:
        """n independent events of probability p, as a boolean array;
        always consumes n words."""
        pos = self._take(n)
        if p >= 1.0:  # the threshold 2**64 does not fit in a uint64
            return np.ones(n, dtype=bool)
        if not p > 0.0:
            return np.zeros(n, dtype=bool)
        return self._block[pos:pos + n] < _word_threshold(p)

    def hits(self, n: int, p: float) -> tuple:
        """``(positions, offset)``: the indices at which ``below(n, p)``
        would be True are ``i - offset`` for ``i`` in ``positions``,
        ascending; consumes the same n words.

        The second call in a row at the same p compares the whole block
        once and keeps its hit list.  Later calls at that p return a slice
        of that list, whose entries are block indices, with the row's block
        offset, so no entry is shifted or rebuilt.  Every other call
        returns row indices with offset 0.  A refill drops the list;
        ``below`` calls in between leave it alone.
        """
        pos = self._pos  # _take(n), inline
        end = pos + n
        if end > self._block.size:
            self._refill(n)
            pos, end = 0, n
        self._pos = end
        if p >= 1.0:
            return range(n), 0
        if not p > 0.0:
            return (), 0
        if p != self._hit_p:
            if p != self._last_p:
                self._last_p = p
                return (self._block[pos:end] < _word_threshold(p)).nonzero()[0].tolist(), 0
            self._hit_p = p
            self._hits = (self._block < _word_threshold(p)).nonzero()[0].tolist()
        found = self._hits
        lo = bisect_left(found, pos)
        return found[lo:bisect_left(found, end, lo)], pos


def _word_threshold(p: float) -> int:
    # random() < p exactly when the raw word is below this, for 0 < p < 1.
    return math.ceil(p * _TWO53) << 11


@dataclass(slots=True)
class SimState:
    """Mutable simulation state.

    ``m0[i]`` is molecule i's cluster index, ``m1[i]`` its activity bit.
    ``c0[n]``/``c1[n]`` are cluster n's size and active-member count, and
    ``cl[n]`` lists its members in insertion order (merges append the
    absorbed cluster's members; splits cut the list at the drawn point).
    Cluster indices are dense 0..c_max-1; removing cluster q shifts every
    index above q down by one.

    Two derived tables, indexed by cluster size 0..N, feed the modal
    cluster lookup: ``hist[s]`` is the number of clusters of size s and
    ``act[s]`` the active molecules summed over those clusters.  They are
    built from ``c0``/``c1`` on construction (so ``clone`` rebuilds them)
    and every mutator in this module keeps them exact.  ``max_size`` is
    the largest cluster size, so the modal lookup scans ``hist`` only up
    to it.  Activity flags change only through ``flip`` (sparse: each
    listed molecule toggles) or ``settle`` (the whole population to one
    value, with listed exceptions); both keep ``c1``, ``act`` and
    ``n_active``, the running count of active molecules, exact.  Code
    that changes cluster sizes must build a new state.  ``m0`` and ``m1``
    are changed in place and never rebound, because the mutators walk
    them through memoryviews taken on construction.

    ``rng`` serves the step's draws: ``integers(m)`` for the merge and
    split, ``hits(n, p)`` for the noise and ``below(n, p)`` for the kick.
    A ``np.random.Generator`` passed in is wrapped in `Draws`; any other
    object is kept as it is and needs only the methods its phases call.
    """

    t: int
    m0: np.ndarray
    m1: np.ndarray
    c0: list
    c1: list
    cl: list
    rng: Draws
    hist: list = field(init=False)
    act: list = field(init=False)
    max_size: int = field(init=False)
    n_active: int = field(init=False)
    _clusters: memoryview = field(init=False, repr=False, compare=False)
    _flags: memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.rng, np.random.Generator):
            self.rng = Draws(self.rng)
        self.hist = _sum_by_size(self.c0, repeat(1), self.n_molecules)
        self.act = _sum_by_size(self.c0, self.c1, self.n_molecules)
        self.max_size = max(self.c0, default=0)
        self.n_active = int(np.count_nonzero(self.m1))
        self._clusters = memoryview(self.m0)
        self._flags = memoryview(self.m1)

    @property
    def n_molecules(self) -> int:
        return self.m0.shape[0]

    @property
    def c_max(self) -> int:
        return len(self.c0)

    def flip(self, idx, base: int = 0) -> int:
        """Toggle the activity of the distinct molecules ``i - base`` for
        ``i`` in ``idx``, as ``Draws.hits`` returns them; each flip moves
        its cluster's active count, the ``act`` table and ``n_active`` by
        one.  Returns the number of flips."""
        clusters, flags = self._clusters, self._flags
        c0, c1, act = self.c0, self.c1, self.act
        n_active = self.n_active
        for i in idx:
            i -= base
            k = clusters[i]
            if flags[i]:
                flags[i] = 0
                c1[k] -= 1
                act[c0[k]] -= 1
                n_active -= 1
            else:
                flags[i] = 1
                c1[k] += 1
                act[c0[k]] += 1
                n_active += 1
        self.n_active = n_active
        return len(idx)

    def settle(self, value: int, keep: list) -> int:
        """Set every activity flag to ``value`` (0 or 1) except those of
        ``keep``, a list of distinct molecules that already hold the other
        value.  ``c1`` and ``act`` are rebuilt for the uniform population
        and then moved by one per kept molecule, so the cost grows with
        the number of clusters and ``len(keep)``, not with the number of
        flags changed.  Returns that number."""
        n = self.m0.shape[0]
        at_value = self.n_active if value else n - self.n_active
        c0, c1, act = self.c0, self.c1, self.act
        top = self.max_size + 1  # act is 0 above the largest size
        self.m1.fill(value)  # in place: _flags stays a view of m1
        if value:
            c1[:] = c0
            act[:top] = map(mul, range(top), self.hist)
        else:
            c1[:] = [0] * len(c0)
            act[:top] = [0] * top
        other = 1 - value
        delta = other - value
        clusters, flags = self._clusters, self._flags
        for i in keep:
            k = clusters[i]
            flags[i] = other
            c1[k] += delta
            act[c0[k]] += delta
        self.n_active = len(keep) if other else n - len(keep)
        return n - len(keep) - at_value

    def active_total(self) -> int:
        return self.n_active

    def clone(self) -> "SimState":
        """Deep copy that replays identically to the original.  The draw
        source is copied at its logical position (`Draws.clone`), which
        touches no generator."""
        return SimState(
            t=self.t,
            m0=self.m0.copy(),
            m1=self.m1.copy(),
            c0=list(self.c0),
            c1=list(self.c1),
            cl=[list(members) for members in self.cl],
            rng=self.rng.clone(),
        )


class StepReport(NamedTuple):
    """What one step did: merged pair, split (cluster, cut point), which
    boundary rule fired, and how many activity bits noise and the
    coherence kick changed."""

    t: int
    merged: Optional[tuple] = None
    split: Optional[tuple] = None
    boundary: str = "none"
    noise_flips: int = 0
    coherence_flips: int = 0


def init_state(params: SimParams) -> SimState:
    """All molecules start as inactive singleton clusters."""
    n = params.n_molecules
    return SimState(
        t=0,
        m0=np.arange(n, dtype=np.int32),
        m1=np.zeros(n, dtype=np.int8),
        c0=[1] * n,
        c1=[0] * n,
        cl=[[i] for i in range(n)],
        rng=np.random.default_rng(params.seed),
    )


def _sum_by_size(sizes, values, n: int) -> list:
    # table[s] = sum of the values of the clusters of size s, s in 0..n.
    table = [0] * (n + 1)
    for size, value in zip(sizes, values):
        table[size] += value
    return table


def _merge_clusters(state: SimState, p: int, q: int) -> None:
    # p < q; q's members join p, then q's slot is compacted away.
    c0, c1, hist, act = state.c0, state.c1, state.hist, state.act
    size_p, size_q, active_p, active_q = c0[p], c0[q], c1[p], c1[q]
    members_q = state.cl[q]
    clusters = state._clusters
    for i in members_q:
        clusters[i] = p
    state.cl[p].extend(members_q)
    c0[p] = size_p + size_q
    c1[p] = active_p + active_q
    state.max_size = max(state.max_size, size_p + size_q)
    del c0[q]
    del c1[q]
    del state.cl[q]
    m0 = state.m0
    m0 -= m0 > q
    hist[size_p] -= 1
    hist[size_q] -= 1
    hist[size_p + size_q] += 1
    act[size_p] -= active_p
    act[size_q] -= active_q
    act[size_p + size_q] += active_p + active_q


def attempt_clustering(state: SimState, theta_c: float):
    """Try one merge; returns the merged (p, q) pair or None.

    Two distinct clusters are drawn uniformly (redrawing the second until
    it differs, then ordered).  The merge goes ahead only if both have an
    active fraction strictly below ``theta_c``; a failed draw is not
    retried within the step.  With a single cluster nothing is drawn.
    """
    cm = len(state.c0)
    if cm < 2:
        return None
    rng = state.rng
    p = rng.integers(cm)
    q = rng.integers(cm)
    while q == p:
        q = rng.integers(cm)
    if p > q:
        p, q = q, p
    c0, c1 = state.c0, state.c1
    if not (c1[p] / c0[p] < theta_c and c1[q] / c0[q] < theta_c):
        return None
    _merge_clusters(state, p, q)
    return (p, q)


def _split_cluster(state: SimState, k: int, s: int) -> None:
    # The first s members stay in k; the tail becomes a new last cluster.
    c0, c1, hist, act = state.c0, state.c1, state.hist, state.act
    size, active = c0[k], c1[k]
    members = state.cl[k]
    tail = members[s:]
    del members[s:]
    tail_active = sum(map(state._flags.__getitem__, tail))
    clusters, new = state._clusters, len(c0)
    for i in tail:
        clusters[i] = new
    state.cl.append(tail)
    c0[k] = s
    c0.append(size - s)
    c1[k] = active - tail_active
    c1.append(tail_active)
    hist[size] -= 1
    hist[s] += 1
    hist[size - s] += 1
    if size == state.max_size:
        # Both halves are smaller, so the scan stops at the larger one.
        top = size
        while not hist[top]:
            top -= 1
        state.max_size = top
    act[size] -= active
    act[s] += active - tail_active
    act[size - s] += tail_active


def attempt_declustering(state: SimState, theta_dec: float):
    """Try one split; returns (cluster, cut point) or None.

    The candidate cluster is the one holding a uniformly drawn molecule,
    so larger clusters are proportionally more likely to split.  The
    split happens only if the cluster's active fraction strictly exceeds
    ``theta_dec`` and it has at least two members; the cut point is then
    uniform over the interior positions.
    """
    rng = state.rng
    mol = rng.integers(state.m0.shape[0])
    k = state._clusters[mol]
    size = state.c0[k]
    if size < 2:
        return None
    if not (state.c1[k] / size > theta_dec):
        return None
    s = 1 + rng.integers(size - 1)
    _split_cluster(state, k, s)
    return (k, s)


def apply_boundary_rules(state: SimState) -> str:
    """Global resets at the extremes of aggregation.

    Full fragmentation (every molecule a singleton) inactivates the whole
    population; full aggregation (one cluster) activates it, each through
    ``SimState.settle`` with no exceptions.  Anywhere in between nothing
    happens.
    """
    cm = len(state.c0)
    if cm == state.m0.shape[0]:
        state.settle(0, [])
        return "all_inactivated"
    if cm == 1:
        state.settle(1, [])
        return "all_activated"
    return "none"


def apply_noise(state: SimState, p: float) -> int:
    """Flip each molecule's activity independently with probability p,
    through ``SimState.flip``; returns the number of flips.  The flipped
    molecules and their offset come from ``rng.hits``.  With p <= 0 no
    random draws are consumed.
    """
    if p <= 0.0:
        return 0
    return state.flip(*state.rng.hits(state.m0.shape[0], p))


def step(state: SimState, params: SimParams) -> StepReport:
    """Advance one step: merge, split, boundary, noise, optional kick.

    When the interplay is enabled the boundary rules run once more after
    the kick so an extreme reached within the step keeps its mandated
    activity.  Noise and the kick never change cluster sizes, so that
    second call reports the rule the first one did and its result is not
    kept.  The step counter increments last.
    """
    if state.t >= params.max_steps:
        raise ValueError(
            f"step budget exhausted: t={state.t}, max_steps={params.max_steps}"
        )
    merged = attempt_clustering(state, params.theta_c)
    split = attempt_declustering(state, params.theta_dec)
    boundary = apply_boundary_rules(state)
    noise_flips = apply_noise(state, noise_at(params.noise_schedule, state.t))
    coherence_flips = 0
    if params.interplay_enabled:
        outcome = interplay.run_interplay(state, params)
        coherence_flips = outcome.flips
        apply_boundary_rules(state)
    state.t += 1
    return StepReport(state.t, merged, split, boundary, noise_flips, coherence_flips)


def audit_consistency(state: SimState) -> list:
    """Cross-check the redundant state arrays; returns violation strings.

    Verifies cluster sizes against membership lists, active counts
    against molecule flags, the molecule-to-cluster index map, that
    every molecule appears exactly once, and the size tables ``hist``/
    ``act`` and ``max_size`` against a rebuild from ``c0``/``c1``, and the
    running ``n_active`` against the flags.  Never mutates the state; an
    empty list means the invariants hold.
    """
    out = []
    n = state.n_molecules
    cm = state.c_max
    if not (1 <= cm <= n):
        out.append(f"cluster count {cm} outside 1..{n}")
    if not (len(state.c0) == len(state.c1) == len(state.cl)):
        out.append(
            f"bookkeeping lengths differ: c0={len(state.c0)} "
            f"c1={len(state.c1)} cl={len(state.cl)}"
        )
        return out
    total = sum(state.c0)
    if total != n:
        out.append(f"cluster sizes sum to {total}, expected {n}")
    bad_bits = np.flatnonzero((state.m1 != 0) & (state.m1 != 1))
    for mol in bad_bits[:5]:
        out.append(f"molecule {int(mol)}: activity {int(state.m1[mol])} not 0/1")
    seen = np.zeros(n, dtype=np.int64)
    for k in range(cm):
        members = state.cl[k]
        if state.c0[k] != len(members):
            out.append(
                f"cluster {k}: recorded size {state.c0[k]} != "
                f"membership length {len(members)}"
            )
        inside = [m for m in members if 0 <= m < n]
        if len(inside) != len(members):
            out.append(f"cluster {k}: member index out of range")
        for m in inside:
            seen[m] += 1
        active = int(state.m1[inside].sum()) if inside else 0
        if state.c1[k] != active:
            out.append(
                f"cluster {k}: recorded active count {state.c1[k]} != recount {active}"
            )
        if not (0 <= state.c1[k] <= state.c0[k]):
            out.append(
                f"cluster {k}: active count {state.c1[k]} outside 0..{state.c0[k]}"
            )
        wrong = [m for m in inside if state.m0[m] != k]
        if wrong:
            out.append(
                f"cluster {k}: member {wrong[0]} has cluster index "
                f"{int(state.m0[wrong[0]])}"
            )
    # A size outside 0..n cannot index the tables; the checks above
    # already report it.
    if all(0 <= size <= n for size in state.c0):
        for name, kept, values in (("hist", state.hist, repeat(1)),
                                   ("act", state.act, state.c1)):
            fresh = _sum_by_size(state.c0, values, n)
            if len(kept) != n + 1:
                out.append(f"size table {name} has {len(kept)} entries, expected {n + 1}")
                continue
            wrong = [size for size in range(n + 1) if kept[size] != fresh[size]]
            for size in wrong[:5]:
                out.append(
                    f"size table {name}[{size}] = {kept[size]} != "
                    f"rebuild from c0/c1 {fresh[size]}"
                )
    flagged = int(np.count_nonzero(state.m1))
    if state.n_active != flagged:
        out.append(f"n_active {state.n_active} != active flags {flagged}")
    largest = max(state.c0, default=0)
    if state.max_size != largest:
        out.append(f"max_size {state.max_size} != largest cluster size {largest}")
    missing = np.flatnonzero(seen == 0)
    for mol in missing[:5]:
        out.append(f"molecule {int(mol)} appears in no membership list")
    dup = np.flatnonzero(seen > 1)
    for mol in dup[:5]:
        out.append(
            f"molecule {int(mol)} appears {int(seen[mol])} times across membership lists"
        )
    return out
