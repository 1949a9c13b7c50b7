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
and trajectories replay bit-exactly.  A row of per-molecule events (the
noise, the kick) comes as one int mask (``row``), bit i for molecule i,
and activity is held the same way: one int of flags plus a member mask
per cluster and per cluster size.  So a noise row is one XOR and a kick
or reset a few operations on N-bit ints, whatever the number of
molecules that flip; a cluster's active count is the bit count of its
mask ANDed with the flags, and its id is its first member.  A state is
not safe to share between threads; sweeps use independent states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
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

    A constant schedule is ``p0`` throughout and takes no ramp fields; a
    ramp contributes nothing before ``onset_step`` and then grows linearly
    from ``p0`` at ``rate`` per step, clamped to [0, 1].
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
        for name in ("rate", "onset_step") if self.kind == "constant" else ():
            if getattr(self, name):
                raise ConfigError(f"a constant noise schedule takes no {name}")

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

    ``integers(m)`` returns exactly ``int(gen.integers(m))``, and
    ``row(n, p)`` returns ``gen.random(n) < p`` as an int whose bit i is
    entry i; both consume the stream as those calls do, so a run is
    bit-identical to one that calls the generator directly.  Bounded
    integers use Lemire's rejection on 32-bit halves: a raw word serves
    its low half first and caches its high half, like PCG64's
    ``next_uint32``, and the replay keeps that cache from construction
    on.  ``random()`` is ``(word >> 11) * 2**-53``, so ``random() < p``
    is ``word < ceil(p * 2**53) << 11``.

    ``bit_generator`` returns the generator moved to the replay's logical
    position.  Drawing from it directly desynchronises the replay.
    """

    __slots__ = ("_gen", "_base", "_block", "_words", "_size", "_pos", "_has32", "_u32",
                 "_rows")

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
        self._words = memoryview(_NO_WORDS)
        self._size = self._pos = 0
        self._has32 = self._base["has_uint32"]
        self._u32 = self._base["uinteger"]
        self._rows = {}

    @property
    def bit_generator(self) -> np.random.PCG64:
        return self._synced().bit_generator

    def clone(self) -> "Draws":
        """Copy at the same logical position.  The copy shares the
        read-only block and its packed rows and builds its own generator
        only when it needs one, so cloning draws nothing."""
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

    def _refill(self, n: int) -> None:
        # A new block starting at the logical position; the words left in
        # the old one are drawn again.
        bg = self._synced().bit_generator
        self._base = bg.state
        block = bg.random_raw(max(DRAW_BLOCK, n))
        block.flags.writeable = False  # shared with clones
        # Single words are read through a memoryview, which is faster
        # than ndarray.item; rows are compared on the array.
        self._block = block
        self._words = memoryview(block)
        self._size = block.size
        self._pos = 0
        # A new dict, not a cleared one: clones share the old block's.
        self._rows = {}

    def _take(self, n: int) -> int:
        # Block offset of the next n words, which are then consumed.
        pos = self._pos
        if pos + n > self._size:
            self._refill(n)
            pos = 0
        self._pos = pos + n
        return pos

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32  # numpy keeps the stale half after use too
        pos = self._take(1)  # may refill, so read the block after it
        word = self._words[pos]
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
            if pos == self._size:
                self._refill(1)
                pos = 0
            word = self._words[pos]
            self._pos = pos + 1
            self._has32 = 1
            self._u32 = word >> 32
            prod = (word & _M32) * m
        if prod & _M32 < m:
            threshold = (_M32 + 1 - m) % m
            while prod & _M32 < threshold:
                prod = self._next32() * m
        return prod >> 32

    def row(self, n: int, p: float) -> int:
        """n independent events of probability p as an int mask: bit i is
        set exactly where ``gen.random(n) < p`` is True.  Always consumes
        n words.

        ``_rows`` maps each p asked in the current block to None after its
        first row there, which compares only its own words, and to the
        whole block compared and packed little-endian into bytes from the
        second on; later rows at that p are cut from those bytes.  So the
        noise and the kick keep one packed block each, and a ramp, whose p
        changes every step, packs only its own rows.
        """
        pos = self._pos  # _take(n), inline
        end = pos + n
        if end > self._size:
            self._refill(n)
            pos, end = 0, n
        self._pos = end
        if p >= 1.0:  # the threshold 2**64 does not fit in a uint64
            return (1 << n) - 1
        if not p > 0.0:
            return 0
        rows = self._rows
        packed = rows.get(p)
        if packed is None:
            if p not in rows:
                rows[p] = None
                own = np.packbits(self._block[pos:end] < _word_threshold(p), bitorder="little")
                return int.from_bytes(own.tobytes(), "little")
            packed = rows[p] = np.packbits(self._block < _word_threshold(p),
                                           bitorder="little").tobytes()
        return int.from_bytes(packed[pos >> 3:(end + 7) >> 3], "little") >> (pos & 7) \
            & ((1 << n) - 1)


def _word_threshold(p: float) -> int:
    # random() < p exactly when the raw word is below this, for 0 < p < 1.
    return math.ceil(p * _TWO53) << 11


class SimState:
    """Mutable simulation state: Python lists of ints, and activity held
    as bitmasks.

    A cluster's id is its first member: a merge appends the absorbed
    cluster's members to the kept one's, and a split gives the tail its
    own first member as id, which no live cluster holds.  Per id,
    ``members_of`` and ``mask_of`` hold the cluster's members in insertion
    order and the same members as a bitmask (bit i for molecule i); the
    entries of a molecule that is no id are stale.  ``cluster_of[i]`` is
    molecule i's cluster id.  ``flags`` is one int whose bit i is molecule
    i's activity, and ``n_active`` reads its bit count.  A cluster's size
    is the length of its member list and its active count
    ``(flags & mask_of[k]).bit_count()``, read when a gate needs it;
    neither is kept by id.

    The draws and reports speak in *positions*: ``order`` lists the live
    ids by position, dense 0..c_max-1, and ``c0`` their sizes.  A merge
    deletes the absorbed position from both, which shifts every position
    above it down by one without relabelling a molecule; a split appends
    its new cluster at the end.

    For sizes s in 0..N, ``hist[s]`` is the number of clusters of size s
    and ``size_mask[s]`` the OR of their member masks, so their active
    molecules are ``(flags & size_mask[s]).bit_count()``.
    ``max_size`` is the largest size, so the modal lookup scans ``hist``
    only up to it.  The constructor takes the members by position and the
    flag mask and derives the rest, which every mutator here keeps exact.
    Flags change only through ``flip`` (XOR with a mask) or ``settle``
    (everyone to one value, a mask of exceptions at the other), so a
    change of any number of flags costs a few operations on N-bit ints.

    ``rng`` serves the step's draws: ``integers(m)`` for the merge and
    split, ``row(n, p)`` for the noise and the kick.  A
    ``np.random.Generator`` passed in is wrapped in `Draws`; any other
    object is kept as it is and needs only the methods its phases call.
    """

    __slots__ = ("t", "rng", "order", "c0", "members_of", "mask_of", "cluster_of", "flags",
                 "hist", "size_mask", "max_size")

    def __init__(self, members, flags: int, rng, t: int = 0) -> None:
        self.t = t
        self.rng = Draws(rng) if isinstance(rng, np.random.Generator) else rng
        self.flags = flags
        n = sum(map(len, members))
        members_of = self.members_of = [None] * n
        mask_of = self.mask_of = [0] * n
        cluster_of = self.cluster_of = [-1] * n
        self.order = [m[0] for m in members]
        for a, m in zip(self.order, members):
            members_of[a] = list(m)
            for i in m:
                cluster_of[i] = a
                mask_of[a] |= 1 << i
        self.c0 = list(map(len, members))
        self.hist = _sum_by_size(self.c0, repeat(1), n)
        self.size_mask = _sum_by_size(self.c0, [mask_of[a] for a in self.order], n)
        self.max_size = max(self.c0, default=0)

    @property
    def n_molecules(self) -> int:
        return len(self.cluster_of)

    @property
    def n_active(self) -> int:
        return self.flags.bit_count()

    @property
    def c_max(self) -> int:
        return len(self.order)

    def flip(self, mask: int) -> int:
        """Toggle the activity of the molecules in ``mask`` (bit i for
        molecule i), as ``Draws.row`` returns them; returns their number."""
        self.flags ^= mask
        return mask.bit_count()

    def settle(self, value: int, keep: int) -> int:
        """Set every activity flag to ``value`` (0 or 1) except those of
        the molecules in ``keep``, a mask, which end at the other value.
        Returns the number of flags changed."""
        flags = ((1 << len(self.cluster_of)) - 1 if value else 0) ^ keep
        changed = (flags ^ self.flags).bit_count()
        self.flags = flags
        return changed

    def clone(self) -> "SimState":
        """Deep copy that replays identically to the original.  The draw
        source is copied at its logical position (`Draws.clone`), which
        touches no generator.  The copy keeps the ids, the first members."""
        return SimState([self.members_of[k] for k in self.order], self.flags, self.rng.clone(),
                        self.t)


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
    return SimState([[i] for i in range(n)], 0, np.random.default_rng(params.seed))


def _sum_by_size(sizes, values, n: int) -> list:
    # table[s] = sum of the values of the clusters of size s, s in 0..n;
    # for member masks, which are disjoint, the sum is their OR.
    table = [0] * (n + 1)
    for size, value in zip(sizes, values):
        table[size] += value
    return table


def _merge_clusters(state: SimState, p: int, q: int) -> None:
    # p < q; q's members follow p's, whose first member stays the id.
    c0, hist, size_mask = state.c0, state.hist, state.size_mask
    order, mask_of = state.order, state.mask_of
    a, b = order[p], order[q]
    size_p, size_q, mask_p, mask_q = c0[p], c0[q], mask_of[a], mask_of[b]
    members_q = state.members_of[b]
    cluster_of = state.cluster_of
    for i in members_q:
        cluster_of[i] = a
    state.members_of[a] += members_q
    size = c0[p] = size_p + size_q
    mask = mask_of[a] = mask_p | mask_q
    state.max_size = max(state.max_size, size)
    del c0[q], order[q]
    hist[size_p] -= 1
    hist[size_q] -= 1
    hist[size] += 1
    size_mask[size_p] ^= mask_p
    size_mask[size_q] ^= mask_q
    size_mask[size] |= mask


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
    c0, order, mask_of, flags = state.c0, state.order, state.mask_of, state.flags
    if not ((flags & mask_of[order[p]]).bit_count() / c0[p] < theta_c
            and (flags & mask_of[order[q]]).bit_count() / c0[q] < theta_c):
        return None
    _merge_clusters(state, p, q)
    return (p, q)


def _split_cluster(state: SimState, a: int, s: int) -> int:
    # The first s members stay in cluster a; the tail becomes a new cluster,
    # its first member the id, at the last position.  Returns a's position.
    hist, size_mask, mask_of = state.hist, state.size_mask, state.mask_of
    members, mask = state.members_of[a], mask_of[a]
    size = len(members)
    tail = members[s:]
    del members[s:]
    b = tail[0]
    cluster_of = state.cluster_of
    tail_mask = 0
    for i in tail:
        cluster_of[i] = b
        tail_mask |= 1 << i
    state.members_of[b] = tail
    head_mask = mask_of[a] = mask ^ tail_mask
    mask_of[b] = tail_mask
    k = state.order.index(a)
    state.order.append(b)
    state.c0[k] = s
    state.c0.append(size - s)
    hist[size] -= 1
    hist[s] += 1
    hist[size - s] += 1
    if size == state.max_size:
        # Both halves are smaller, so the scan stops at the larger one.
        top = size
        while not hist[top]:
            top -= 1
        state.max_size = top
    size_mask[size] ^= mask
    size_mask[s] |= head_mask
    size_mask[size - s] |= tail_mask
    return k


def attempt_declustering(state: SimState, theta_dec: float):
    """Try one split; returns (cluster, cut point) or None.

    The candidate cluster is the one holding a uniformly drawn molecule,
    so larger clusters are proportionally more likely to split.  The
    split happens only if the cluster's active fraction strictly exceeds
    ``theta_dec`` and it has at least two members; the cut point is then
    uniform over the interior positions.
    """
    rng = state.rng
    a = state.cluster_of[rng.integers(len(state.cluster_of))]
    size = len(state.members_of[a])
    if size < 2:
        return None
    if not ((state.flags & state.mask_of[a]).bit_count() / size > theta_dec):
        return None
    s = 1 + rng.integers(size - 1)
    return (_split_cluster(state, a, s), s)


def apply_boundary_rules(state: SimState) -> str:
    """Global resets at the extremes of aggregation.

    Full fragmentation (every molecule a singleton) inactivates the whole
    population; full aggregation (one cluster) activates it, each through
    ``SimState.settle`` with no exceptions.  Anywhere in between nothing
    happens.
    """
    cm = len(state.c0)
    if cm == len(state.cluster_of):
        state.settle(0, 0)
        return "all_inactivated"
    if cm == 1:
        state.settle(1, 0)
        return "all_activated"
    return "none"


def apply_noise(state: SimState, p: float) -> int:
    """Flip each molecule's activity independently with probability p:
    one ``rng.row`` mask XORed into the flags by ``SimState.flip``;
    returns the number of flips.  With p <= 0 no random draws are
    consumed.
    """
    if p <= 0.0:
        return 0
    row = state.rng.row(len(state.cluster_of), p)
    return state.flip(row) if row else 0


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
    # tuple.__new__ skips the named tuple's generated __new__ frame.
    return tuple.__new__(StepReport, (state.t, merged, split, boundary, noise_flips,
                                      coherence_flips))


def audit_consistency(state: SimState) -> list:
    """Cross-check the redundant state lists; returns violation strings.

    Verifies that the live ids (``order``) are distinct and each is its
    cluster's first member, each cluster's size (``c0``) and member mask
    against its membership list, each member's cluster id, that every
    molecule appears exactly once, the size tables ``hist`` and
    ``size_mask`` and ``max_size`` against a rebuild from the membership
    lists, and that ``flags`` sets no bit above molecule N-1.  Clusters
    are named by position.  Never mutates the state; an empty list means
    the invariants hold.
    """
    out = []
    n = state.n_molecules
    order, c0 = state.order, state.c0
    cm = len(order)
    if not (1 <= cm <= n):
        out.append(f"cluster count {cm} outside 1..{n}")
    if (len(c0), len(state.mask_of), len(state.members_of)) != (cm, n, n):
        out.append(f"bookkeeping lengths differ: order={cm} c0={len(c0)} "
                   f"mask_of={len(state.mask_of)} members_of={len(state.members_of)}")
        return out
    if len(set(order)) != cm or not all(0 <= a < n for a in order):
        out.append(f"live cluster ids are not {cm} distinct molecules of 0..{n - 1}")
        return out
    total = sum(c0)
    if total != n:
        out.append(f"cluster sizes sum to {total}, expected {n}")
    flags = state.flags
    if flags < 0 or flags >> n:
        out.append(f"activity flags set bits outside molecules 0..{n - 1}")
    listed, masks = [], []
    for k, a in enumerate(order):
        members = state.members_of[a] or []
        if members[:1] != [a]:
            out.append(f"cluster {k}: id {a} is not its first member")
        if c0[k] != len(members):
            out.append(f"cluster {k}: recorded size {c0[k]} != membership length "
                       f"{len(members)}")
        inside = [m for m in members if 0 <= m < n]
        if len(inside) != len(members):
            out.append(f"cluster {k}: member index out of range")
        listed += inside
        mask = 0
        for m in inside:
            mask |= 1 << m
        masks.append(mask)
        if state.mask_of[a] != mask:
            out.append(f"cluster {k}: member mask != mask of its {len(inside)} members")
        wrong = [m for m in inside if state.cluster_of[m] != a]
        if wrong:
            out.append(f"cluster {k}: member {wrong[0]} has cluster id "
                       f"{state.cluster_of[wrong[0]]}, not {a}")
    # A size outside 0..n cannot index the tables; the checks above
    # already report it.
    if all(0 <= size <= n for size in c0):
        for name, kept, fresh, show in (
                ("hist", state.hist, _sum_by_size(c0, repeat(1), n), str),
                ("size_mask", state.size_mask, _sum_by_size(c0, masks, n), hex)):
            if len(kept) != n + 1:
                out.append(f"size table {name} has {len(kept)} entries, expected {n + 1}")
                continue
            for size in [size for size in range(n + 1) if kept[size] != fresh[size]][:5]:
                out.append(f"size table {name}[{size}] = {show(kept[size])} != rebuild from "
                           f"the membership lists {show(fresh[size])}")
    largest = max(c0, default=0)
    if state.max_size != largest:
        out.append(f"max_size {state.max_size} != largest cluster size {largest}")
    seen = [0] * n
    for mol in listed:
        seen[mol] += 1
    for mol in [i for i, k in enumerate(seen) if k == 0][:5]:
        out.append(f"molecule {mol} appears in no membership list")
    for mol in [i for i, k in enumerate(seen) if k > 1][:5]:
        out.append(f"molecule {mol} appears {seen[mol]} times across membership lists")
    return out
