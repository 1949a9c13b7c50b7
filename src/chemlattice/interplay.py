"""Coherence kick driven by the modal cluster.

Once per step (when enabled) the most frequent cluster *size* is read
from the state's size histogram ``hist``, ties going to the smallest
size, and the lowest-index cluster of that size acts as representative.
If the representative's active fraction sits inside the mixed band
[theta_a, 1 - theta_a], every molecule is independently pushed (with
probability p_coh) toward the minority state: active when the fraction
is below one half, inactive otherwise.  Pure representatives (fraction
0 or 1) never trigger a kick, so without noise the kick is inert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .sim_core import SimParams, SimState

__all__ = [
    "InterplayOutcome",
    "modal_cluster",
    "active_ratio",
    "target_activity",
    "coherence_kick",
    "run_interplay",
]


class InterplayOutcome(NamedTuple):
    """One interplay evaluation: the modal size, its representative, the
    activity ratio fed to the kick, whether the kick fired, and how many
    flags actually changed."""

    mode_size: int
    representative: int
    r_a: float
    kicked: bool
    flips: int


def modal_cluster(state: "SimState") -> tuple:
    """Most frequent cluster size and its lowest-index representative.

    Frequency ties resolve to the smallest size, so a fully fragmented
    population reports (1, 0).
    """
    hist = state.hist
    mode_size = hist.index(max(hist[: state.max_size + 1]))
    return mode_size, state.c0.index(mode_size)


def active_ratio(state: "SimState", cluster: int) -> float:
    """Active fraction of one cluster, in [0, 1]."""
    c_max = len(state.c0)
    if not 0 <= cluster < c_max:
        raise ValueError(f"cluster index {cluster} outside 0..{c_max - 1}")
    return (state.flags & state.mask_of[state.order[cluster]]).bit_count() / state.c0[cluster]


def target_activity(r_a: float) -> int:
    """Minority activity value for a given active fraction.

    Below one half the push is toward active; at exactly one half and
    above it is toward inactive.
    """
    return 1 if r_a < 0.5 else 0


def coherence_kick(state: "SimState", r_a: float, p_coh: float, theta_a: float) -> int:
    """Push every molecule toward the minority state with prob. p_coh.

    The caller must have verified that ``r_a`` lies inside the mixed band
    [theta_a, 1 - theta_a]; out-of-band values raise without mutating the
    state.  The selected molecules are one ``rng.row`` mask.  Every one of
    them ends at the target, so the kick settles the whole population
    there (``SimState.settle``) except the unselected molecules that hold
    the other value: with T the target population (0 or all N bits), the
    flags become ``T ^ (~selected & (flags ^ T))``, a few operations on
    N-bit ints however many molecules move.  Returns the number of flags
    changed.
    """
    if not theta_a <= r_a <= 1.0 - theta_a:
        raise ValueError(
            f"active ratio {r_a} outside the mixed band "
            f"[{theta_a}, {1.0 - theta_a}]"
        )
    target = target_activity(r_a)
    n = len(state.cluster_of)
    population = (1 << n) - 1 if target else 0
    selected = state.rng.row(n, p_coh)
    return state.settle(target, ~selected & (state.flags ^ population))


def run_interplay(state: "SimState", params: "SimParams") -> InterplayOutcome:
    """Evaluate the modal cluster and fire the kick when the band allows.

    With ``pooled_modal_ratio`` the ratio aggregates active and total
    counts over *all* clusters of the modal size (the flags under
    ``size_mask`` and the ``hist`` entry) instead of the single
    representative.
    """
    mode_size, representative = modal_cluster(state)
    if params.pooled_modal_ratio:
        r_a = ((state.flags & state.size_mask[mode_size]).bit_count()
               / (mode_size * state.hist[mode_size]))
    else:
        r_a = active_ratio(state, representative)
    kicked = params.theta_a <= r_a <= 1.0 - params.theta_a
    flips = 0
    if kicked:
        flips = coherence_kick(state, r_a, params.p_coh, params.theta_a)
    # tuple.__new__ skips the named tuple's generated __new__ frame.
    return tuple.__new__(InterplayOutcome, (mode_size, representative, r_a, kicked, flips))
