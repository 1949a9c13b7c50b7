"""Tests for the modal-cluster coherence kick."""

import dataclasses

import pytest

from chemlattice import harness, interplay
from chemlattice.interplay import (
    InterplayOutcome,
    active_ratio,
    coherence_kick,
    modal_cluster,
    run_interplay,
    target_activity,
)
from chemlattice.sim_core import NoiseSchedule, SimParams, audit_consistency, init_state, step

from test_sim_core import make_state, member_lists


def test_modal_prefers_most_frequent_size():
    state = make_state([(1, 0), (1, 0), (1, 0), (5, 0)])
    assert modal_cluster(state) == (1, 0)


def test_modal_tie_breaks_to_smaller_size():
    state = make_state([(2, 0), (2, 0), (3, 0), (3, 0)])
    size, rep = modal_cluster(state)
    assert size == 2
    assert rep == 0


def test_modal_single_cluster():
    state = make_state([(6, 3)])
    assert modal_cluster(state) == (6, 0)


def test_modal_representative_is_lowest_index_of_size():
    state = make_state([(4, 0), (2, 0), (2, 0), (4, 0)])
    size, rep = modal_cluster(state)
    assert size == 2 and rep == 1


def test_active_ratio_extremes_and_fraction():
    state = make_state([(3, 0), (5, 5), (4, 1)])
    assert active_ratio(state, 0) == 0.0
    assert active_ratio(state, 1) == 1.0
    assert active_ratio(state, 2) == 0.25
    with pytest.raises(ValueError):
        active_ratio(state, 3)


def test_target_is_minority_state():
    assert target_activity(0.3) == 1
    assert target_activity(0.7) == 0
    assert target_activity(0.5) == 0  # exactly half pushes inactive


def test_kick_with_certain_participation_goes_all_active():
    state = make_state([(10, 3)], seed=1)
    flips = coherence_kick(state, 0.3, p_coh=1.0, theta_a=0.3)
    assert flips == 7
    assert state.n_active == 10
    assert audit_consistency(state) == []


def test_kick_with_certain_participation_goes_all_inactive():
    state = make_state([(10, 7)], seed=1)
    coherence_kick(state, 0.7, p_coh=1.0, theta_a=0.3)
    assert state.n_active == 0


def test_kick_rejects_out_of_band_ratio_without_mutating():
    state = make_state([(10, 1)], seed=1)
    before = state.flags
    with pytest.raises(ValueError):
        coherence_kick(state, 0.1, p_coh=1.0, theta_a=0.3)
    assert state.flags == before


def test_kick_mean_changed_count_matches_binomial():
    # 100 inactive molecules, target active, participation 0.95
    base = make_state([(2, 1)] * 100, seed=77)
    reps = 10_000
    total = 0
    for _ in range(reps):
        state = base.clone()
        state.rng = base.rng
        total += coherence_kick(state, 0.3, p_coh=0.95, theta_a=0.3)
    mean = total / reps
    assert abs(mean - 95.0) < 0.2, mean


def test_run_interplay_fires_only_inside_band():
    state = make_state([(10, 5), (10, 10)], seed=5)
    params = SimParams(n_molecules=20, theta_a=0.3, p_coh=1.0, interplay_enabled=True)
    out = run_interplay(state, params)
    assert out.mode_size == 10 and out.representative == 0
    assert out.r_a == 0.5 and out.kicked
    assert state.n_active == 0  # pushed toward inactive

    pure = make_state([(10, 10), (4, 0)], seed=5)
    out = run_interplay(pure, params)
    assert not out.kicked and out.flips == 0
    assert pure.n_active == 10


@pytest.mark.parametrize("clusters, kicked", [([(10, 5), (10, 10)], True),
                                               ([(10, 10), (4, 0)], False)])
def test_run_interplay_returns_a_whole_outcome(clusters, kicked):
    # run_interplay builds its outcome with tuple.__new__, which checks no arity.
    params = SimParams(n_molecules=20, theta_a=0.3, p_coh=1.0, interplay_enabled=True)
    out = run_interplay(make_state(clusters, seed=5), params)
    assert out.kicked is kicked
    assert type(out) is InterplayOutcome
    assert len(out) == len(InterplayOutcome._fields)
    assert out._asdict() == InterplayOutcome(
        mode_size=out.mode_size, representative=out.representative, r_a=out.r_a,
        kicked=out.kicked, flips=out.flips)._asdict()


def test_pooled_ratio_aggregates_all_modal_clusters():
    # two singletons, one active: single-representative reading sees 1.0
    # (no kick), pooled reading sees 0.5 (kick toward inactive)
    single = make_state([(1, 1), (1, 0), (2, 1)], seed=9)
    params = SimParams(n_molecules=4, theta_a=0.3, p_coh=1.0, interplay_enabled=True)
    out = run_interplay(single, params)
    assert out.r_a == 1.0 and not out.kicked

    pooled = make_state([(1, 1), (1, 0), (2, 1)], seed=9)
    out = run_interplay(pooled, SimParams(
        n_molecules=4, theta_a=0.3, p_coh=1.0,
        interplay_enabled=True, pooled_modal_ratio=True,
    ))
    assert out.r_a == 0.5 and out.kicked
    assert pooled.n_active == 0


def test_interplay_is_inert_without_noise():
    """In the noise-free regime the modal cluster is never mixed, so
    enabling the interplay leaves the trajectory untouched."""
    quiet = NoiseSchedule(kind="constant", p0=0.0)
    base = SimParams(n_molecules=60, noise_schedule=quiet, max_steps=3000, seed=21)
    with_kick = SimParams(
        n_molecules=60, noise_schedule=quiet, max_steps=3000, seed=21,
        interplay_enabled=True, theta_a=0.3, p_coh=0.95,
    )
    sa, sb = init_state(base), init_state(with_kick)
    for _ in range(3000):
        ra = step(sa, base)
        rb = step(sb, with_kick)
        assert rb.coherence_flips == 0
        assert (ra.merged, ra.split, ra.boundary) == (rb.merged, rb.split, rb.boundary)
    assert sa.flags == sb.flags
    assert member_lists(sa) == member_lists(sb)


def test_only_the_pooled_reading_kicks_at_fig9c_parameters(monkeypatch):
    """At fig9c's parameters, unpooled, the modal size is 1 at every step,
    so the representative is a singleton whose active fraction is 0 or 1
    and never in the mixed band; only the pooled reading, the active
    fraction of all singletons, fires the kick."""
    fig9c = harness.builtin_config("fig9c").sim
    outcomes = []

    def recording(state, params):
        outcomes.append(run_interplay(state, params))
        return outcomes[-1]

    monkeypatch.setattr(interplay, "run_interplay", recording)
    kicks, modal_sizes = {}, {}
    for pooled in (False, True):
        params = dataclasses.replace(fig9c, max_steps=10_000, pooled_modal_ratio=pooled)
        outcomes.clear()
        state = init_state(params)
        for _ in range(params.max_steps):
            step(state, params)
        kicks[pooled] = sum(out.kicked for out in outcomes)
        modal_sizes[pooled] = {out.mode_size for out in outcomes}
    assert len(outcomes) == 10_000
    assert (kicks[False], modal_sizes[False]) == (0, {1})
    assert kicks[True] == 1168
