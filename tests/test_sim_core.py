"""Unit and property tests for the cluster dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemlattice.errors import ConfigError
from chemlattice.sim_core import (
    NoiseSchedule,
    SimParams,
    SimState,
    StepReport,
    apply_boundary_rules,
    apply_noise,
    attempt_clustering,
    attempt_declustering,
    audit_consistency,
    init_state,
    noise_at,
    step,
)


class ScriptedRNG:
    """Stand-in generator whose integer draws follow a fixed script."""

    def __init__(self, script):
        self.script = list(script)

    def integers(self, high):
        v = self.script.pop(0)
        assert 0 <= v < high, f"scripted draw {v} outside 0..{high - 1}"
        return v

    def clone(self):
        return ScriptedRNG(self.script)


def bits(indices):
    """The mask with bit i set for every i in indices."""
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def make_state(clusters, seed=0):
    """Build a consistent SimState from (size, n_active) pairs; the first
    n_active members of each cluster are active."""
    members, flags, n = [], 0, 0
    for size, active in clusters:
        assert 0 <= active <= size
        members.append(list(range(n, n + size)))
        flags |= ((1 << active) - 1) << n
        n += size
    return SimState(members, flags, np.random.default_rng(seed))


# ---------------------------------------------------------------- init


def test_init_200_inactive_singletons():
    state = init_state(SimParams(n_molecules=200))
    assert state.c_max == 200
    assert state.n_active == 0
    assert state.c0 == [1] * 200
    assert state.c1 == [0] * 200
    assert audit_consistency(state) == []


def test_init_smallest_system():
    state = init_state(SimParams(n_molecules=2))
    assert state.c_max == 2
    assert state.n_active == 0


def test_init_same_seed_is_bit_identical():
    a = init_state(SimParams(seed=99))
    b = init_state(SimParams(seed=99))
    assert np.array_equal(a.m0, b.m0) and np.array_equal(a.m1, b.m1)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_params_validation():
    with pytest.raises(ConfigError):
        SimParams(n_molecules=1)
    with pytest.raises(ConfigError):
        SimParams(theta_c=1.5)
    with pytest.raises(ConfigError):
        SimParams(theta_a=0.6)
    with pytest.raises(ConfigError):
        SimParams(max_steps=0)
    with pytest.raises(ConfigError):
        NoiseSchedule(kind="bogus")
    with pytest.raises(ConfigError):
        NoiseSchedule(p0=-0.1)


@pytest.mark.parametrize("field", ["rate", "onset_step"])
def test_constant_schedule_rejects_ramp_fields(field):
    # kind defaults to "constant", so a ramp block without its kind would
    # otherwise run at p0 and drop the field from summary.json.
    with pytest.raises(ConfigError, match=field):
        NoiseSchedule(p0=0.0, **{field: 100})
    assert NoiseSchedule(kind="constant", p0=0.05, rate=0.0, onset_step=0).to_dict() == {
        "kind": "constant", "p0": 0.05}


# ------------------------------------------------------------- merging


def test_merge_two_inactive_singletons():
    state = make_state([(1, 0), (1, 0)])
    state.rng = ScriptedRNG([0, 1])
    assert attempt_clustering(state, 0.5) == (0, 1)
    assert state.c0 == [2] and state.c1 == [0]
    assert state.cl == [[0, 1]]
    assert list(state.m0) == [0, 0]


def test_merge_counts_add():
    state = make_state([(3, 1), (2, 0)])
    state.rng = ScriptedRNG([0, 1])
    assert attempt_clustering(state, 0.5) == (0, 1)
    assert state.c0 == [5] and state.c1 == [1]
    assert audit_consistency(state) == []


def test_merge_blocked_at_exact_threshold():
    # active fraction exactly theta_c must not merge (strict <)
    state = make_state([(2, 1), (2, 0)])
    state.rng = ScriptedRNG([0, 1])
    before = (list(state.c0), list(state.c1), [list(m) for m in state.cl])
    assert attempt_clustering(state, 0.5) is None
    assert (list(state.c0), list(state.c1), [list(m) for m in state.cl]) == before


def test_merge_redraws_colliding_pair_and_orders_it():
    state = make_state([(1, 0), (1, 0)])
    state.rng = ScriptedRNG([1, 1, 0])
    assert attempt_clustering(state, 0.5) == (0, 1)


def test_merge_compacts_higher_indices():
    state = make_state([(1, 0), (1, 0), (2, 2)])
    state.rng = ScriptedRNG([0, 1])
    attempt_clustering(state, 0.5)
    # old cluster 2 slid down to index 1
    assert state.c0 == [2, 2] and state.c1 == [0, 2]
    assert list(state.m0) == [0, 0, 1, 1]
    assert audit_consistency(state) == []


def test_merge_noop_with_single_cluster_consumes_no_draws():
    state = make_state([(4, 0)])
    state.rng = ScriptedRNG([])  # any draw would pop and fail
    assert attempt_clustering(state, 0.5) is None


# ------------------------------------------------------------ splitting


def test_split_all_active_four_at_one():
    state = make_state([(4, 4)])
    state.rng = ScriptedRNG([0, 0])  # molecule 0, s = 1 + 0
    assert attempt_declustering(state, 0.5) == (0, 1)
    assert state.c0 == [1, 3] and state.c1 == [1, 3]
    assert state.cl == [[0], [1, 2, 3]]
    assert audit_consistency(state) == []


def test_split_recounts_mixed_activity_parts():
    state = make_state([(4, 3)])  # members 0,1,2 active, 3 inactive
    state.rng = ScriptedRNG([0, 1])  # s = 2
    assert attempt_declustering(state, 0.5) == (0, 2)
    assert state.c0 == [2, 2]
    assert state.c1 == [2, 1]


def test_split_blocked_at_exact_threshold():
    state = make_state([(2, 1)])
    state.rng = ScriptedRNG([0])
    assert attempt_declustering(state, 0.5) is None
    assert state.c0 == [2]


def test_split_monomer_selected_is_noop():
    state = make_state([(1, 1), (3, 0)])
    state.rng = ScriptedRNG([0])  # molecule 0 lives in the singleton
    assert attempt_declustering(state, 0.5) is None
    assert state.c_max == 2


def test_max_size_follows_splits_and_merges():
    state = make_state([(4, 4), (3, 3), (1, 0)])
    assert state.max_size == 4
    state.rng = ScriptedRNG([0, 1])  # the size-4 cluster splits 2 + 2
    assert attempt_declustering(state, 0.5) == (0, 2)
    assert (state.c0, state.max_size) == ([2, 3, 1, 2], 3)
    state.rng = ScriptedRNG([4, 0])  # the size-3 cluster splits 1 + 2
    assert attempt_declustering(state, 0.5) == (1, 1)
    assert (state.c0, state.max_size) == ([2, 1, 1, 2, 2], 2)
    state.rng = ScriptedRNG([0, 3])
    assert attempt_clustering(state, 1.1) == (0, 3)
    assert (state.c0, state.max_size) == ([4, 1, 1, 2], 4)
    assert audit_consistency(state) == []


def test_split_selection_is_size_biased():
    """A size-9 cluster against a singleton is the split candidate with
    probability 0.9 (uniform molecule draw)."""
    base = make_state([(9, 9), (1, 1)], seed=20240917)
    trials = 100_000
    hits = 0
    for _ in range(trials):
        state = base.clone()
        state.rng = base.rng  # one stream across trials
        if attempt_declustering(state, 0.5) is not None:
            hits += 1
    freq = hits / trials
    assert abs(freq - 0.9) < 0.005, freq


# ------------------------------------------------------------- boundary


def _mixed_flags(state, seed):
    # Flip about 40% of the molecules through flip, so the state stays consistent.
    picks = np.random.default_rng(seed).random(state.n_molecules) < 0.4
    state.flip(bits(picks.nonzero()[0]))
    assert 0 < state.n_active < state.n_molecules
    return state


def test_boundary_full_fragmentation_inactivates():
    state = make_state([(1, 1)] * 200)
    assert apply_boundary_rules(state) == "all_inactivated"
    assert state.n_active == 0
    assert state.c1 == [0] * 200
    for seed in range(3):
        state = _mixed_flags(make_state([(1, 0)] * 200), seed)
        assert apply_boundary_rules(state) == "all_inactivated"
        assert state.act == [0] * 201
        assert state.n_active == np.count_nonzero(state.m1) == 0
        assert state.c1 == [0] * 200
        assert audit_consistency(state) == []


def test_boundary_full_aggregation_activates():
    state = make_state([(200, 37)])
    assert apply_boundary_rules(state) == "all_activated"
    assert state.n_active == 200
    assert state.c1 == [200]
    for seed in range(3):
        state = _mixed_flags(make_state([(200, 0)]), seed)
        assert apply_boundary_rules(state) == "all_activated"
        assert state.act == [0] * 200 + [200]
        assert state.n_active == np.count_nonzero(state.m1) == 200
        assert state.c1 == [200]
        assert audit_consistency(state) == []


def test_boundary_inert_in_between():
    state = make_state([(100, 10), (57, 3), (43, 0)])
    snapshot = state.m1.copy()
    assert apply_boundary_rules(state) == "none"
    assert np.array_equal(state.m1, snapshot)


# ---------------------------------------------------------------- noise


def test_noise_zero_probability_changes_nothing():
    state = make_state([(5, 2), (3, 0)], seed=4)
    before = state.rng.bit_generator.state
    assert apply_noise(state, 0.0) == 0
    assert state.rng.bit_generator.state == before  # no draws consumed
    assert state.c1 == [2, 0]


def test_noise_certain_flip_inverts_everyone():
    state = make_state([(3, 2), (2, 0)], seed=4)
    old = state.m1.copy()
    assert apply_noise(state, 1.0) == 5
    assert np.array_equal(state.m1, 1 - old)
    assert audit_consistency(state) == []


def test_noise_mean_flip_count_matches_binomial():
    base = make_state([(1, 0)] * 200, seed=55)
    reps = 10_000
    total = 0
    for _ in range(reps):
        state = base.clone()
        state.rng = base.rng  # one stream across repetitions
        total += apply_noise(state, 0.05)
    mean = total / reps
    assert abs(mean - 10.0) < 0.2, mean


def test_noise_at_schedules():
    assert noise_at(NoiseSchedule(kind="constant", p0=0.05), 123456) == 0.05
    ramp = NoiseSchedule(kind="ramp", p0=0.0, rate=1e-6, onset_step=1000)
    assert noise_at(ramp, 999) == 0.0
    assert noise_at(NoiseSchedule(kind="ramp", p0=0.0, rate=1e-6), 5000) == pytest.approx(0.005)
    hot = NoiseSchedule(kind="ramp", p0=0.9, rate=1e-3)
    assert noise_at(hot, 200) == 1.0  # clamped


# ----------------------------------------------------------------- step


def test_first_step_from_init_merges():
    params = SimParams(n_molecules=200, seed=3)
    state = init_state(params)
    report = step(state, params)
    assert report.merged is not None
    assert report.split is None
    assert state.c_max == 199


def test_noise_free_aggregation_runs_straight_to_one():
    # every step merges, so full aggregation takes exactly N-1 steps
    params = SimParams(n_molecules=200, seed=7)
    state = init_state(params)
    for i in range(199):
        assert state.n_active == 0
        report = step(state, params)
        assert report.split is None
    assert state.c_max == 1
    assert report.boundary == "all_activated"
    assert state.n_active == 200


def test_step_streams_replay_exactly():
    params = SimParams(
        n_molecules=200,
        noise_schedule=NoiseSchedule(kind="constant", p0=0.05),
        max_steps=10_000,
        seed=42,
    )
    def trace():
        state = init_state(params)
        return [step(state, params) for _ in range(10_000)], state
    reports_a, state_a = trace()
    reports_b, state_b = trace()
    assert reports_a == reports_b
    assert np.array_equal(state_a.m0, state_b.m0)
    assert np.array_equal(state_a.m1, state_b.m1)


def test_step_report_is_a_whole_step_report():
    # step builds its report with tuple.__new__, which checks no arity.
    params = SimParams(noise_schedule=NoiseSchedule(kind="constant", p0=0.05),
                       interplay_enabled=True, pooled_modal_ratio=True, seed=3)
    state = init_state(params)
    for _ in range(50):
        report = step(state, params)
        assert type(report) is StepReport
        assert len(report) == len(StepReport._fields)
        assert report._asdict() == StepReport(
            t=report.t, merged=report.merged, split=report.split,
            boundary=report.boundary, noise_flips=report.noise_flips,
            coherence_flips=report.coherence_flips)._asdict()
    assert report.t == state.t == 50


def test_step_budget_is_enforced():
    params = SimParams(n_molecules=4, max_steps=5, seed=0)
    state = init_state(params)
    for _ in range(5):
        step(state, params)
    with pytest.raises(ValueError, match="budget"):
        step(state, params)


# ---------------------------------------------------------------- audit


def test_audit_fresh_state_clean():
    assert audit_consistency(init_state(SimParams())) == []


def test_audit_names_corrupted_cluster():
    # After the merge, position 1 holds id 2: the audit names positions.
    state = make_state([(1, 0), (1, 0), (3, 1), (2, 0)])
    state.rng = ScriptedRNG([0, 1])
    assert attempt_clustering(state, 0.5) == (0, 1)
    assert state.order == [0, 2, 5]
    assert (state.mask_of[0], state.mask_of[2]) == (0b11, 0b11100)
    state.mask_of[state.order[1]] ^= 1 << 5  # molecule 5 belongs to position 2
    assert audit_consistency(state) == ["cluster 1: member mask != mask of its 3 members"]
    state.mask_of[2] ^= 1 << 5
    assert audit_consistency(state) == []
    state.cluster_of[3] = 0
    assert audit_consistency(state) == ["cluster 1: member 3 has cluster id 0, not 2"]
    state.cluster_of[3] = 2
    members = state.members_of[2]
    members.append(members.pop(0))  # the same members, with id 2 no longer first
    assert audit_consistency(state) == ["cluster 1: id 2 is not its first member"]
    members.insert(0, members.pop())
    assert audit_consistency(state) == []
    state.order[2] = 2
    assert audit_consistency(state) == ["live cluster ids are not 3 distinct molecules of 0..6"]


def test_audit_names_stale_size_tables():
    state = make_state([(3, 1), (2, 0), (2, 2)])
    assert (state.hist[:4], state.act[:4]) == ([0, 0, 2, 1], [0, 0, 2, 1])
    assert state.size_mask[:4] == [0, 0, 0b1111000, 0b111]
    state.size_mask[2] ^= 1 << 3  # molecule 3 left out of the size-2 mask
    assert audit_consistency(state) == [
        "size table size_mask[2] = 0x70 != rebuild from the membership lists 0x78"]
    state.size_mask[2] ^= 1 << 3
    state.hist[3] = 0
    assert audit_consistency(state) == [
        "size table hist[3] = 0 != rebuild from the membership lists 1"]
    state.hist[3] = 1
    state.max_size = 2
    assert audit_consistency(state) == ["max_size 2 != largest cluster size 3"]
    state.max_size = 3
    state.flags |= 1 << 7  # one bit above the seven molecules
    assert audit_consistency(state) == ["activity flags set bits outside molecules 0..6"]


def test_audit_clean_after_long_mixed_run():
    params = SimParams(
        n_molecules=200,
        noise_schedule=NoiseSchedule(kind="constant", p0=0.05),
        max_steps=100_000,
        seed=13,
    )
    state = init_state(params)
    for _ in range(100_000):
        step(state, params)
    assert audit_consistency(state) == []


def test_flip_keeps_counts_exact_and_undoes_itself():
    state = make_state([(4, 2), (1, 1), (3, 0), (1, 0), (4, 4)])
    before = state.clone()
    idx = [0, 3, 4, 6, 7, 8, 9, 12]  # both flags, sizes 1, 3 and 4
    assert state.flip(bits(idx)) == len(idx)
    assert state.n_active == np.count_nonzero(state.m1) == 7
    assert state.m1[idx].tolist() == [0, 1, 0, 1, 1, 1, 0, 0]
    c1 = np.bincount(state.m0[state.m1 != 0], minlength=state.c_max).tolist()
    act = [sum(a for s, a in zip(state.c0, c1) if s == size)
           for size in range(state.n_molecules + 1)]
    assert (state.c1, state.act) == (c1, act)
    assert audit_consistency(state) == []
    for part, total in ((idx[:3], 8), (idx[:3], 7), (idx, 7)):
        assert state.flip(bits(part)) == len(part)
        assert state.n_active == np.count_nonzero(state.m1) == total
    assert np.array_equal(state.m1, before.m1)
    assert (state.flags, state.c1, state.act) == (before.flags, before.c1, before.act)


def test_flip_toggles_exactly_the_bits_of_its_mask():
    # A noise row from Draws.row is one mask; flipping it equals flipping
    # its molecules one at a time.
    state = make_state([(4, 2), (1, 1), (3, 0), (1, 0), (4, 4)], seed=8)
    n = state.n_molecules
    expected = state.clone()
    row = state.rng.row(n, 0.5)
    assert 0 < row < 1 << n
    assert state.flip(row) == row.bit_count()
    for i in range(n):
        if row >> i & 1:
            assert expected.flip(1 << i) == 1
    assert (state.flags, state.c1, state.act, state.n_active) == (
        expected.flags, expected.c1, expected.act, expected.n_active)
    assert state.flip(0) == 0 and state.flags == expected.flags
    assert state.flip((1 << n) - 1) == n  # the p >= 1 row inverts everyone
    assert state.m1.tolist() == (1 - expected.m1).tolist()
    assert audit_consistency(state) == []


# ----------------------------------------------------------- properties


@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_settle_matches_flipping_the_complement(sizes, data):
    state = make_state([(size, 0) for size in sizes])
    n = state.n_molecules
    mixed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    state.flip(bits(i for i in range(n) if mixed[i]))
    value = data.draw(st.sampled_from([0, 1]))
    holders = [i for i in range(n) if state.m1[i] != value]
    keep = data.draw(st.lists(st.sampled_from(holders), unique=True)) if holders else []
    kept = set(keep)
    expected = state.clone()
    flips = expected.flip(bits(i for i in holders if i not in kept))

    assert state.settle(value, bits(keep)) == flips
    assert state.flags == expected.flags
    assert (state.c1, state.act) == (expected.c1, expected.act)
    assert state.n_active == expected.n_active == int(state.m1.sum())
    assert audit_consistency(state) == []


cluster_specs = st.lists(
    st.tuples(st.integers(1, 5), st.integers(0, 5)).map(
        lambda p: (p[0], min(p[0], p[1]))
    ),
    min_size=2,
    max_size=6,
)


@given(specs=cluster_specs, theta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_merge_respects_threshold(specs, theta, seed):
    state = make_state(specs, seed=seed)
    ratios = [a / s for s, a in specs]
    before = (list(state.c0), list(state.c1))
    result = attempt_clustering(state, theta)
    if result is None:
        assert (list(state.c0), list(state.c1)) == before
    else:
        p, q = result
        assert ratios[p] < theta and ratios[q] < theta
        assert audit_consistency(state) == []


@given(specs=cluster_specs, theta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_split_respects_threshold(specs, theta, seed):
    state = make_state(specs, seed=seed)
    ratios = [a / s for s, a in specs]
    result = attempt_declustering(state, theta)
    if result is not None:
        k, s = result
        assert ratios[k] > theta
        assert 1 <= s <= specs[k][0] - 1
        assert audit_consistency(state) == []


sim_params = st.builds(
    SimParams,
    n_molecules=st.integers(2, 40),
    theta_c=st.floats(0.0, 1.0),
    theta_dec=st.floats(0.0, 1.0),
    noise_schedule=st.builds(
        NoiseSchedule,
        kind=st.just("constant"),
        p0=st.floats(0.0, 1.0),
    ),
    theta_a=st.floats(0.0, 0.5),
    p_coh=st.floats(0.0, 1.0),
    interplay_enabled=st.booleans(),
    pooled_modal_ratio=st.booleans(),
    max_steps=st.just(40),
    seed=st.integers(0, 2**32 - 1),
)


@given(params=sim_params)
@settings(max_examples=80, deadline=None)
def test_every_step_preserves_invariants(params):
    state = init_state(params)
    for _ in range(params.max_steps):
        c_before = state.c_max
        report = step(state, params)
        assert audit_consistency(state) == []
        assert sum(state.c0) == params.n_molecules
        delta = (report.split is not None) - (report.merged is not None)
        assert state.c_max - c_before == delta


class PositionalModel:
    """The state the plain positional way: cluster indices are dense, a
    merge renumbers every molecule above q, and every count is recounted
    from the flags."""

    def __init__(self, clusters):
        self.cl, self.m1 = [], []
        for size, active in clusters:
            self.cl.append(list(range(len(self.m1), len(self.m1) + size)))
            self.m1.extend([1] * active + [0] * (size - active))
        self.recount()

    def recount(self):
        self.c0 = [len(members) for members in self.cl]
        self.c1 = [sum(self.m1[i] for i in members) for members in self.cl]
        self.m0 = [0] * len(self.m1)
        for k, members in enumerate(self.cl):
            for i in members:
                self.m0[i] = k

    def merge(self, p, q):
        self.cl[p].extend(self.cl.pop(q))
        self.recount()

    def split(self, k, s):
        self.cl.append(self.cl[k][s:])
        del self.cl[k][s:]
        self.recount()

    def flip(self, idx):
        for i in idx:
            self.m1[i] ^= 1
        self.recount()

    def settle(self, value, keep):
        self.m1 = [value] * len(self.m1)
        for i in keep:
            self.m1[i] = 1 - value
        self.recount()

    def assert_matches(self, state):
        assert (state.c0, state.c1, state.cl) == (self.c0, self.c1, self.cl)
        assert state.m0.tolist() == self.m0 and state.m1.tolist() == self.m1
        n = len(self.m1)
        assert state.flags == bits(i for i in range(n) if self.m1[i])
        assert [state.mask_of[k] for k in state.order] == [bits(m) for m in self.cl]
        assert state.hist == [self.c0.count(size) for size in range(n + 1)]
        assert state.size_mask == [bits(i for m in self.cl if len(m) == size for i in m)
                                   for size in range(n + 1)]
        assert state.act == [sum(a for s, a in zip(self.c0, self.c1) if s == size)
                             for size in range(n + 1)]
        assert (state.max_size, state.n_active) == (max(self.c0), sum(self.m1))
        # A cluster's id is its first member, and a copy keeps the ids.
        assert state.order == [members[0] for members in self.cl]
        assert state.clone().order == state.order
        assert audit_consistency(state) == []


@given(specs=cluster_specs, data=st.data())
@settings(max_examples=150, deadline=None)
def test_stable_ids_match_the_positional_model(specs, data):
    """Random merges, splits, flips and settles through scripted draws:
    after each one, the positional views, the member and size masks and
    the counts read through them equal a model that compacts indices and
    recounts from a flag list."""
    state, model = make_state(specs), PositionalModel(specs)
    n = len(model.m1)
    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(["merge", "split", "flip", "settle"]))
        if op == "merge" and len(model.c0) > 1:
            cm = len(model.c0)
            p, q = data.draw(st.lists(st.integers(0, cm - 1), min_size=2, max_size=2,
                                      unique=True))
            theta = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
            state.rng = ScriptedRNG([p, q])
            p, q = min(p, q), max(p, q)
            gate = all(model.c1[k] / model.c0[k] < theta for k in (p, q))
            assert attempt_clustering(state, theta) == ((p, q) if gate else None)
            if gate:
                model.merge(p, q)
        elif op == "split":
            mol = data.draw(st.integers(0, n - 1))
            k = model.m0[mol]
            cut = data.draw(st.integers(0, max(0, model.c0[k] - 2)))
            theta = data.draw(st.sampled_from([-1.0, 0.0, 0.5]))
            state.rng = ScriptedRNG([mol, cut])
            gate = model.c0[k] > 1 and model.c1[k] / model.c0[k] > theta
            assert attempt_declustering(state, theta) == ((k, cut + 1) if gate else None)
            if gate:
                model.split(k, cut + 1)
        elif op == "flip":
            idx = data.draw(st.lists(st.integers(0, n - 1), unique=True))
            assert state.flip(bits(idx)) == len(idx)
            model.flip(idx)
        elif op == "settle":
            value = data.draw(st.sampled_from([0, 1]))
            holders = [i for i in range(n) if model.m1[i] != value]
            keep = data.draw(st.lists(st.sampled_from(holders), unique=True)) if holders else []
            changed = n - len(keep) - model.m1.count(value)
            assert state.settle(value, bits(keep)) == changed
            model.settle(value, keep)
        model.assert_matches(state)


def test_state_fields_are_python_lists_and_ints():
    params = SimParams(noise_schedule=NoiseSchedule(p0=0.05), interplay_enabled=True,
                       pooled_modal_ratio=True, max_steps=500, seed=3)
    state = init_state(params)
    for _ in range(500):
        step(state, params)
    kinds = {name: type(getattr(state, name)) for name in SimState.__slots__ if name != "rng"}
    assert set(kinds.values()) == {int, list}, kinds
    # Activity is one int: no flag list, per-id active count or act table.
    assert kinds["flags"] is int and 0 <= state.flags < 1 << params.n_molecules
    assert not {"active_of", "act"} & set(SimState.__slots__)
    # Sizes by id are member-list lengths, ids are first members and the
    # active count is read from the flags: none of these is stored.
    assert not {"size_of", "free", "n_active"} & set(SimState.__slots__)
    values = state.cluster_of + state.c0 + state.hist + state.size_mask + state.mask_of
    assert all(type(v) is int for v in values)
