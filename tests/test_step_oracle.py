"""Differential test of `step` against a reference copy of the step path.

The reference below keeps the straightforward formulation of one step:
the modal size and pooled ratio are recomputed with numpy from the
cluster lists on every call, and noise and the kick recount every
cluster's active members with `bincount`.  It shares nothing with
`sim_core` but `StepReport` and `noise_at`, so the size tables and the
incremental updates of the simulator are checked against it step by
step: same state, same generator state, same report.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings, strategies as st

from chemlattice.sim_core import (
    NoiseSchedule,
    SimParams,
    StepReport,
    audit_consistency,
    init_state,
    noise_at,
    step,
)


@dataclass
class RefState:
    t: int
    m0: np.ndarray
    m1: np.ndarray
    c0: list
    c1: list
    cl: list
    rng: np.random.Generator


def ref_init(params):
    n = params.n_molecules
    return RefState(
        t=0,
        m0=np.arange(n, dtype=np.int32),
        m1=np.zeros(n, dtype=np.int8),
        c0=[1] * n,
        c1=[0] * n,
        cl=[[i] for i in range(n)],
        rng=np.random.default_rng(params.seed),
    )


def ref_recount(state):
    state.c1 = np.bincount(state.m0[state.m1 != 0], minlength=len(state.c0)).tolist()


def ref_clustering(state, theta_c):
    cm = len(state.c0)
    if cm < 2:
        return None
    p = int(state.rng.integers(cm))
    q = int(state.rng.integers(cm))
    while q == p:
        q = int(state.rng.integers(cm))
    if p > q:
        p, q = q, p
    c0, c1 = state.c0, state.c1
    if not (c1[p] / c0[p] < theta_c and c1[q] / c0[q] < theta_c):
        return None
    members_q = state.cl[q]
    state.m0[members_q] = p
    state.cl[p].extend(members_q)
    c0[p] += c0[q]
    c1[p] += c1[q]
    del c0[q], c1[q], state.cl[q]
    state.m0[state.m0 > q] -= 1
    return (p, q)


def ref_declustering(state, theta_dec):
    mol = int(state.rng.integers(len(state.m0)))
    k = int(state.m0[mol])
    size = state.c0[k]
    if size < 2 or not state.c1[k] / size > theta_dec:
        return None
    s = 1 + int(state.rng.integers(size - 1))
    head, tail = state.cl[k][:s], state.cl[k][s:]
    state.cl[k] = head
    state.cl.append(tail)
    state.m0[tail] = len(state.c0)
    state.c0[k] = s
    state.c0.append(len(tail))
    state.c1[k] = int(state.m1[head].sum())
    state.c1.append(int(state.m1[tail].sum()))
    return (k, s)


def ref_boundary(state):
    n = len(state.m0)
    if len(state.c0) == n:
        state.m1[:] = 0
        state.c1 = [0] * n
        return "all_inactivated"
    if len(state.c0) == 1:
        state.m1[:] = 1
        state.c1 = [n]
        return "all_activated"
    return "none"


def ref_noise(state, p):
    if p <= 0.0:
        return 0
    flips = state.rng.random(len(state.m0)) < p
    n_flips = int(np.count_nonzero(flips))
    if n_flips:
        state.m1[flips] ^= 1
        ref_recount(state)
    return n_flips


def ref_interplay(state, params):
    sizes = np.asarray(state.c0)
    counts = np.bincount(sizes)
    mode_size = int(np.flatnonzero(counts == counts.max())[0])
    representative = int(np.argmax(sizes == mode_size))
    if params.pooled_modal_ratio:
        pick = sizes == mode_size
        actives = np.asarray(state.c1)[pick]
        r_a = float(actives.sum()) / float(mode_size * int(pick.sum()))
    else:
        r_a = state.c1[representative] / state.c0[representative]
    if not params.theta_a <= r_a <= 1.0 - params.theta_a:
        return 0
    target = 1 if r_a < 0.5 else 0
    selected = state.rng.random(len(state.m0)) < params.p_coh
    changed = int(np.count_nonzero(state.m1[selected] != target))
    if changed:
        state.m1[selected] = target
        ref_recount(state)
    return changed


def ref_step(state, params):
    merged = ref_clustering(state, params.theta_c)
    split = ref_declustering(state, params.theta_dec)
    boundary = ref_boundary(state)
    noise_flips = ref_noise(state, noise_at(params.noise_schedule, state.t))
    coherence_flips = 0
    if params.interplay_enabled:
        coherence_flips = ref_interplay(state, params)
        b2 = ref_boundary(state)
        if boundary == "none":
            boundary = b2
    state.t += 1
    return StepReport(
        t=state.t,
        merged=merged,
        split=split,
        boundary=boundary,
        noise_flips=noise_flips,
        coherence_flips=coherence_flips,
    )


STEPS = 300

oracle_params = st.builds(
    SimParams,
    n_molecules=st.integers(2, 60),
    theta_c=st.floats(0.0, 1.0),
    theta_dec=st.floats(0.0, 1.0),
    noise_schedule=st.builds(
        NoiseSchedule,
        kind=st.just("constant"),
        p0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    ),
    theta_a=st.floats(0.0, 0.5),
    p_coh=st.floats(0.0, 1.0),
    interplay_enabled=st.booleans(),
    pooled_modal_ratio=st.booleans(),
    max_steps=st.just(STEPS),
    seed=st.integers(0, 2**64 - 1),
)


def boundary_run(n_molecules, p0):
    """Two or three molecules sit at a boundary most steps, and with
    theta_a = 0 and p_coh = 1 a kick fires between the two boundary
    calls of every step."""
    return SimParams(
        n_molecules=n_molecules,
        noise_schedule=NoiseSchedule(p0=p0),
        theta_a=0.0,
        p_coh=1.0,
        interplay_enabled=True,
        max_steps=STEPS,
    )


@given(params=oracle_params)
@example(params=boundary_run(2, 0.0))
@example(params=boundary_run(2, 0.5))
@example(params=boundary_run(3, 0.0))
@example(params=boundary_run(3, 0.5))
@settings(max_examples=60, deadline=None)
def test_step_matches_reference(params):
    state, ref = init_state(params), ref_init(params)
    for _ in range(STEPS):
        assert step(state, params) == ref_step(ref, params)
        assert [state.members_of[k] for k in state.order] == ref.cl
        assert state.c0 == ref.c0
        assert state.flags == int.from_bytes(
            np.packbits(ref.m1, bitorder="little").tobytes(), "little")
        assert state.rng.bit_generator.state == ref.rng.bit_generator.state
        assert audit_consistency(state) == []
