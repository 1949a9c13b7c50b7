"""Differential test of the block draw source against numpy's generator.

`Draws` replays numpy's bounded-integer and uniform-float conversions on
blocks of PCG64's raw output.  Each example below drives it and a plain
`np.random.default_rng(seed)` through the same random sequence of
operations, cloning both sides along the way, and requires equal values
and an equal generator state after every operation.  ``hits`` is checked,
offset subtracted, against the nonzero indices of the reference's
uniforms; its hit-list cache is exercised by repeated probabilities,
other draws in between, refills and clones.  A direct test walks each
branch of ``hits`` and checks the (positions, offset) pair it returns.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chemlattice.sim_core import DRAW_BLOCK, Draws, SimParams, init_state

BOUNDS = st.one_of(
    st.integers(1, 300),
    st.integers(1, 2**32 - 1),
    st.just(2**31 + 1),  # the rejection loop runs about half the time
)
PROBABILITIES = st.sampled_from([0.0, 5e-324, 1e-6, 0.5, 1.0 - 2.0**-53, 1.0])
# (k, side): p is the k-th next uniform of the reference, one ulp below
# it, or one ulp above it, so the threshold is tested where it flips.
EDGES = st.tuples(st.integers(0, 299), st.sampled_from([-1.0, 0.0, 1.0]))
WIDTHS = st.one_of(st.integers(1, 300), st.integers(DRAW_BLOCK - 300, 2 * DRAW_BLOCK + 300))
# Consecutive rows at one p, as a run of noise steps draws them.
ROWS = st.lists(WIDTHS, min_size=1, max_size=4)
PICK = st.integers(0, 7)  # which of the live (replay, reference) pairs acts

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), PICK, BOUNDS),
        st.tuples(st.sampled_from(["below", "hits"]), PICK, ROWS,
                  st.one_of(PROBABILITIES, EDGES)),
        st.tuples(st.just("state"), PICK),
        st.tuples(st.just("clone"), PICK),
    ),
    max_size=40,
)


def copy_generator(gen):
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = gen.bit_generator.state
    return twin


def logical_state(draws):
    # Read through a clone so the replay's own generator is left where
    # the replay put it.
    return draws.clone().bit_generator.state


@given(seed=st.integers(0, 2**64 - 1), predraws=st.integers(0, 3), ops=OPERATIONS)
@example(seed=0, predraws=1, ops=[("state", 0)])
@example(seed=1, predraws=1, ops=[("clone", 0), ("state", 1), ("integers", 1, 7)])
@example(seed=2, predraws=0, ops=[("below", 0, [DRAW_BLOCK - 1], 0.5), ("integers", 0, 5),
                                  ("integers", 0, 5), ("below", 0, [2], 0.5)])
@example(seed=3, predraws=0, ops=[("below", 0, [300], 5e-324), ("below", 0, [300], 1e-6)])
@example(seed=4, predraws=0, ops=[("below", 0, [8], (3, 1.0)), ("below", 0, [8], (3, 0.0))])
# The hit list built at 0.5 must not serve 1e-6, a refilled block or a
# clone's diverging position, and its block indices must be shifted.
@example(seed=5, predraws=0, ops=[
    ("hits", 0, [200, 200], 0.5), ("below", 0, [200], 1e-6), ("hits", 0, [200], 0.5),
    ("clone", 0), ("hits", 1, [300], 0.5), ("hits", 0, [200], 0.5), ("hits", 0, [200], 1e-6),
    ("hits", 0, [DRAW_BLOCK, 200], 0.5), ("hits", 1, [2 * DRAW_BLOCK + 7, 200], 0.5),
    ("hits", 0, [200], 0.5)])
@settings(max_examples=300, deadline=None)
def test_draws_match_numpy(seed, predraws, ops):
    gen = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    for _ in range(predraws):  # an odd count leaves a cached half-word
        assert int(gen.integers(7)) == int(ref.integers(7))
    pairs = [(Draws(gen), ref)]
    for op, pick, *args in ops:
        i = pick % len(pairs)
        draws, ref = pairs[i]
        if op == "integers":
            (m,) = args
            assert draws.integers(m) == int(ref.integers(m))
        elif op in ("below", "hits"):
            widths, p = args
            if isinstance(p, tuple):
                k, side = p
                u = copy_generator(ref).random(k + 1)[k]
                p = float(np.nextafter(u, u + side) if side else u)
                widths = [max(widths[0], k + 1), *widths[1:]]
            for n in widths:
                expected = ref.random(n) < p
                if op == "below":
                    got = draws.below(n, p)
                    assert got.dtype == bool
                    assert np.array_equal(got, expected)
                else:
                    positions, offset = draws.hits(n, p)
                    got = [i - offset for i in positions]
                    assert got == np.flatnonzero(expected).tolist()
        elif op == "state":
            assert draws.bit_generator.state == ref.bit_generator.state
        else:
            pairs.append((draws.clone(), copy_generator(ref)))
        assert logical_state(draws) == ref.bit_generator.state
    for draws, ref in pairs:
        assert draws.bit_generator.state == ref.bit_generator.state


def test_draws_reject_other_generators_and_bounds():
    with pytest.raises(TypeError, match="PCG64"):
        Draws(np.random.Generator(np.random.MT19937(0)))
    draws = Draws(np.random.default_rng(0))
    for m in (0, -1, 2**32):
        with pytest.raises(ValueError, match="bound"):
            draws.integers(m)
    assert draws.integers(1) == 0
    assert draws.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_state_wraps_its_generator():
    state = init_state(SimParams(seed=5))
    assert isinstance(state.rng, Draws)
    assert state.rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_hits_returns_positions_and_offset_from_every_branch():
    draws = Draws(np.random.default_rng(9))
    ref = np.random.default_rng(9)

    def row(n, p):
        positions, offset = draws.hits(n, p)
        assert [i - offset for i in positions] == np.flatnonzero(ref.random(n) < p).tolist()
        return positions, offset

    assert row(5, 1.0) == (range(5), 0)  # p >= 1: every index, no words compared
    assert row(5, 0.0) == ((), 0)  # p <= 0: none
    positions, offset = row(300, 0.25)  # first call at this p: its own row
    assert offset == 0 and isinstance(positions, list)
    assert row(300, 0.5)[1] == 0  # a new p is again a first call
    # The second call in a row at one p keeps the block's hit list and
    # serves block indices with the row's block offset.
    positions, offset = row(300, 0.5)
    assert offset == 610 and positions[0] >= offset
    assert draws._hits is not None
    kept = draws._hits
    positions, offset = row(300, 0.5)  # the cached list, sliced
    assert offset == 910 and draws._hits is kept
    # A refill drops the list, so the first row of the new block is a
    # first call again; the next one keeps the new block's list.
    assert row(DRAW_BLOCK - 1000, 0.5)[1] == 0
    assert draws._hits is None
    assert row(300, 0.5)[1] == DRAW_BLOCK - 1000
    assert draws._hits not in (None, kept)
    # A row longer than a block refills with a block of exactly its length.
    positions, offset = row(DRAW_BLOCK + 5, 0.5)
    assert offset == 0 and draws._block.size == DRAW_BLOCK + 5
    assert draws.bit_generator.state == ref.bit_generator.state
