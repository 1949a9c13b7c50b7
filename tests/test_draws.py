"""Differential test of the block draw source against numpy's generator.

`Draws` replays numpy's bounded-integer and uniform-float conversions on
blocks of PCG64's raw output.  Each example below drives it and a plain
`np.random.default_rng(seed)` through the same random sequence of
operations, cloning both sides along the way, and requires equal values
and an equal generator state after every operation.  ``row`` is checked
bit for bit against the reference's ``random(n) < p``, read into an int
one index at a time; its packed-block cache is exercised by repeated
probabilities, other draws in between, refills and clones.  A direct
test walks each branch of ``row`` and checks which probabilities keep a
packed block.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chemlattice.sim_core import DRAW_BLOCK, Draws, SimParams, init_state
from test_sim_core import bits

BOUNDS = st.one_of(
    st.integers(1, 300),
    st.integers(1, 2**32 - 1),
    st.just(2**31 + 1),  # the rejection loop runs about half the time
)
PROBABILITIES = st.sampled_from([0.0, 5e-324, 1e-6, 0.25, 0.5, 1.0 - 2.0**-53, 1.0])
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
        st.tuples(st.just("row"), PICK, ROWS, st.one_of(PROBABILITIES, EDGES)),
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
@example(seed=2, predraws=0, ops=[("row", 0, [DRAW_BLOCK - 1], 0.5), ("integers", 0, 5),
                                  ("integers", 0, 5), ("row", 0, [2], 0.5)])
@example(seed=3, predraws=0, ops=[("row", 0, [300], 5e-324), ("row", 0, [300], 1e-6)])
@example(seed=4, predraws=0, ops=[("row", 0, [8], (3, 1.0)), ("row", 0, [8], (3, 0.0))])
# The block packed at 0.5 must not serve 1e-6 or 0.25, a refilled block
# or a clone's diverging position, and rows cut from it start at any bit
# of a byte.  Every probability of the list is asked, a row crosses a
# refill and one is longer than two blocks.
@example(seed=5, predraws=0, ops=[
    ("row", 0, [200, 200], 0.5), ("row", 0, [200], 1e-6), ("row", 0, [200], 0.5),
    ("integers", 0, 3), ("row", 0, [200, 201], 0.25), ("clone", 0), ("row", 1, [300], 0.5),
    ("row", 0, [200], 0.5), ("row", 0, [200, 200], 1e-6), ("row", 0, [5], 0.0),
    ("row", 0, [DRAW_BLOCK, 200], 0.5), ("row", 1, [2 * DRAW_BLOCK + 7, 200], 0.5),
    ("row", 0, [200], 1.0), ("row", 0, [200, 200], 0.25), ("row", 1, [200], 0.25)])
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
        elif op == "row":
            widths, p = args
            if isinstance(p, tuple):
                k, side = p
                u = copy_generator(ref).random(k + 1)[k]
                p = float(np.nextafter(u, u + side) if side else u)
                widths = [max(widths[0], k + 1), *widths[1:]]
            for n in widths:
                got = draws.row(n, p)
                assert type(got) is int
                assert got == bits(np.flatnonzero(ref.random(n) < p))
                assert logical_state(draws) == ref.bit_generator.state
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


def test_row_returns_a_mask_from_every_branch():
    draws = Draws(np.random.default_rng(9))
    ref = np.random.default_rng(9)

    def row(n, p):
        got = draws.row(n, p)
        assert got == bits(np.flatnonzero(ref.random(n) < p))
        assert draws.bit_generator.state == ref.bit_generator.state
        return got

    assert row(5, 1.0) == 0b11111  # p >= 1: every bit, no words compared
    assert row(5, 0.0) == 0  # p <= 0: none
    assert row(300, 0.05) and draws._rows == {0.05: None}  # first row at p: its own words
    # The second row at p in a block packs the whole block; later rows
    # are cut from the same bytes.
    row(300, 0.05)
    packed = draws._rows[0.05]
    assert isinstance(packed, bytes) and len(packed) == DRAW_BLOCK // 8
    # A kick's rows at p_coh get their own entry and leave the noise's
    # packed block where it is.
    row(200, 0.95)
    row(300, 0.05)
    row(200, 0.95)
    assert draws._rows[0.05] is packed and isinstance(draws._rows[0.95], bytes)
    # A ramp asks a new p at every row: each compares only its own words.
    for t in range(10):
        row(200, 1e-3 + t * 1e-4)
    assert [p for p, kept in draws._rows.items() if kept is not None] == [0.05, 0.95]
    # A refill starts a new dict; a clone keeps the one it shared.
    twin = draws.clone()
    kept = draws._rows
    row(DRAW_BLOCK - 200, 0.05)
    assert draws._rows == {0.05: None} and twin._rows is kept
    # A row longer than a block refills with a block of exactly its length.
    row(2 * DRAW_BLOCK + 7, 0.5)
    assert draws._block.size == 2 * DRAW_BLOCK + 7
