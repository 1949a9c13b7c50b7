"""Machine-speed reference for the chemlattice benchmark.

The box the benchmark runs on is shared, and its speed drifts by tens of
percent over seconds to minutes.  ``chunk`` times one fixed unit of work
that does not touch chemlattice but mixes the same kinds of operation
the simulator does: interpreter-level dict, list and int work around
many small-array numpy calls.  run.py runs chunks between its timed
iterations and reports times scaled by ``NOMINAL_CHUNK_S`` over the
run's median chunk time, that is, in seconds of a machine whose chunk
takes ``NOMINAL_CHUNK_S``.  A change to chemlattice moves the iteration
times and not the chunk; a change in the machine's speed moves both.
"""

from __future__ import annotations

import time

import numpy as np

# Median chunk time on the box the benchmark was built on (2 vCPUs of a
# shared x86-64 host, Python 3.11, numpy 2.x), so scaled times read close
# to that box's wall seconds.  A fixed constant: changing it rescales
# every reported time.
NOMINAL_CHUNK_S = 0.0063
SIZE = 512
ROUNDS = 200


def chunk() -> float:
    """Seconds taken by one unit of reference work."""
    rng = np.random.default_rng(12345)
    labels = np.arange(SIZE, dtype=np.int32)
    flags = np.zeros(SIZE, dtype=np.int8)
    sizes = {}
    start = time.perf_counter()
    for i in range(ROUNDS):
        a, b = (int(x) for x in rng.integers(0, SIZE, size=2))
        if a != b:
            labels[labels == labels[b]] = labels[a]
        flags[int(rng.integers(SIZE))] ^= 1
        counts = np.bincount(labels, minlength=SIZE)
        sizes[i % 64] = int(counts.max()) + int(np.count_nonzero(flags))
        ",".join(str(v) for v in sorted(sizes.values())[:8])
    return time.perf_counter() - start


def run_for(seconds: float, into: list) -> None:
    """Run chunks for about ``seconds``, appending each one's time."""
    deadline = time.perf_counter() + seconds
    while True:
        into.append(chunk())
        if time.perf_counter() >= deadline:
            break
