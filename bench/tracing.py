"""In-memory tracing of chemlattice's layers, from outside the package.

The tracer replaces module attributes that the package resolves at call
time with timing wrappers, and puts the originals back on exit.  Every
wrapped name gets a call count, a total time and a self time (total
minus the time of wrapped calls made inside it).  Coarse calls also
record a span with its parent span, so a run's call tree can be rebuilt;
per-step calls only add to their totals.  Counts come from the wrapped
functions' return values.

A wrapper's own bookkeeping runs partly outside its timed window, where
it would land in the caller's time, and partly inside it.  Each install
times a wrapped no-op against a bare one to find both costs per call.
Every call's own time loses the inside cost, and every caller's self and
total times lose both costs once per wrapped call beneath them.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from chemlattice import analysis, harness, interplay, lattice, sim_core


def _count_merge(counts, args, result):
    counts["sim_core.merge_attempts"] += 1
    counts["sim_core.merge_accepts"] += result is not None


def _count_split(counts, args, result):
    counts["sim_core.split_attempts"] += 1
    counts["sim_core.split_accepts"] += result is not None


def _count_step(counts, args, result):
    counts["sim_core.boundary_resets"] += result.boundary != "none"


def _count_noise(counts, args, result):
    counts["sim_core.noise_flips"] += result


def _count_interplay(counts, args, result):
    counts["interplay.evals"] += 1
    counts["interplay.kicks"] += result.kicked
    counts["interplay.coherence_flips"] += result.flips


def _count_simulation(counts, args, result):
    counts["harness.cells"] += 1
    counts["harness.steps"] += args[0].max_steps


def _count_psd(counts, args, result):
    counts["analysis.psd_samples"] += len(args[0])


def _count_events(counts, args, result):
    counts["analysis.events"] += len(result)


def _count_elements(counts, args, result):
    counts["lattice.elements"] += len(result)


# (module, attribute, traced name, records spans, counter).  ``step``,
# ``run_simulation`` and ``audit_consistency`` are wrapped where harness
# looks them up; the sim_core phases where ``step`` looks them up.
TARGETS = (
    (harness, "step", "sim_core.step", False, _count_step),
    (sim_core, "attempt_clustering", "sim_core.clustering", False, _count_merge),
    (sim_core, "attempt_declustering", "sim_core.declustering", False, _count_split),
    (sim_core, "apply_boundary_rules", "sim_core.boundary", False, None),
    (sim_core, "apply_noise", "sim_core.noise", False, _count_noise),
    (interplay, "run_interplay", "interplay.run", False, _count_interplay),
    (harness, "run_scenario", "harness.run_scenario", True, None),
    (harness, "run_sweep", "harness.run_sweep", True, None),
    (harness, "run_simulation", "harness.run_simulation", True, _count_simulation),
    (harness, "audit_consistency", "harness.audit", True, None),
    (analysis, "psd", "analysis.psd", True, _count_psd),
    (analysis, "detect_events", "analysis.events", True, _count_events),
    (analysis, "summarize", "analysis.summarize", True, None),
    (lattice, "enumerate_lattice", "lattice.enumerate", True, _count_elements),
    (lattice, "analyze_laws", "lattice.analyze_laws", True, None),
    (lattice, "check_distributive", "lattice.distributive", True, None),
    (lattice, "check_orthomodular", "lattice.orthomodular", True, None),
    (lattice, "hasse_cover", "lattice.hasse", True, None),
    (lattice, "lattice_to_dot", "lattice.dot", True, None),
)


# Calls per batch and batches when timing a wrapped no-op.
CALIBRATION_CALLS = 2000
CALIBRATION_BATCHES = 7


def _noop():
    return None


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``totals``, ``counts``
    and ``spans`` afterwards.  Not thread-safe: one run at a time."""

    def __init__(self):
        self.t0 = perf_counter()
        self.iteration = 0
        self.spans = []
        self.call_cost = (0.0, 0.0)  # see calibrate()
        # One [seconds of wrapped calls made, span id, wrapper cost of all
        # calls beneath] per open call.
        self._stack = []
        self._saved = []
        self.reset()

    def reset(self) -> None:
        """Clear totals and counts (spans are kept)."""
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts = Counter()

    def calibrate(self) -> tuple:
        """Seconds one wrapped call adds outside its timed window (to its
        caller) and inside it (to its own time), as the medians over
        batches of calls to a wrapped and a bare no-op."""
        probe = self._wrap(_noop, "trace.calibrate", False, _count_merge, (0.0, 0.0))
        saved_counts = self.counts
        self.counts = Counter()
        self._stack.append([0.0, None, 0.0])  # a caller, as in a real run
        outer, inner = [], []
        try:
            for _ in range(CALIBRATION_BATCHES):
                self.totals.pop("trace.calibrate", None)
                start = perf_counter()
                for _ in range(CALIBRATION_CALLS):
                    probe()
                wrapped = perf_counter() - start
                start = perf_counter()
                for _ in range(CALIBRATION_CALLS):
                    _noop()
                bare = perf_counter() - start
                start = perf_counter()
                for _ in range(CALIBRATION_CALLS):
                    pass
                loop = perf_counter() - start
                inside = self.totals["trace.calibrate"][1]
                outer.append((wrapped - inside - loop) / CALIBRATION_CALLS)
                inner.append((inside - bare + loop) / CALIBRATION_CALLS)
        finally:
            self._stack.pop()
            self.totals.pop("trace.calibrate", None)
            self.counts = saved_counts
        return (max(0.0, statistics.median(outer)), max(0.0, statistics.median(inner)))

    def __enter__(self) -> "Tracer":
        self.call_cost = self.calibrate()
        for module, attr, name, span, counter in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr,
                    self._wrap(original, name, span, counter, self.call_cost))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, span, counter, cost):
        stack = self._stack
        outer, inner = cost

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = parent[1] if parent else None
            if span:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [0.0, span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start - inner
                if parent is not None:
                    parent[0] += elapsed + inner + outer
                    parent[2] += frame[2] + inner + outer
                tot = self.totals[name]
                tot[0] += 1
                tot[1] += elapsed - frame[2]
                tot[2] += elapsed - frame[0]
                if span:
                    self.spans[span_id] = {
                        "id": span_id,
                        "parent": parent[1] if parent else None,
                        "iteration": self.iteration,
                        "name": name,
                        "start_s": start - self.t0,
                        "end_s": end - self.t0,
                    }
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced iteration, keyed by metric name."""
    tot, cnt = tracer.totals, tracer.counts

    def total(name):
        return tot[name][1] if name in tot else 0.0

    def self_time(name):
        return tot[name][2] if name in tot else 0.0

    def calls(name):
        return tot[name][0] if name in tot else 0

    return {
        "sim_core.clustering_s": total("sim_core.clustering"),
        "sim_core.declustering_s": total("sim_core.declustering"),
        "sim_core.boundary_s": total("sim_core.boundary"),
        "sim_core.noise_s": total("sim_core.noise"),
        "sim_core.step_self_s": self_time("sim_core.step"),
        "sim_core.merge_attempts": cnt["sim_core.merge_attempts"],
        "sim_core.merge_accepts": cnt["sim_core.merge_accepts"],
        "sim_core.merge_accept_ratio": _ratio(cnt["sim_core.merge_accepts"],
                                              cnt["sim_core.merge_attempts"]),
        "sim_core.split_attempts": cnt["sim_core.split_attempts"],
        "sim_core.split_accepts": cnt["sim_core.split_accepts"],
        "sim_core.split_accept_ratio": _ratio(cnt["sim_core.split_accepts"],
                                              cnt["sim_core.split_attempts"]),
        "sim_core.boundary_resets": cnt["sim_core.boundary_resets"],
        "sim_core.noise_flips": cnt["sim_core.noise_flips"],
        "interplay.run_s": total("interplay.run"),
        "interplay.evals": cnt["interplay.evals"],
        "interplay.kicks": cnt["interplay.kicks"],
        "interplay.kick_ratio": _ratio(cnt["interplay.kicks"], cnt["interplay.evals"]),
        "interplay.coherence_flips": cnt["interplay.coherence_flips"],
        "analysis.psd_s": total("analysis.psd"),
        "analysis.psd_samples": cnt["analysis.psd_samples"],
        "analysis.events_s": total("analysis.events"),
        "analysis.events": cnt["analysis.events"],
        "analysis.summarize_s": total("analysis.summarize"),
        "harness.simulate_self_s": self_time("harness.run_simulation"),
        "harness.us_per_step": 1e6 * _ratio(total("harness.run_simulation"),
                                            cnt["harness.steps"]),
        "harness.audit_s": total("harness.audit"),
        "harness.artifact_s": (self_time("harness.run_scenario")
                               + self_time("harness.run_sweep")),
        "harness.artifact_bytes": cnt["harness.artifact_bytes"],
        "harness.cells": cnt["harness.cells"],
        "lattice.enumerate_s": total("lattice.enumerate"),
        "lattice.elements": cnt["lattice.elements"],
        "lattice.distributive_s": total("lattice.distributive"),
        "lattice.orthomodular_s": total("lattice.orthomodular"),
        "lattice.laws_self_s": self_time("lattice.analyze_laws"),
        "lattice.hasse_s": total("lattice.hasse"),
        "lattice.hasse_calls": calls("lattice.hasse"),
        "lattice.dot_s": self_time("lattice.dot"),
    }
