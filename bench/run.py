#!/usr/bin/env python3
"""chemlattice benchmark.

    python3 bench/run.py --workload spikes --seed 1 --seconds 20 --trace 0

Runs one workload (spikes, noise_1f, sweep or lattice) in this process,
one iteration after another for about ``--seconds`` seconds, and checks
the artifacts of every iteration against the digests pinned in
bench/pins.json.  With ``--trace 0`` it reports the end-to-end metrics
of BENCHMARK.json, in seconds scaled to a reference machine speed (see
speed.py); with ``--trace 1`` it alternates untraced and traced
iterations and reports the per-layer metrics.  The last line of standard
output is one JSON object; a fuller record with the machine it ran on,
and the spans of a traced run, go to .bench_out/results/.  Exits 2
without a result when the checkout's chemlattice cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PINS = BENCH / "pins.json"

try:
    import workloads  # first: puts the checkout's src on sys.path
    import speed
    import tracing
except ImportError as exc:
    print(f"bench: cannot load chemlattice from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

# An untraced run starts this many set-up probes, spread evenly over the
# run, plus one before the warm-up.
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
# An untraced run spends this share of each iteration's time on
# machine-speed reference chunks right after it.
REF_SHARE = 0.2
# Seed whose pinned digests a run checks first when its own seed has no pins.
REFERENCE_SEED = 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one chemlattice benchmark workload.")
    ap.add_argument("--workload", required=True,
                    help="spikes, noise_1f, sweep or lattice")
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="how long to run timed iterations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    return ap.parse_args(argv)


def machine_info(load_start) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    chemlattice and built the workload's configs."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode} without 'ready'")
    return elapsed


class Runner:
    """Runs and checks iterations, keeping the tally of failures."""

    def __init__(self, work: Path, pins: dict):
        self.work = work
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = tracing.Tracer()
        self.layer_samples = []

    def pinned(self, prepared):
        if prepared.workload == "lattice":
            return self.pins["lattice"]["digests"]
        return self.pins["seeds"].get(str(prepared.seed), {}).get(prepared.workload)

    def iterate(self, prepared, expected, traced: bool = False):
        """One timed iteration; returns (seconds, digests or None)."""
        index = self.attempted
        self.attempted += 1
        out_dir = self.work / f"iter-{index}"
        problems = []
        found = None
        if traced:
            self.tracer.reset()
            self.tracer.iteration = index
        start = time.perf_counter()
        try:
            with self.tracer if traced else contextlib.nullcontext():
                manifests = workloads.run(prepared, str(out_dir))
        except Exception as exc:  # an iteration that raises counts as failed
            problems.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if not problems:
            try:
                found = workloads.digests(manifests)
                got = workloads.verdicts(manifests)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"artifacts unreadable: {exc}")
        if found is not None:
            if expected is not None and found != expected:
                bad = sorted(k for k in set(found) | set(expected)
                             if found.get(k) != expected.get(k))
                problems.append(f"artifact digests differ: {', '.join(bad[:5])}")
            want = self.pins["lattice"]["verdicts"] if prepared.workload == "lattice" else {}
            if got != want:
                problems.append(f"lattice verdicts {got} != pinned {want}")
            if traced:
                self.tracer.counts["harness.artifact_bytes"] += (
                    workloads.artifact_bytes(manifests))
                self.layer_samples.append(tracing.layer_metrics(self.tracer))
        shutil.rmtree(out_dir, ignore_errors=True)
        self.failed += bool(problems)
        self.problems += [f"iteration {index}: {p}" for p in problems]
        return elapsed, (None if problems else found)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = os.getloadavg()
    os.chdir(ROOT)
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads(PINS.read_text())

    # A traced run reports no set-up time, so it starts no probes.
    probing = not args.trace
    setup = [measure_setup(args.workload, args.seed)] if probing else []
    chunks = []
    if probing:
        speed.run_for(0.2, [])  # warm-up, not kept
    prepared = workloads.prepare(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    runner = Runner(work, pins)
    try:
        # Warm-up that checks bit-identity with the pinned digests; a seed
        # without pins warms up on the reference seed and its own timed
        # iterations must then repeat the digests of the first.
        expected = runner.pinned(prepared)
        if expected is None:
            reference = workloads.prepare(args.workload, REFERENCE_SEED)
            runner.iterate(reference, runner.pinned(reference))
        else:
            runner.iterate(prepared, expected)
        # Reference chunks and set-up probes are spread over the run, after
        # each iteration, so their medians sample the machine across the
        # run and not one moment.  Their time counts against --seconds.
        untraced, traced = [], []
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            elapsed, found = runner.iterate(prepared, expected)
            untraced.append(elapsed)
            if expected is None:
                expected = found
            if args.trace:
                traced.append(runner.iterate(prepared, expected, traced=True)[0])
            if probing:
                speed.run_for(REF_SHARE * elapsed, chunks)
                share = (time.perf_counter() - start) / args.seconds
                while len(setup) <= min(SETUP_PROBES, round(SETUP_PROBES * share)):
                    setup.append(measure_setup(args.workload, args.seed))
            step = statistics.median(untraced + traced) * (1 + args.trace + REF_SHARE * probing)
            if time.perf_counter() + step > deadline:
                break
        while probing and len(setup) <= SETUP_PROBES:
            setup.append(measure_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = runner.failed
    # Times reported with --trace 0 are wall times scaled to the reference speed.
    scale = speed.NOMINAL_CHUNK_S / statistics.median(chunks) if chunks else None
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        samples = runner.layer_samples or [tracing.layer_metrics(tracing.Tracer())]
        # median_low keeps each value a measured sample, so counts stay whole.
        values = {name: statistics.median_low(s[name] for s in samples)
                  for name in samples[0]}
        values["trace.run_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        counts = {name: len(samples) for name in names}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {
            "setup_s": statistics.median(setup) * scale,
            "run_s": statistics.median(untraced) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        counts = {"setup_s": len(setup), "run_s": len(untraced), "peak_rss_mb": 1}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "seed_pinned": runner.pinned(prepared) is not None,
        "machine": machine_info(load_start),
        "attempted": runner.attempted,
        "failed": failed,
        "error_rate": failed / runner.attempted,
        "problems": runner.problems[:20],
        "metrics": metrics,
        "sample_counts": counts,
        # Wall seconds, before scaling to the reference speed.
        "samples": {"setup_s": setup, "run_s": untraced, "traced_run_s": traced,
                    "chunk_s": chunks},
        "speed_scale": scale,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(runner.tracer.spans) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"record {(results / stem).relative_to(ROOT)}.json")
    for name in names:
        print(f"  {name:28s} {values[name]:>14.6g} {units[name]:6s} (n={counts[name]})")
    print(f"  {'error_rate':28s} {failed / runner.attempted:>14.6g} {'ratio':6s} "
          f"({failed} failed of {runner.attempted})")
    if scale is not None:
        print(f"  wall medians before scaling: run {statistics.median(untraced):.6g} s, "
              f"setup {statistics.median(setup):.6g} s; speed scale {scale:.4g} "
              f"({len(chunks)} reference chunks)")
    for problem in runner.problems[:5]:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
