#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload inside one process.

    python3 scripts/inprocess_pairs.py PARENT_DIR CHANGE_DIR --workload noise_1f \\
        --rounds 30 --seed 0

Each checkout's ``src/chemlattice`` and ``bench/workloads.py`` are copied
into a temporary directory, and the package is imported from there as
``chemlattice_parent`` or ``chemlattice_change``, so both live in this one
interpreter.  Each side's ``workloads.py`` is loaded with its own package
standing in for ``chemlattice``, so its ``prepare`` builds the workload's
configs through that side's own classes, and its ``run`` and ``digests``
run and hash that side's artifacts.

Round i prepares the workload at seed ``--seed`` + i on both sides and
times one ``workloads.run`` iteration of each, the parent first in even
rounds and the change first in odd ones, after a garbage collection.
Every artifact digest must be the same on both sides in every round.
The script prints each round's times, then both sides' medians and the
paired ratios change/parent (median, quartiles, and the rounds the
change won), and last one JSON object.  Both sides share the machine's
state from moment to moment, so the ratios resolve smaller differences
than pairs of separate ``bench/run.py`` processes.  Exits 1 when any
digest differed.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def load_side(root: Path, side: str, work: Path):
    """The checkout's ``workloads`` module, bound to a private copy of
    its package imported as ``chemlattice_<side>``."""
    copy = work / side
    shutil.copytree(root / "src" / "chemlattice", copy / "src" / "chemlattice")
    (copy / "bench").mkdir()
    shutil.copy(root / "bench" / "workloads.py", copy / "bench" / "workloads.py")
    name = f"chemlattice_{side}"
    init = copy / "src" / "chemlattice" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    # workloads.py imports ``chemlattice`` and two of its modules; while it
    # loads, those names point at this side's copy.
    aliases = {"chemlattice": package}
    for sub in ("harness", "sim_core"):
        aliases[f"chemlattice.{sub}"] = importlib.import_module(f"{name}.{sub}")
    saved = {key: sys.modules.get(key) for key in aliases}
    path = list(sys.path)
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{side}", copy / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # its dataclass looks itself up there
        spec.loader.exec_module(workloads)
    finally:
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module
        sys.path[:] = path
    return workloads


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0, help="round i runs at seed SEED + i")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    times = {side: [] for side in SIDES}
    mismatches = []
    start_dir = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="inprocess-pairs-") as tmp:
        work = Path(tmp)
        modules = {side: load_side(roots[side], side, work) for side in SIDES}
        # The lattice workload writes its relation files under the working
        # directory, and summary.json records their relative path.
        os.chdir(work)
        try:
            for i in range(args.rounds):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                digests = {}
                for side in order:
                    workloads = modules[side]
                    prepared = workloads.prepare(args.workload, seed)
                    out = work / f"out-{side}"
                    gc.collect()
                    began = time.perf_counter()
                    manifests = workloads.run(prepared, str(out))
                    times[side].append(time.perf_counter() - began)
                    digests[side] = workloads.digests(manifests)
                    shutil.rmtree(out)
                if digests["parent"] != digests["change"]:
                    differ = sorted(k for k in digests["parent"].keys() | digests["change"].keys()
                                    if digests["parent"].get(k) != digests["change"].get(k))
                    mismatches.append(f"round {i} seed {seed}: {', '.join(differ)}")
                print(f"round {i} seed {seed} ({order[0]} first): parent "
                      f"{times['parent'][-1]:.4f} s  change {times['change'][-1]:.4f} s"
                      + ("" if digests["parent"] == digests["change"] else "  DIGESTS DIFFER"),
                      file=sys.stderr)
        finally:
            os.chdir(start_dir)

    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    q1, q3 = quartiles(ratios)
    ratio = statistics.median(ratios)
    wins = sum(r < 1 for r in ratios)
    medians = {side: statistics.median(times[side]) for side in SIDES}
    print(f"workload {args.workload}: {args.rounds} rounds, seeds "
          f"{args.seed}..{args.seed + args.rounds - 1}, one iteration per side per round")
    print(f"  wall median: parent {medians['parent']:.4f} s, change {medians['change']:.4f} s")
    print(f"  change/parent per round: median {ratio:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
          f"change faster in {wins}/{len(ratios)}")
    print(f"  artifact digests: "
          + (f"{len(mismatches)} rounds differ" if mismatches else "equal in every round"))
    for mismatch in mismatches:
        print(f"  DIGEST {mismatch}")
    print(json.dumps({"workload": args.workload, "rounds": args.rounds, "seed": args.seed,
                      "times": times, "ratios": ratios, "ratio_median": ratio,
                      "ratio_quartiles": [q1, q3], "change_wins": wins,
                      "digest_mismatches": mismatches}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
