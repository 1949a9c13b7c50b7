#!/usr/bin/env python3
"""Peak RSS of a fixed number of in-process benchmark iterations, per checkout.

    python3 scripts/peak_rss.py PARENT_DIR CHANGE_DIR --workload noise_1f \\
        --iterations 5 --rounds 3 --seed 0

Each round starts one fresh Python process per checkout, in the order
given in even rounds and reversed in odd ones.  The process runs from
the checkout's root, imports its ``bench/workloads.py`` (which puts that
checkout's ``src`` first on ``sys.path``), prepares the workload at
``--seed``, runs ``workloads.run`` ``--iterations`` times one after
another, and reports its ``ru_maxrss``.  A fixed iteration count keeps
the reading apart from ``bench/run.py``'s time-bounded loop, whose peak
RSS steps up with the number of iterations a run happens to complete.
The script prints one line per process, then each checkout's lowest,
median and highest reading, and last one JSON object.  Exits 1 when any
process failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import resource, shutil, sys, tempfile
sys.path.insert(0, "bench")
import workloads
workload, seed, iterations = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
prepared = workloads.prepare(workload, seed)
work = tempfile.mkdtemp(prefix="peak-rss-")
try:
    for i in range(iterations):
        workloads.run(prepared, f"{work}/iter-{i}")
        shutil.rmtree(f"{work}/iter-{i}", ignore_errors=True)
finally:
    shutil.rmtree(work, ignore_errors=True)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_rss_mb(root: Path, workload: str, seed: int, iterations: int):
    """Peak RSS in MB of one process in ``root``, or an error text."""
    cmd = [sys.executable, "-c", CHILD, workload, str(seed), str(iterations)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return int(lines[-1]) / 1024, None  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dirs", type=Path, nargs="+", metavar="DIR", help="checkout root")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--iterations", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.iterations < 1 or args.rounds < 1:
        ap.error("--iterations and --rounds must be at least 1")
    roots = [d.resolve() for d in args.dirs]
    for root in roots:
        if not (root / "bench" / "workloads.py").is_file():
            ap.error(f"{root} has no bench/workloads.py")

    readings = {str(root): [] for root in roots}
    failures = []
    for r in range(args.rounds):
        for root in roots if r % 2 == 0 else roots[::-1]:
            mb, error = peak_rss_mb(root, args.workload, args.seed, args.iterations)
            if error:
                failures.append(f"round {r} {root}: {error}")
                print(f"round {r} {root}: FAIL {error}")
            else:
                readings[str(root)].append(mb)
                print(f"round {r} {root}: {mb:.2f} MB")

    print(f"workload {args.workload}: {args.iterations} iterations per process, "
          f"seed {args.seed}, {args.rounds} rounds")
    for root, values in readings.items():
        if values:
            print(f"  {root}: min {min(values):.2f}  median {statistics.median(values):.2f}"
                  f"  max {max(values):.2f} MB over {len(values)} processes")
    print(json.dumps({"workload": args.workload, "iterations": args.iterations,
                      "seed": args.seed, "peak_rss_mb": readings, "failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
