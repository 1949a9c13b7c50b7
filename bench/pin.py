#!/usr/bin/env python3
"""Write bench/pins.json: the reference outputs bench/run.py checks.

    python3 bench/pin.py --source <commit>

Runs every simulator workload once at seeds 0..PIN_SEEDS-1 and records the
sha256 of each artifact.  The lattice artifacts do not depend on the
seed, which this script verifies over a few seeds before pinning them
once together with each lattice's element count, law verdicts and block
count.  Run it only on the commit whose outputs are the reference: a
change of pins is a declared re-baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
from pathlib import Path

import workloads

PINS = Path(__file__).resolve().parent / "pins.json"
PIN_SEEDS = 16
LATTICE_SEEDS = 4


def run_once(workload: str, seed: int, scratch: Path):
    out_dir = tempfile.mkdtemp(dir=scratch)
    try:
        manifests = workloads.run(workloads.prepare(workload, seed), out_dir)
        return workloads.digests(manifests), workloads.verdicts(manifests)
    finally:
        shutil.rmtree(out_dir)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--source", required=True, help="commit the pins are taken from")
    args = ap.parse_args()
    os.chdir(workloads.ROOT)
    scratch = workloads.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)

    seeds = {}
    for seed in range(PIN_SEEDS):
        seeds[str(seed)] = {
            name: run_once(name, seed, scratch)[0]
            for name in workloads.WORKLOADS if name != "lattice"
        }
        print(f"pinned seed {seed}", flush=True)
    lattice = [run_once("lattice", seed, scratch) for seed in range(LATTICE_SEEDS)]
    if any(result != lattice[0] for result in lattice):
        raise SystemExit("lattice artifacts depend on the seed; refusing to pin")
    pins = {
        "source": args.source,
        "seeds": seeds,
        "lattice": {"digests": lattice[0][0], "verdicts": lattice[0][1]},
    }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")


if __name__ == "__main__":
    main()
