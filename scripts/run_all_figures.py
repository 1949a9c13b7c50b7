#!/usr/bin/env python3
"""Run every builtin scenario and drop artifacts under runs/.

Equivalent to calling the CLI once per preset. Sweeps take a while
(fig11 runs 6 values x 5 seeds); pass --skip-sweeps when iterating.
fig10 simulates fig9b's config again because it is its own builtin and
its summary.json carries its own name.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chemlattice import harness


def main() -> int:
    ap = argparse.ArgumentParser(description="Run all builtin scenarios")
    ap.add_argument("--out", type=Path, default=Path("runs"))
    ap.add_argument("--seed", type=int, default=None, help="override master seed")
    ap.add_argument("--skip-sweeps", action="store_true")
    ap.add_argument("--check", action="store_true", help="run scenario checks too")
    args = ap.parse_args()

    failures = []
    for name in harness.BUILTIN_NAMES:
        is_sweep = harness.builtin_config(name).kind == "sweep"
        if args.skip_sweeps and is_sweep:
            print(f"[skip] {name}")
            continue
        out_dir = args.out / name
        command = "sweep" if is_sweep else "run"
        argv = [command, name, "--out", str(out_dir)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.check:
            argv.append("--check")
        t0 = time.perf_counter()
        rc = harness.main(argv)
        dt = time.perf_counter() - t0
        status = "ok" if rc == 0 else f"exit {rc}"
        print(f"[{status}] {name}  ({dt:.1f}s)  -> {out_dir}")
        if rc != 0:
            failures.append(name)

    if failures:
        print("failed:", ", ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
