#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload by alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload noise_1f \\
        --pairs 10 --seconds 28 --seed-base 1000

Pair i runs ``bench/run.py --workload W --seed K+i --seconds S --trace 0``
once in each checkout, each with its own ``bench/run.py`` and from its
own root; the parent goes first in even pairs and the change in odd
ones.  The last line a run prints is its JSON result.  For every
end-to-end metric that the parent's BENCHMARK.json declares, the script
prints each side's median and quartiles, the pairs the change won
(ties count for neither side), and whether the median moved the better
way by more than the parent's interquartile range.  A gain holds when
the change won at least nine tenths of the pairs and that move exceeds
the parent's IQR.  ``run.py`` scales ``run_s`` by a speed scale taken
from reference chunks timed in the same run; the script reads the
unscaled wall median and the scale from the run's ``wall medians before
scaling`` line, compares ``run_s_unscaled`` the same way, and prints
every run's speed scale, so a gain can be told apart from a difference
in scale.  With ``--trace`` every run is ``bench/run.py --trace 1``
instead: the script prints each side's median and quartiles of every
per-layer time metric, and checks that every count metric is the same
on both sides of each pair.  Runs that fail or report ``correct: false``
are listed and leave their pair out.  Exits 1 when any run failed or
any count differed.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

UNSCALED = re.compile(r"wall medians before scaling: run (\S+) s, setup \S+ s; "
                      r"speed scale (\S+) ")


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: bool = False):
    """The metric values of one benchmark run in ``root``, with its unscaled
    ``run_s`` and speed scale when the run printed them, or an error text."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=4 * seconds + 300)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"last line is not JSON: {lines[-1][:200]}"
    if not result.get("correct"):
        return None, f"correct false, {result.get('failed')} of {result.get('attempted')} failed"
    values = {name: m["value"] for name, m in result["metrics"].items()}
    match = UNSCALED.search(proc.stdout)
    if match:
        values["run_s_unscaled"] = float(match[1])
        values["speed_scale"] = float(match[2])
    return values, None


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare_end_to_end(spec: dict, pairs: list) -> dict:
    """Print and return, per end-to-end metric, both sides' medians and
    quartiles, the pairs the change won and whether the gain holds."""
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    lower_better["run_s_unscaled"] = True
    summary = {}
    for name, lower in lower_better.items():
        parent = [p["parent"][name] for p in pairs if name in p["parent"]]
        change = [p["change"][name] for p in pairs if name in p["change"]]
        if not parent or len(parent) != len(change):
            continue
        sign = 1 if lower else -1
        wins = sum(sign * (p["parent"][name] - p["change"][name]) > 0 for p in pairs)
        losses = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in pairs)
        (pq1, pq3), (cq1, cq3) = quartiles(parent), quartiles(change)
        pmed, cmed = statistics.median(parent), statistics.median(change)
        gain = sign * (pmed - cmed)
        beyond = gain > pq3 - pq1
        holds = wins >= 0.9 * len(pairs) and beyond
        summary[name] = {"parent_median": pmed, "parent_quartiles": [pq1, pq3],
                         "change_median": cmed, "change_quartiles": [cq1, cq3],
                         "wins": wins, "losses": losses, "pairs": len(pairs),
                         "gain_exceeds_parent_iqr": beyond, "gain_holds": holds}
        print(f"  {name:14s} parent {pmed:.4f} ({pq1:.4f}-{pq3:.4f})  "
              f"change {cmed:.4f} ({cq1:.4f}-{cq3:.4f})  "
              f"{(cmed - pmed) / pmed:+.1%}  change better in {wins}/{len(pairs)} "
              f"(worse in {losses})  gain beyond parent IQR {pq3 - pq1:.4f}: "
              f"{'yes' if beyond else 'no'}  gain holds: {'yes' if holds else 'no'}")
    return summary


def compare_layers(spec: dict, pairs: list) -> tuple:
    """Print both sides' medians and quartiles of every per-layer time
    metric, and list every pair whose count metrics differ between the
    sides.  Returns (summary, mismatches)."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    summary, mismatches = {}, []
    for name, unit in units.items():
        if unit not in ("s", "us"):
            continue
        parent = [p["parent"][name] for p in pairs if name in p["parent"]]
        change = [p["change"][name] for p in pairs if name in p["change"]]
        if not parent or not change:
            continue
        (pq1, pq3), (cq1, cq3) = quartiles(parent), quartiles(change)
        pmed, cmed = statistics.median(parent), statistics.median(change)
        summary[name] = {"parent_median": pmed, "parent_quartiles": [pq1, pq3],
                         "change_median": cmed, "change_quartiles": [cq1, cq3]}
        moved = f"{(cmed - pmed) / pmed:+.1%}" if pmed else "-"
        print(f"  {name:28s} parent {pmed:.6g} ({pq1:.6g}-{pq3:.6g})  "
              f"change {cmed:.6g} ({cq1:.6g}-{cq3:.6g}) {unit}  {moved}")
    for i, p in enumerate(pairs):
        for name, unit in units.items():
            if unit == "count" and p["parent"].get(name) != p["change"].get(name):
                mismatches.append(f"pair {i} {name}: parent {p['parent'].get(name)} "
                                  f"change {p['change'].get(name)}")
    counts = sum(unit == "count" for unit in units.values())
    print(f"  {counts} count metrics in {len(pairs)} pairs: "
          + (f"{len(mismatches)} differ" if mismatches else "all equal"))
    for mismatch in mismatches:
        print(f"  COUNT {mismatch}")
    return summary, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--seed-base", type=int, default=1000, dest="seed_base",
                    help="pair i runs at seed SEED_BASE + i")
    ap.add_argument("--trace", action="store_true",
                    help="run bench/run.py --trace 1: compare the per-layer times "
                         "and check that the counts repeat")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    wall = "trace.run_s" if args.trace else "run_s"

    pairs, failures = [], []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            result, error = run_once(roots[side], args.workload, seed, args.seconds,
                                     args.trace)
            if error:
                failures.append(f"pair {i} seed {seed} {side}: {error}")
            else:
                got[side] = result
        line = "  ".join(f"{side} {wall} {got[side].get(wall, float('nan')):.4f}"
                         + ("" if args.trace else
                            f" (unscaled {got[side].get('run_s_unscaled', float('nan')):.4f}, "
                            f"scale {got[side].get('speed_scale', float('nan')):.4g})")
                         for side in order if side in got)
        print(f"pair {i} seed {seed} ({order[0]} first): {line}", file=sys.stderr)
        if len(got) == 2:
            pairs.append(got)

    print(f"workload {args.workload}: {len(pairs)} complete pairs of {args.pairs}, "
          f"{args.seconds:g} s {'traced ' if args.trace else ''}runs, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    mismatches = []
    if args.trace:
        summary, mismatches = compare_layers(spec, pairs)
    else:
        summary = compare_end_to_end(spec, pairs)
    scales = {side: [p[side].get("speed_scale") for p in pairs] for side in roots}
    if not args.trace:
        for side, values in scales.items():
            print(f"  speed scale per pair, {side}: "
                  + " ".join("-" if v is None else f"{v:.3f}" for v in values))
    for failure in failures:
        print(f"  FAIL {failure}")
    print(json.dumps({"workload": args.workload, "trace": args.trace, "pairs": pairs,
                      "failures": failures, "count_mismatches": mismatches,
                      "metrics": summary, "speed_scales": scales}))
    return 1 if failures or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
