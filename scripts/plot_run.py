#!/usr/bin/env python3
"""Plot the cluster-count and active-count traces from a run's series.csv.

Needs matplotlib, which is not a package dependency; install it separately.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chemlattice.harness import load_series


def main() -> int:
    ap = argparse.ArgumentParser(description="Plot a recorded run")
    ap.add_argument("series", type=Path, help="run dir (or its series.csv)")
    ap.add_argument("--out", type=Path, default=None, help="save PNG instead of showing")
    ap.add_argument("--t-min", type=int, default=None)
    ap.add_argument("--t-max", type=int, default=None)
    args = ap.parse_args()

    try:
        import matplotlib
        if args.out is not None:
            matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is required for plotting: pip install matplotlib", file=sys.stderr)
        return 1

    run_dir = args.series if args.series.is_dir() else args.series.parent
    series = load_series(run_dir)

    lo = args.t_min if args.t_min is not None else series.t[0]
    hi = args.t_max if args.t_max is not None else series.t[-1]
    keep = (series.t >= lo) & (series.t <= hi)
    t = series.t[keep]
    clusters = series.cluster_count[keep]
    active = series.active_count[keep]

    fig, (ax0, ax1) = plt.subplots(2, 1, sharex=True, figsize=(10, 6))
    ax0.plot(t, clusters, lw=0.7, color="tab:blue")
    ax0.set_ylabel("clusters")
    ax1.plot(t, active, lw=0.7, color="tab:red")
    ax1.set_ylabel("active molecules")
    ax1.set_xlabel("step")
    fig.suptitle(run_dir.name)
    fig.tight_layout()

    if args.out is not None:
        fig.savefig(args.out, dpi=150)
        print(f"wrote {args.out}")
    else:
        plt.show()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
