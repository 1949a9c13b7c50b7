"""Workload definitions for the chemlattice benchmark.

Every workload is built from the benchmark seed alone and reaches the
program only through its public entry points, ``harness.run_scenario``
and ``harness.run_sweep``.  Importing this module puts the checkout's
``src`` first on ``sys.path`` and refuses any other ``chemlattice``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import chemlattice  # noqa: E402
from chemlattice import harness  # noqa: E402
from chemlattice.harness import AnalysisOptions, ScenarioConfig  # noqa: E402
from chemlattice.sim_core import NoiseSchedule, SimParams  # noqa: E402

if Path(chemlattice.__file__).resolve().parent != SRC / "chemlattice":
    raise ImportError(f"chemlattice resolved to {chemlattice.__file__}, not {SRC}")

WORKLOADS = ("spikes", "noise_1f", "sweep", "lattice")

# Run lengths: short iterations give many samples per run (see run.py).
SPIKES_STEPS = 6_000
NOISE_1F_STEPS = 66_536  # fig9b length: 2**16 samples reach the PSD after burn-in
SWEEP_STEPS = 2_000
SWEEP_REPLICATES = 2
SWEEP_VALUES = (0.0, 1e-6, 5e-4, 5e-3, 7.5e-3, 5e-2)  # the fig11 grid
LATTICE_SPECS = (
    ("fig5-lattice", "blocks:4,4"),
    ("fig4-lattice", "blocks:3,3,2:overlap=3"),
    ("diag-9", "diag:9"),
    ("blocks-8-8", "blocks:8,8"),
)

# Relation files live at a fixed path relative to the checkout root, so
# the relation source recorded in summary.json is the same at every seed.
RELATION_DIR = Path(".bench_out") / "relations"

_SPIKE_REGIME = dict(theta_a=0.3, p_coh=0.95, interplay_enabled=True,
                     pooled_modal_ratio=True)


def sim_seed(workload: str, seed: int) -> int:
    """64-bit simulator seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _const(p: float) -> NoiseSchedule:
    return NoiseSchedule(kind="constant", p0=p)


def _relation_text(cells: np.ndarray) -> str:
    return "".join("".join("1" if c else "0" for c in row) + "\n" for row in cells)


@dataclass(frozen=True)
class Prepared:
    workload: str
    seed: int
    configs: tuple


def prepare(workload: str, seed: int) -> Prepared:
    """Build the workload's scenario configs from the seed.

    The simulator workloads draw their seeds from the benchmark seed.
    The lattice workload relabels each relation's columns by a seeded
    permutation and writes it as a relation file; the closure lattice of
    row sets does not depend on column order, so its artifacts are the
    same at every seed.
    """
    if workload == "spikes":  # fig9c: p = 0.05, pooled interplay
        sim = SimParams(noise_schedule=_const(0.05), max_steps=SPIKES_STEPS,
                        seed=sim_seed(workload, seed), **_SPIKE_REGIME)
        configs = (ScenarioConfig(name="fig9c", kind="single", sim=sim),)
    elif workload == "noise_1f":  # fig9b: p = 0.05, interplay off
        sim = SimParams(noise_schedule=_const(0.05), max_steps=NOISE_1F_STEPS,
                        seed=sim_seed(workload, seed))
        configs = (ScenarioConfig(name="fig9b", kind="single", sim=sim,
                                  analysis=AnalysisOptions(burn_in=1000)),)
    elif workload == "sweep":  # fig11 grid with shortened cells
        sim = SimParams(noise_schedule=_const(0.0), max_steps=SWEEP_STEPS,
                        seed=sim_seed(workload, seed), **_SPIKE_REGIME)
        configs = (ScenarioConfig(name="fig11", kind="sweep", sim=sim,
                                  sweep_values=SWEEP_VALUES,
                                  seeds_per_value=SWEEP_REPLICATES),)
    elif workload == "lattice":
        rng = np.random.default_rng(seed)
        RELATION_DIR.mkdir(parents=True, exist_ok=True)
        configs = []
        for name, spec in LATTICE_SPECS:
            cells = harness.relation_from_source(spec).cells
            path = RELATION_DIR / f"{name}.txt"
            path.write_text(_relation_text(cells[:, rng.permutation(cells.shape[1])]))
            configs.append(ScenarioConfig(name=name, kind="lattice",
                                          relation_source=path.as_posix()))
        configs = tuple(configs)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return Prepared(workload, seed, configs)


def run(prepared: Prepared, out_dir: str) -> list:
    """One iteration of the workload; returns the manifests written."""
    if prepared.workload == "sweep":
        return [harness.run_sweep(prepared.configs[0], out_dir)]
    return [harness.run_scenario(cfg, os.path.join(out_dir, cfg.name))
            for cfg in prepared.configs]


def digests(manifests: list) -> dict:
    """sha256 of every artifact, re-read from disk, keyed scenario/file."""
    out = {}
    for manifest in manifests:
        for rel in manifest["files"]:
            data = Path(manifest["output_dir"], rel).read_bytes()
            out[f"{manifest['scenario']}/{rel}"] = hashlib.sha256(data).hexdigest()
    return out


def verdicts(manifests: list) -> dict:
    """Law verdicts and sizes of each lattice scenario, from summary.json."""
    out = {}
    for manifest in manifests:
        if manifest["kind"] != "lattice":
            continue
        summary = json.loads(Path(manifest["output_dir"], "summary.json").read_text())
        out[manifest["scenario"]] = {
            key: summary[key]
            for key in ("n_elements", "distributive", "orthomodular", "n_blocks")
        }
    return out


def artifact_bytes(manifests: list) -> int:
    return sum(f["bytes"] for m in manifests for f in m["files"].values())
