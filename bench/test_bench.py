"""Self-tests of the benchmark: python3 -m pytest -q bench/test_bench.py

They check that tracing changes no output, that the per-layer counts of a
traced run repeat exactly, and that run.py keeps its output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (first: puts the checkout's src on sys.path)
import tracing  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((BENCH / "pins.json").read_text())
TIMES = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("s", "us")}


@pytest.fixture(autouse=True)
def _at_checkout_root(monkeypatch):
    monkeypatch.chdir(workloads.ROOT)


def _run(prepared, out_dir, traced=False):
    if not traced:
        return workloads.digests(workloads.run(prepared, str(out_dir))), None
    with tracing.Tracer() as tracer:
        manifests = workloads.run(prepared, str(out_dir))
    return workloads.digests(manifests), tracing.layer_metrics(tracer)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_repeats_counts_and_pinned_digests(workload, tmp_path):
    prepared = workloads.prepare(workload, 0)
    plain, _ = _run(prepared, tmp_path / "plain")
    first, layers_a = _run(prepared, tmp_path / "traced_a", traced=True)
    second, layers_b = _run(prepared, tmp_path / "traced_b", traced=True)
    pinned = (PINS["lattice"]["digests"] if workload == "lattice"
              else PINS["seeds"]["0"][workload])
    assert plain == pinned
    assert first == plain and second == plain
    counts_a = {k: v for k, v in layers_a.items() if k not in TIMES}
    assert counts_a == {k: v for k, v in layers_b.items() if k not in TIMES}


def test_layers_touched_match_the_workload(tmp_path):
    layers = {w: _run(workloads.prepare(w, 0), tmp_path / w, traced=True)[1]
              for w in workloads.WORKLOADS}
    assert layers["spikes"]["interplay.evals"] == workloads.SPIKES_STEPS
    assert layers["spikes"]["analysis.events"] > 0
    assert layers["sweep"]["sim_core.boundary_resets"] > 0
    assert layers["noise_1f"]["interplay.evals"] == 0
    assert layers["noise_1f"]["sim_core.merge_attempts"] == workloads.NOISE_1F_STEPS
    assert layers["sweep"]["harness.cells"] == 2 * len(workloads.SWEEP_VALUES)
    assert layers["lattice"]["lattice.hasse_calls"] == 2 * len(workloads.LATTICE_SPECS)
    assert layers["lattice"]["harness.cells"] == 0
    for name in ("spikes", "noise_1f", "sweep"):
        assert layers[name]["lattice.elements"] == 0


def test_lattice_artifacts_do_not_depend_on_the_seed(tmp_path):
    for seed in (7, 1001):
        manifests = workloads.run(workloads.prepare("lattice", seed),
                                  str(tmp_path / str(seed)))
        assert workloads.digests(manifests) == PINS["lattice"]["digests"]
        assert workloads.verdicts(manifests) == PINS["lattice"]["verdicts"]


def _bench(args, cwd):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_reports_declared_metrics_on_unpinned_seed(trace, section):
    code, lines = _bench(["--workload", "spikes", "--seed", "1001",
                          "--seconds", "1", "--trace", trace], workloads.ROOT)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _bench(["--workload", "spikes", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
