"""Scenario runner, config parsing, artifact, and CLI tests."""

import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from chemlattice import harness, interplay, sim_core
from chemlattice import lattice as lattice_module
from chemlattice.errors import ConfigError
from chemlattice.harness import (
    BUILTIN_NAMES,
    AnalysisOptions,
    ScenarioConfig,
    builtin_config,
    config_from_dict,
    detect_lock_in,
    load_series,
    main,
    parse_config,
    relation_from_source,
    run_scenario,
    run_simulation,
    sub_run_seed,
)
from chemlattice.analysis import RunSeries
from chemlattice.sim_core import NoiseSchedule, SimParams


def tiny_single(**sim_overrides):
    sim = {"max_steps": 2000, "seed": 3,
           "noise_schedule": {"kind": "constant", "p0": 0.05}}
    sim.update(sim_overrides)
    return config_from_dict({"name": "tiny", "kind": "single", "sim": sim})


# ------------------------------------------------------------- configs


def test_minimal_config_gets_defaults():
    config = config_from_dict({"kind": "single"})
    assert config.name == "custom"
    assert config.record_every == 1
    assert config.sim == SimParams()
    assert config.analysis == AnalysisOptions()


def test_unknown_keys_are_rejected_with_their_path():
    with pytest.raises(ConfigError, match="unknown key: thetaC"):
        config_from_dict({"kind": "single", "thetaC": 0.4})
    with pytest.raises(ConfigError, match="unknown key: sim.thetaC"):
        config_from_dict({"kind": "single", "sim": {"thetaC": 0.4}})
    with pytest.raises(ConfigError, match="sim.noise_schedule.ramp_rate"):
        config_from_dict(
            {"kind": "single", "sim": {"noise_schedule": {"ramp_rate": 1e-6}}}
        )
    with pytest.raises(ConfigError, match="analysis.smoothing"):
        config_from_dict({"kind": "single", "analysis": {"smoothing": 3}})


def test_config_type_errors_name_the_field():
    with pytest.raises(ConfigError, match="sim.seed"):
        config_from_dict({"kind": "single", "sim": {"seed": 1.5}})
    with pytest.raises(ConfigError, match="record_every"):
        config_from_dict({"kind": "single", "record_every": "often"})


def test_kind_specific_field_rules():
    with pytest.raises(ConfigError, match="sweep_values"):
        config_from_dict({"kind": "sweep"})
    with pytest.raises(ConfigError, match="outside"):
        config_from_dict({"kind": "sweep", "sweep_values": [0.1, 3.0]})
    with pytest.raises(ConfigError, match="sweep_values is not valid"):
        config_from_dict({"kind": "single", "sweep_values": [0.1]})
    with pytest.raises(ConfigError, match="ramp"):
        config_from_dict({"kind": "ramp"})
    with pytest.raises(ConfigError, match="kind 'ramp'"):
        config_from_dict({"kind": "ramp", "ramp": {"kind": "constant", "p0": 0.1}})
    with pytest.raises(ConfigError, match="relation_source"):
        config_from_dict({"kind": "lattice"})
    with pytest.raises(ConfigError, match="not valid for lattice"):
        config_from_dict(
            {"kind": "lattice", "relation_source": "diag:3", "sim": {"seed": 1}}
        )
    with pytest.raises(ConfigError, match="relation_source is not valid"):
        config_from_dict({"kind": "single", "relation_source": "diag:3"})


_RAMP_JSON = {"kind": "ramp", "p0": 0.01, "rate": 2e-5, "onset_step": 300}
_SIM_JSON = {
    "n_molecules": 60,
    "theta_c": 0.4,
    "theta_dec": 0.6,
    "noise_schedule": _RAMP_JSON,
    "theta_a": 0.2,
    "p_coh": 0.9,
    "interplay_enabled": True,
    "pooled_modal_ratio": True,
    "max_steps": 900,
    "seed": 5,
}
_ANALYSIS_JSON = {
    "burn_in": 10,
    "f_lo": 0.002,
    "f_hi": 0.2,
    "rise_window": 20,
    "fall_window": 30,
    "min_amplitude": 40.0,
    "psd_trace": "cluster",
}


def test_every_config_field_parses_to_the_dataclass_value():
    ramp = NoiseSchedule(kind="ramp", p0=0.01, rate=2e-5, onset_step=300)
    sim = SimParams(
        n_molecules=60, theta_c=0.4, theta_dec=0.6, noise_schedule=ramp,
        theta_a=0.2, p_coh=0.9, interplay_enabled=True, pooled_modal_ratio=True,
        max_steps=900, seed=5,
    )
    opts = AnalysisOptions(
        burn_in=10, f_lo=0.002, f_hi=0.2, rise_window=20, fall_window=30,
        min_amplitude=40.0, psd_trace="cluster",
    )
    cases = [
        (
            {"name": "r", "kind": "ramp", "sim": _SIM_JSON, "ramp": _RAMP_JSON,
             "output_dir": "out/r", "record_every": 3, "analysis": _ANALYSIS_JSON},
            ScenarioConfig(name="r", kind="ramp", sim=sim, ramp=ramp,
                           output_dir="out/r", record_every=3, analysis=opts),
        ),
        (
            {"name": "s", "kind": "sweep", "sim": _SIM_JSON,
             "sweep_values": [0, 0.5], "seeds_per_value": 4},
            ScenarioConfig(name="s", kind="sweep", sim=sim,
                           sweep_values=(0.0, 0.5), seeds_per_value=4),
        ),
        (
            {"name": "l", "kind": "lattice", "relation_source": "diag:2"},
            ScenarioConfig(name="l", kind="lattice", relation_source="diag:2"),
        ),
    ]
    covered = set()
    for obj, want in cases:
        assert config_from_dict(obj) == want
        covered |= set(obj)
    assert covered == {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert set(_SIM_JSON) == {f.name for f in dataclasses.fields(SimParams)}
    assert set(_ANALYSIS_JSON) == {f.name for f in dataclasses.fields(AnalysisOptions)}
    for p in (sim, SimParams()):
        assert config_from_dict({"kind": "single", "sim": p.to_dict()}).sim == p


@pytest.mark.parametrize(
    "obj, path",
    [
        ({"kind": "sweep", "sweep_values": [0.1, "x"]}, r"sweep_values\[1\]"),
        ({"kind": "ramp", "ramp": {**_RAMP_JSON, "onset_step": 3.0}},
         r"ramp\.onset_step"),
        ([{"kind": "single"}], "config root"),
        ({"kind": "single", "sim": [1]}, r"^sim must be"),
        ({"name": "x"}, "config requires a kind"),
        ({"kind": "single", "record_every": True}, "^record_every must be int, got bool"),
        ({"kind": "single", "sim": {"seed": True}}, r"^sim\.seed must be int, got bool"),
        ({"kind": "single", "sim": {"theta_c": False}},
         r"^sim\.theta_c must be a number, got bool"),
        ({"kind": "ramp", "ramp": {**_RAMP_JSON, "rate": float("nan")}},
         r"^ramp\.rate must be a finite number"),
        ({"kind": "single", "analysis": {"min_amplitude": float("nan")}},
         r"^analysis\.min_amplitude must be a finite number"),
        ({"kind": "single", "sim": {"theta_c": float("inf")}},
         r"^sim\.theta_c must be a finite number"),
        ({"kind": "sweep", "sweep_values": [0.1, float("-inf")]},
         r"^sweep_values\[1\] must be a finite number"),
    ],
)
def test_config_rejections_name_their_path(obj, path):
    with pytest.raises(ConfigError, match=path):
        config_from_dict(obj)


def test_bool_fields_take_json_booleans():
    for flag in (True, False):
        sim = config_from_dict(
            {"kind": "single", "sim": {"interplay_enabled": flag, "pooled_modal_ratio": flag}}
        ).sim
        assert sim.interplay_enabled is flag and sim.pooled_modal_ratio is flag


def test_readme_config_example_names_every_field():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Config files", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    config = config_from_dict(example)
    assert config.kind == example["kind"]
    assert set(example["sim"]) == {f.name for f in dataclasses.fields(SimParams)}
    assert set(example["analysis"]) == {
        f.name for f in dataclasses.fields(AnalysisOptions)
    }


def test_parse_config_file(tmp_path):
    path = tmp_path / "myrun.json"
    path.write_text(json.dumps({"kind": "single", "sim": {"seed": 5}}))
    config = parse_config(str(path))
    assert config.name == "myrun"  # stem is the default name
    assert config.sim.seed == 5
    bad = tmp_path / "broken.json"
    bad.write_text('{"kind": "single",}')
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(str(bad))


def test_builtin_table():
    assert BUILTIN_NAMES == (
        "fig10", "fig11", "fig12", "fig4-lattice", "fig5-lattice",
        "fig9a", "fig9b", "fig9c",
    )
    fig9a = builtin_config("fig9a")
    assert fig9a.sim.noise_schedule.p0 == 0.0
    assert fig9a.sim.max_steps == 100_000
    assert not fig9a.sim.interplay_enabled
    fig11 = builtin_config("fig11")
    assert fig11.kind == "sweep"
    assert fig11.sweep_values == (0.0, 1e-6, 5e-4, 5e-3, 7.5e-3, 5e-2)
    assert fig11.seeds_per_value == 5
    fig12 = builtin_config("fig12")
    assert fig12.kind == "ramp" and fig12.ramp.kind == "ramp"
    assert fig12.ramp.onset_step == 10_000
    assert builtin_config("fig4-lattice").relation_source == "blocks:3,3,2:overlap=3"
    with pytest.raises(ConfigError, match="unknown builtin"):
        builtin_config("fig99")


def test_sub_run_seeds_are_stable_and_distinct():
    # pinned: grid cells must never move when the grid grows
    assert sub_run_seed(11, 0, 0) == 10520313552068553934
    assert sub_run_seed(11, 3, 2) == 15729585277663110808
    assert sub_run_seed(12, 0, 0) == 17827584815388034219
    seen = {sub_run_seed(11, vi, rep) for vi in range(8) for rep in range(8)}
    assert len(seen) == 64
    assert all(0 <= s < 2**64 for s in seen)


# ------------------------------------------------------------ run layer


def test_run_simulation_records_on_the_thinned_axis():
    params = SimParams(max_steps=100, seed=1)
    series, state = run_simulation(params, record_every=7)
    assert len(series.t) == 100 // 7 + 1
    assert series.t[0] == 0 and series.t[-1] == 98
    assert state.t == 100
    assert series.params_snapshot == params
    assert np.all(series.noise_trace == 0.0)


def test_run_simulation_noise_trace_follows_the_ramp():
    ramp = NoiseSchedule(kind="ramp", p0=0.0, rate=1e-4, onset_step=50)
    params = SimParams(noise_schedule=ramp, max_steps=100, seed=1)
    series, _ = run_simulation(params, record_every=25)
    assert list(series.t) == [0, 25, 50, 75, 100]
    assert series.noise_trace[1] == 0.0
    assert series.noise_trace[3] == pytest.approx(25e-4)


def test_run_simulation_records_the_state_after_every_kth_step():
    params = SimParams(noise_schedule=NoiseSchedule(kind="constant", p0=0.05),
                       max_steps=100, seed=4)
    series, _ = run_simulation(params, record_every=7)
    state = sim_core.init_state(params)
    cc, ac = [state.c_max], [state.n_active]
    for t in range(1, 101):
        sim_core.step(state, params)
        if t % 7 == 0:
            cc.append(state.c_max)
            ac.append(state.n_active)
    assert series.cluster_count.dtype == series.active_count.dtype == np.int64
    assert (series.cluster_count.tolist(), series.active_count.tolist()) == (cc, ac)


def reference_series_csv(series):
    # Row by row from numpy scalars, as series.csv was first written.
    rows = ["t,cluster_count,active_count,noise_p"]
    for t, c, a, p in zip(series.t, series.cluster_count, series.active_count,
                          series.noise_trace):
        rows.append(f"{int(t)},{int(c)},{int(a)},{repr(float(p))}")
    return "\n".join(rows) + "\n"


def first_difference(got, want):
    """None when two texts match, else the first differing line as
    (line number, got, want), which keeps a failure report short."""
    for i, pair in enumerate(itertools.zip_longest(got.split("\n"), want.split("\n"))):
        if pair[0] != pair[1]:
            return (i, *pair)
    return None


@pytest.mark.parametrize("extra", [-1, 0, 1, harness.CSV_CHUNK_ROWS + 1])
def test_series_csv_matches_row_by_row_across_chunk_bounds(extra):
    rows = harness.CSV_CHUNK_ROWS + extra
    ramp = builtin_config("fig12").ramp
    # A thinned axis through the fig12 ramp's onset, so the noise reprs
    # run from 0.0 to values like 8.750000000000001e-05.
    t = np.arange(rows, dtype=np.int64) * 15 + 9_000
    noise = np.array([sim_core.noise_at(ramp, v) for v in t.tolist()])
    noise[::7] = 0.1 + 0.2
    rng = np.random.default_rng(rows)
    series = RunSeries(
        t=t,
        cluster_count=rng.integers(1, 201, rows),
        active_count=rng.integers(0, 201, rows),
        params_snapshot=None,
        noise_trace=noise,
    )
    text = harness._series_csv(series)
    assert first_difference(text, reference_series_csv(series)) is None
    assert text.count("\n") == rows + 1
    assert "0.30000000000000004" in text and "8.750000000000001e-05" in text
    # An integer p0 from a JSON config gives an integer noise trace.
    series.noise_trace = np.zeros(rows, dtype=np.int64)
    assert first_difference(harness._series_csv(series), reference_series_csv(series)) is None


def chunk_noise(first, second=0.05):
    """Two chunks of noise: ``first`` fills the first, ``second`` the other."""
    noise = np.full(2 * harness.CSV_CHUNK_ROWS, second)
    noise[:harness.CSV_CHUNK_ROWS] = first
    return noise


def last_row_of_the_chunk_differs():
    noise = chunk_noise(0.05)
    noise[harness.CSV_CHUNK_ROWS - 1] = 0.1 + 0.2
    return noise


@pytest.mark.parametrize("noise, reprs", [
    (chunk_noise(0.05), {"0.05"}),
    (last_row_of_the_chunk_differs(), {"0.05", "0.30000000000000004"}),
    # Equal as values, not as bits: each row keeps its own repr.
    (chunk_noise(np.where(np.arange(harness.CSV_CHUNK_ROWS) % 3, 0.0, -0.0), -0.0),
     {"0.0", "-0.0"}),
    (chunk_noise(1e-06, 1e-06), {"1e-06"}),
], ids=["constant", "constant-but-the-last-row", "signed-zeros", "constant-1e-06"])
def test_series_csv_folds_only_a_bitwise_constant_noise_chunk(noise, reprs):
    rows = len(noise)
    rng = np.random.default_rng(5)
    series = RunSeries(
        t=np.arange(rows, dtype=np.int64) * 3,
        cluster_count=rng.integers(1, 201, rows),
        active_count=rng.integers(0, 201, rows),
        params_snapshot=None,
        noise_trace=noise,
    )
    text = harness._series_csv(series)
    assert first_difference(text, reference_series_csv(series)) is None
    assert {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]} == reprs


def test_series_csv_of_a_thinned_ramp_run_matches_row_by_row():
    config = builtin_config("fig12")
    ramp = dataclasses.replace(config.ramp, onset_step=1_000)
    steps = 3 * (2 * harness.CSV_CHUNK_ROWS + 1)
    params = dataclasses.replace(config.sim, noise_schedule=ramp, max_steps=steps)
    series, _ = run_simulation(params, record_every=3)
    assert len(series.t) == 2 * harness.CSV_CHUNK_ROWS + 2
    assert np.count_nonzero(series.noise_trace) > harness.CSV_CHUNK_ROWS
    assert first_difference(harness._series_csv(series), reference_series_csv(series)) is None


def test_step_phases_stay_separate_calls(monkeypatch):
    # The bench tracer times and counts these names by wrapping them where
    # they are looked up; a loop that fused them would leave its per-layer
    # metrics at zero.
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(harness, "step")
    for name in ("attempt_clustering", "attempt_declustering",
                 "apply_boundary_rules", "apply_noise"):
        count(sim_core, name)
    count(interplay, "run_interplay")
    params = SimParams(
        noise_schedule=NoiseSchedule(kind="constant", p0=0.05),
        interplay_enabled=True,
        pooled_modal_ratio=True,
        max_steps=300,
        seed=3,
    )
    run_simulation(params)
    assert calls == {
        "step": 300,
        "attempt_clustering": 300,
        "attempt_declustering": 300,
        # once before the noise and once after the kick
        "apply_boundary_rules": 600,
        "apply_noise": 300,
        "run_interplay": 300,
    }


def _lock_series(cluster, active, n=200):
    m = len(cluster)
    return RunSeries(
        t=np.arange(m),
        cluster_count=np.asarray(cluster),
        active_count=np.asarray(active),
        params_snapshot=SimParams(n_molecules=n),
        noise_trace=np.zeros(m),
    )


def test_detect_lock_in():
    frozen = _lock_series(
        np.concatenate([[200, 100, 1], np.full(97, 199)]),
        np.concatenate([[0, 0, 200], np.full(97, 150)]),
    )
    assert detect_lock_in(frozen)
    never_activated = _lock_series(np.full(100, 199), np.full(100, 150))
    assert not detect_lock_in(never_activated)
    dips = _lock_series(
        np.concatenate([[1], np.full(98, 199), [100]]),
        np.full(100, 150),
    )
    assert not detect_lock_in(dips)
    inactive_tail = _lock_series(
        np.concatenate([[1], np.full(99, 199)]),
        np.concatenate([[200], np.full(99, 20)]),
    )
    assert not detect_lock_in(inactive_tail)


# ------------------------------------------------------------ artifacts


def test_run_scenario_writes_verified_artifacts(tmp_path):
    out = tmp_path / "tiny"
    manifest = run_scenario(tiny_single(), str(out))
    assert sorted(manifest["files"]) == ["series.csv", "summary.json"]
    for rel, meta in manifest["files"].items():
        payload = (out / rel).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == meta["sha256"]
        assert len(payload) == meta["bytes"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["name"] == "tiny" and summary["kind"] == "single"
    assert summary["n_recorded"] == 2001
    assert {"events", "psd", "lock_in", "params"} <= set(summary)
    header = (out / "series.csv").read_text().splitlines()[0]
    assert header == "t,cluster_count,active_count,noise_p"
    stored = json.loads((out / "manifest.json").read_text())
    assert stored["files"] == manifest["files"]


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(tiny_single(), str(a))
    run_scenario(tiny_single(), str(b))
    for name in ("series.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_lattice_scenario_artifacts(tmp_path):
    config = config_from_dict(
        {"name": "diag", "kind": "lattice", "relation_source": "diag:3"}
    )
    out = tmp_path / "lat"
    manifest = run_scenario(config, str(out))
    assert sorted(manifest["files"]) == ["lattice.dot", "laws.json", "summary.json"]
    laws = json.loads((out / "laws.json").read_text())
    assert sorted(laws) == ["blocks", "distributive", "orthomodular", "shared", "witness"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_elements"] == 8
    assert summary["n_hasse_edges"] == 12


def test_hasse_cover_is_scanned_once_per_lattice_run(tmp_path, monkeypatch):
    scans = []
    scan = lattice_module._scan_cover

    def counted(lat):
        scans.append(lat)
        return scan(lat)

    monkeypatch.setattr(lattice_module, "_scan_cover", counted)
    run_scenario(builtin_config("fig5-lattice"), str(tmp_path))
    assert len(scans) == 1


def test_run_sweep_grid_aggregates_sub_runs(tmp_path):
    config = config_from_dict(
        {
            "name": "mini",
            "kind": "sweep",
            "sweep_values": [0.0, 0.05],
            "seeds_per_value": 2,
            "sim": {"max_steps": 1500, "seed": 9},
        }
    )
    out = tmp_path / "sweep"
    run_scenario(config, str(out))
    grid = json.loads((out / "grid.json").read_text())
    assert grid["master_seed"] == 9 and grid["seeds_per_value"] == 2
    assert [row["noise_p"] for row in grid["values"]] == [0.0, 0.05]
    for vi, row in enumerate(grid["values"]):
        assert row["n_runs"] == 2
        totals = {"spike_up": 0, "spike_down": 0, "sawtooth": 0}
        for rep, sub in enumerate(row["sub_runs"]):
            assert sub["path"] == f"value_{vi}/seed_{rep}"
            assert sub["seed"] == sub_run_seed(9, vi, rep)
            sub_summary = json.loads(
                (out / sub["path"] / "summary.json").read_text()
            )
            for kind in totals:
                totals[kind] += sub_summary["events"][kind]
        assert all(row[k] == totals[k] for k in totals)
        assert row["total_events"] == sum(totals.values())


def test_sweep_requires_sweep_kind():
    from chemlattice.harness import run_sweep

    with pytest.raises(ConfigError, match="needs a sweep scenario"):
        run_sweep(tiny_single())


# ------------------------------------------------------ relation source


def test_relation_from_source_specs(tmp_path):
    assert np.array_equal(
        relation_from_source("diag:3").cells, np.eye(3, dtype=bool)
    )
    rel = relation_from_source("blocks:4,4")
    assert rel.n_rows == 8 and rel.cells[0, 4]
    bare = relation_from_source("blocks:2,2:nofill")
    assert not bare.cells[0, 2]
    lap = relation_from_source("blocks:3,3,2:overlap=3")
    assert lap.n_rows == 7
    path = tmp_path / "rel.txt"
    path.write_text("10\n01\n")
    assert relation_from_source(str(path)).n_rows == 2


def test_relation_from_source_errors():
    with pytest.raises(ConfigError, match="integer size"):
        relation_from_source("diag:x")
    with pytest.raises(ConfigError, match="needs sizes"):
        relation_from_source("blocks:")
    with pytest.raises(ConfigError, match="unknown blocks option"):
        relation_from_source("blocks:2,2:mirror")
    with pytest.raises(FileNotFoundError):
        relation_from_source("no/such/relation.txt")


# ------------------------------------------------------------------ cli


def test_cli_run_with_overrides(tmp_path):
    out = tmp_path / "short"
    rc = main([
        "run", "fig9a", "--steps", "600", "--record-every", "2",
        "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert len(lines) == 1 + 301  # header plus 600//2 + 1 records


def test_cli_seed_override_changes_the_trajectory(tmp_path):
    a, b, c = (tmp_path / x for x in "abc")
    args = ["run", "fig9b", "--steps", "800"]
    main(args + ["--seed", "1", "--out", str(a)])
    main(args + ["--seed", "2", "--out", str(b)])
    main(args + ["--seed", "1", "--out", str(c)])
    sa = (a / "series.csv").read_bytes()
    assert sa != (b / "series.csv").read_bytes()
    assert sa == (c / "series.csv").read_bytes()


def test_cli_unknown_scenario_is_a_config_error(tmp_path, capsys):
    assert main(["run", "fig99", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_command_kind_mismatches(tmp_path):
    assert main(["run", "fig11", "--out", str(tmp_path / "x")]) == 2
    assert main(["sweep", "fig9a", "--out", str(tmp_path / "y")]) == 2
    assert main(["lattice", "fig9a", "--out", str(tmp_path / "z")]) == 2


def test_cli_unwritable_output_is_a_runtime_error():
    assert main(["run", "fig9a", "--steps", "300", "--out", "/proc/nope/x"]) == 3


def test_cli_failed_check_exits_four(tmp_path, capsys):
    # 1100 steps leave too few samples after burn-in for a spectrum
    rc = main([
        "run", "fig10", "--steps", "1100", "--check", "--out", str(tmp_path / "f"),
    ])
    assert rc == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "check failed" in captured.err


def test_cli_passing_check(tmp_path, capsys):
    rc = main([
        "run", "fig9a", "--steps", "2000", "--check", "--out", str(tmp_path / "ok"),
    ])
    assert rc == 0
    assert "check fig9a: ok" in capsys.readouterr().out


def test_cli_check_without_a_checker_is_fine(tmp_path, capsys):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"kind": "single", "sim": {"max_steps": 400}}))
    rc = main(["run", str(path), "--check", "--out", str(tmp_path / "c")])
    assert rc == 0
    assert "no scenario-specific checks" in capsys.readouterr().out
    assert not (tmp_path / "c" / "check.json").exists()


def _edit_json(name, edit):
    def doctor(out_dir):
        path = os.path.join(out_dir, name)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        edit(data)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return doctor


def _edit_active(rows, values):
    def doctor(out_dir):
        path = os.path.join(out_dir, "series.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for r, v in zip(rows, values):
            t, c, _, p = lines[1 + r].split(",")
            lines[1 + r] = f"{t},{c},{v},{p}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return doctor


def _edit_grid(grid):
    rows = {row["noise_p"]: row for row in grid["values"]}
    rows[1e-6]["lock_in_runs"] = 3  # 1000 steps are too short to lock in
    rows[5e-2]["sawtooth"] = 10**6


# Short runs whose gates all pass, each with one artifact doctored so
# that exactly one gate fails.
DOCTORED_CHECKS = {
    "fig9a": (["run", "fig9a", "--steps", "2000"],
              _edit_json("summary.json", lambda s: s["events"].update(total=3)),
              ("wave events", "==")),
    "fig9b": (["run", "fig9b", "--steps", "5000"],
              _edit_json("summary.json", lambda s: s["psd"].update(slope=-0.5)),
              ("psd slope", "<=")),
    "fig9c": (["run", "fig9c", "--steps", "3000"],
              _edit_json("summary.json", lambda s: s["events"].update(spike_down=9)),
              ("spike_down", ">=")),
    "fig11": (["sweep", "fig11", "--steps", "1000"],
              _edit_json("grid.json", _edit_grid),
              ("spikes at 5e-2 vs sawtooth", ">")),
    # a pre-onset sawtooth: a drop to 0, then a slow climb back
    "fig12": (["run", "fig12", "--steps", "20000"],
              _edit_active(range(5000, 5100), range(0, 200, 2)),
              ("events before onset", "==")),
    "fig5-lattice": (["lattice", "fig5-lattice"],
                     _edit_json("laws.json", lambda laws: laws["shared"].insert(1, "{A1}")),
                     ("shared elements", "==")),
    "fig4-lattice": (["lattice", "fig4-lattice"],
                     _edit_json("summary.json", lambda s: s.update(n_elements=13)),
                     ("elements", "==")),
}


@pytest.mark.parametrize("name", sorted(DOCTORED_CHECKS))
def test_doctored_artifact_fails_exactly_its_gate(name, tmp_path, monkeypatch, capsys):
    args, doctor, (gate, op) = DOCTORED_CHECKS[name]
    real_run = harness.run_scenario

    def run_then_doctor(config, out_dir=None):
        manifest = real_run(config, out_dir)
        doctor(manifest["output_dir"])
        return manifest

    monkeypatch.setattr(harness, "run_scenario", run_then_doctor)
    assert main(args + ["--check", "--out", str(tmp_path)]) == 4
    record = json.loads((tmp_path / "check.json").read_text())
    assert record["scenario"] == name and record["passed"] is False
    failed = [(g["name"], g["op"]) for g in record["gates"] if not g["ok"]]
    assert failed == [(gate, op)]
    assert f"check {name}: FAIL {gate} = " in capsys.readouterr().out


def test_check_json_lives_outside_the_manifest(tmp_path):
    args = ["lattice", "fig5-lattice", "--out", str(tmp_path)]
    assert main(args + ["--check"]) == 0
    record = json.loads((tmp_path / "check.json").read_text())
    assert record["passed"] is True and all(g["ok"] for g in record["gates"])
    # a second checked run finds the old check.json on disk
    assert main(args + ["--check"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "check.json" not in manifest["files"]
    assert main(args) == 0
    assert not (tmp_path / "check.json").exists()


def test_gate_verdicts():
    Gate = harness.Gate
    assert Gate("a", 1, "<", 2).ok and not Gate("a", 2, "<", 2).ok
    assert Gate("a", 2, "<=", 2).ok and Gate("a", 2, ">=", 2).ok
    assert Gate("a", [1], "==", [1]).ok and not Gate("a", 3, ">", 3).ok
    assert not Gate("a", None, "==", None).ok
    assert not Gate("a", 1, ">", None).ok and not Gate("a", None, "<", 1).ok


def test_cli_adhoc_lattice_spec(tmp_path):
    out = tmp_path / "adhoc"
    assert main(["lattice", "blocks:2,2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_elements"] == 6  # two 2^2 blocks sharing the bounds
    assert summary["relation"]["source"] == "blocks:2,2"


def test_cli_lattice_from_relation_file(tmp_path):
    rel = tmp_path / "diag.txt"
    rel.write_text("100\n010\n001\n")
    out = tmp_path / "from-file"
    assert main(["lattice", str(rel), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_elements"] == 8


def test_cli_lattice_stops_enumerating_at_the_law_table_cap(tmp_path, capsys, monkeypatch):
    closures = []
    closure_mask = lattice_module._closure_mask

    def counted(*args):
        closures.append(1)
        return closure_mask(*args)

    monkeypatch.setattr(lattice_module, "_closure_mask", counted)
    assert main(["lattice", "diag:14", "--out", str(tmp_path)]) == 3
    assert "capped at 512 elements" in capsys.readouterr().err
    assert len(closures) <= 2 * 513  # not the 2^14 = 16384 of a full enumeration


def test_cli_verify_names_each_changed_or_missing_file(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "fig9a", "--steps", "300", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert "ok, 2 files match" in capsys.readouterr().out
    series = bytearray((out / "series.csv").read_bytes())
    series[-2] ^= 1  # one byte of the last row, same length
    (out / "series.csv").write_bytes(bytes(series))
    assert main(["verify", str(out)]) == 4
    err = capsys.readouterr().err
    assert "series.csv" in err and "summary.json" not in err
    (out / "summary.json").unlink()
    assert main(["verify", str(out)]) == 4
    err = capsys.readouterr().err
    assert "series.csv" in err and "summary.json: missing" in err
    assert main(["verify", str(tmp_path / "no-run")]) == 3
    assert "manifest.json" in capsys.readouterr().err
    (out / "manifest.json").write_text("[]")
    assert main(["verify", str(out)]) == 3
    assert "no files table" in capsys.readouterr().err


def test_cli_run_accepts_lattice_scenarios(tmp_path):
    assert main(["run", "fig5-lattice", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["n_elements"] == 30



def test_failed_rewrite_leaves_no_stale_manifest(tmp_path):
    assert main(["lattice", "fig4-lattice", "--out", str(tmp_path)]) == 0
    (tmp_path / "summary.json").unlink()
    (tmp_path / "summary.json").mkdir()  # the rewrite cannot open it
    assert main(["lattice", "fig5-lattice", "--out", str(tmp_path)]) == 3
    assert (tmp_path / "laws.json").exists()
    assert not (tmp_path / "manifest.json").exists()

def test_load_series_reads_back_the_recorded_run(tmp_path):
    config = tiny_single()
    run_scenario(config, str(tmp_path))
    series, _ = run_simulation(config.sim)
    loaded = load_series(str(tmp_path))
    assert loaded.params_snapshot is None
    for name in ("t", "cluster_count", "active_count", "noise_trace"):
        assert np.array_equal(getattr(loaded, name), getattr(series, name))
    assert loaded.t.dtype == np.int64


def test_python_dash_m_runs_the_cli(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "chemlattice", "lattice", "blocks:2,2",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "manifest.json").exists()
