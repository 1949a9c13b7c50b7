"""Scenario runner and command-line interface.

A scenario bundles simulation parameters, recording resolution, and
analysis settings; running one writes a fixed set of artifacts
(series.csv, summary.json, and for relation scenarios lattice.dot and
laws.json) plus a manifest with content digests, each file streamed to
disk chunk by chunk.  A --check run then
writes check.json, every claim gate with its verdict, after the manifest
and outside its digests.  Sweeps fan a scenario out over noise values
with sub-seeds derived from the master seed, so the grid can grow
without perturbing existing cells; each cell's files are written as the
cell finishes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import operator
import os
import sys
from array import array
from dataclasses import MISSING, dataclass, field, replace
from typing import (
    Iterable, Iterator, Literal, NamedTuple, Optional, Union, get_args, get_origin,
    get_type_hints,
)

import numpy as np

from . import analysis, lattice
from .errors import CheckFailure, ConfigError
from .sim_core import (
    NoiseSchedule,
    SimParams,
    audit_consistency,
    init_state,
    noise_at,
    step,
)

__all__ = [
    "AnalysisOptions",
    "ScenarioConfig",
    "parse_config",
    "builtin_config",
    "BUILTIN_NAMES",
    "run_simulation",
    "run_scenario",
    "run_sweep",
    "load_series",
    "verify_run",
    "detect_lock_in",
    "main",
    "cli",
]

_M64 = (1 << 64) - 1

# Lock-in detection: the run must have reached a global activation, and
# over the final quarter the cluster count must stay near N while the
# population stays mostly active (the frozen high-activity regime).
LOCK_IN_TAIL_FRACTION = 0.25
LOCK_IN_CLUSTER_FLOOR = 0.9
LOCK_IN_ACTIVITY_FLOOR = 0.5


@dataclass(frozen=True)
class AnalysisOptions:
    """Post-run analysis settings.

    burn_in counts recorded samples dropped before spectral analysis;
    event detection always sees the full series.  min_amplitude of None
    means 0.8 * n_molecules.
    """

    burn_in: int = 0
    f_lo: float = 1e-3
    f_hi: float = 1e-1
    rise_window: int = 25
    fall_window: int = 25
    min_amplitude: Optional[float] = None
    psd_trace: str = "active"

    def __post_init__(self) -> None:
        if self.burn_in < 0:
            raise ConfigError(f"analysis.burn_in must be >= 0, got {self.burn_in}")
        if not 0 < self.f_lo < self.f_hi:
            raise ConfigError(
                f"analysis band needs 0 < f_lo < f_hi, got [{self.f_lo}, {self.f_hi}]"
            )
        if self.rise_window < 1 or self.fall_window < 1:
            raise ConfigError("analysis windows must be >= 1")
        if self.min_amplitude is not None and self.min_amplitude < 1:
            raise ConfigError(
                f"analysis.min_amplitude must be >= 1, got {self.min_amplitude}"
            )
        if self.psd_trace not in ("active", "cluster"):
            raise ConfigError(
                f"analysis.psd_trace must be 'active' or 'cluster', got {self.psd_trace!r}"
            )


_SIM_KINDS = ("single", "sweep", "ramp")
_KINDS = _SIM_KINDS + ("lattice",)


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario.  Every kind takes name, output_dir and analysis.
    "single" takes sim (default SimParams()) with a constant
    sim.noise_schedule, and record_every; "ramp" the same with a ramp
    schedule; "sweep" those of "single" plus sweep_values and
    seeds_per_value, each value replacing the schedule's p0 (which must
    stay 0.0); "lattice"
    takes relation_source.  A field its kind does not take must keep its
    default."""

    name: str
    kind: str
    sim: Optional[SimParams] = None
    sweep_values: Optional[tuple[float, ...]] = None
    seeds_per_value: int = 1
    relation_source: Optional[str] = None
    output_dir: Optional[str] = None
    record_every: int = 1
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        if self.seeds_per_value < 1:
            raise ConfigError(
                f"seeds_per_value must be >= 1, got {self.seeds_per_value}"
            )
        if self.kind in _SIM_KINDS:
            if self.sim is None:
                object.__setattr__(self, "sim", SimParams())
            if self.relation_source is not None:
                raise ConfigError(f"relation_source is not valid for kind {self.kind!r}")
            want = "ramp" if self.kind == "ramp" else "constant"
            if self.sim.noise_schedule.kind != want:
                raise ConfigError(f"{self.kind} scenarios need a {want} sim.noise_schedule")
        else:
            if self.relation_source is None:
                raise ConfigError("lattice scenarios require relation_source")
            if self.sim is not None:
                raise ConfigError("sim parameters are not valid for lattice scenarios")
            if self.record_every != 1:
                raise ConfigError("record_every is not valid for lattice scenarios")
        if self.kind == "sweep":
            if not self.sweep_values:
                raise ConfigError("sweep scenarios require non-empty sweep_values")
            if self.sim.noise_schedule.p0 != 0.0:
                raise ConfigError(
                    "sweep scenarios take their noise levels from sweep_values; "
                    f"sim.noise_schedule.p0 must stay 0.0, got {self.sim.noise_schedule.p0}"
                )
            vals = tuple(float(v) for v in self.sweep_values)
            for v in vals:
                if not 0.0 <= v <= 1.0:
                    raise ConfigError(f"sweep value {v} outside [0, 1]")
            object.__setattr__(self, "sweep_values", vals)
        elif self.sweep_values is not None or self.seeds_per_value != 1:
            name = "seeds_per_value" if self.sweep_values is None else "sweep_values"
            raise ConfigError(f"{name} is not valid for kind {self.kind!r}")


def _from_json(cls, obj, where: str):
    """Build dataclass ``cls`` from a JSON object.  The accepted keys are
    the dataclass fields; a float field takes any number, an int or float
    field rejects true/false, Optional[X] and Literal fields are checked
    as X and str, and a nested dataclass is parsed recursively.  A float
    field rejects NaN and infinities.  Errors carry the dotted path."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config root'} must be a JSON object")
    fields = dataclasses.fields(cls)
    hints = get_type_hints(cls)
    kwargs = {}
    for key, value in obj.items():
        path = f"{where}.{key}" if where else key
        if key not in {f.name for f in fields}:
            raise ConfigError(f"unknown key: {path}")
        kwargs[key] = _json_value(hints[key], value, path)
    for f in fields:
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in kwargs:
            raise ConfigError(f"{where or 'config'} requires a {f.name}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        if not where:
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def _json_value(hint, value, path: str):
    if get_origin(hint) is Union:
        hint = get_args(hint)[0]
    if dataclasses.is_dataclass(hint):
        return _from_json(hint, value, path)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        item = get_args(hint)[0]
        return tuple(_json_value(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if get_origin(hint) is Literal:
        hint = str
    # bool subclasses int, so JSON true/false would pass an int or float check.
    wrong_bool = isinstance(value, bool) and hint is not bool
    if wrong_bool or not isinstance(value, (int, float) if hint is float else hint):
        want = "a number" if hint is float else hint.__name__
        raise ConfigError(f"{path} must be {want}, got {type(value).__name__}")
    # A float field stores an integer as a float: 0 and 0.0 write one summary.json.
    if hint is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path} is too large for a float") from None
    # json.load accepts NaN and Infinity, which no float setting can use.
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value}")
    return value


def config_from_dict(obj: dict, default_name: str = "custom") -> ScenarioConfig:
    """Strict ScenarioConfig construction from plain JSON data."""
    if isinstance(obj, dict):
        obj = {"name": default_name, **obj}
    return _from_json(ScenarioConfig, obj, "")


def parse_config(path: str) -> ScenarioConfig:
    """Load a scenario from a UTF-8 JSON file; unknown keys are rejected
    with their dotted path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    stem = os.path.splitext(os.path.basename(path))[0]
    return config_from_dict(data, default_name=stem)


_SPIKE_REGIME = dict(
    theta_a=0.3,
    p_coh=0.95,
    interplay_enabled=True,
    pooled_modal_ratio=True,
)

_BUILTINS = {
    "fig9a": ScenarioConfig(
        name="fig9a",
        kind="single",
        sim=SimParams(noise_schedule=NoiseSchedule(p0=0.0), max_steps=100_000, seed=11),
    ),
    "fig9b": ScenarioConfig(
        name="fig9b",
        kind="single",
        sim=SimParams(noise_schedule=NoiseSchedule(p0=0.05), max_steps=66_536, seed=11),
        analysis=AnalysisOptions(burn_in=1000),
    ),
    "fig9c": ScenarioConfig(
        name="fig9c",
        kind="single",
        sim=SimParams(
            noise_schedule=NoiseSchedule(p0=0.05), max_steps=100_000, seed=11, **_SPIKE_REGIME
        ),
    ),
    "fig11": ScenarioConfig(
        name="fig11",
        kind="sweep",
        sim=SimParams(max_steps=60_000, seed=11, **_SPIKE_REGIME),
        sweep_values=(0.0, 1e-6, 5e-4, 5e-3, 7.5e-3, 5e-2),
        seeds_per_value=5,
    ),
    "fig12": ScenarioConfig(
        name="fig12",
        kind="ramp",
        sim=SimParams(
            noise_schedule=NoiseSchedule(kind="ramp", p0=0.0, rate=2.5e-6, onset_step=10_000),
            max_steps=40_000, seed=11, **_SPIKE_REGIME,
        ),
    ),
    "fig5-lattice": ScenarioConfig(
        name="fig5-lattice", kind="lattice", relation_source="blocks:4,4"
    ),
    "fig4-lattice": ScenarioConfig(
        name="fig4-lattice", kind="lattice", relation_source="blocks:3,3,2:overlap=3"
    ),
}
_BUILTINS["fig10"] = replace(_BUILTINS["fig9b"], name="fig10")

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_config(name: str) -> ScenarioConfig:
    if name not in _BUILTINS:
        raise ConfigError(
            f"unknown builtin scenario {name!r}; known: {', '.join(BUILTIN_NAMES)}"
        )
    return _BUILTINS[name]


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def sub_run_seed(master_seed: int, value_index: int, replicate: int = 0) -> int:
    """Stable per-cell seed: mixing is keyed by grid position, so adding
    values or replicates never changes existing sub-runs."""
    h = _splitmix64(master_seed ^ (value_index * 0xA24BAED4963EE407 & _M64))
    return _splitmix64(h ^ (replicate * 0x9FB21C651E98DF25 & _M64))


def run_simulation(params: SimParams, record_every: int = 1) -> tuple:
    """Run params.max_steps steps, recording every record_every-th state
    (plus the initial one).  Returns (RunSeries, final SimState); the
    final state must pass audit_consistency.

    The counts are appended to typed 8-byte buffers, which the series
    wraps as int64 arrays without a copy.  A constant schedule's noise
    trace is p0 broadcast, read-only, over the recorded axis; a ramp's
    is a full array."""
    if record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {record_every}")
    steps = params.max_steps
    state = init_state(params)
    cc = array("q", [len(state.c0)])
    ac = array("q", [state.flags.bit_count()])
    for t in range(1, steps + 1):
        step(state, params)
        if not t % record_every:
            cc.append(len(state.c0))
            ac.append(state.flags.bit_count())
    violations = audit_consistency(state)
    if violations:
        raise RuntimeError(
            "state audit failed after run: " + "; ".join(violations[:3])
        )
    tt = np.arange(0, steps + 1, record_every, dtype=np.int64)
    schedule = params.noise_schedule
    if schedule.kind == "constant":
        noise = np.broadcast_to(schedule.p0, len(tt))
    else:
        noise = np.array([noise_at(schedule, t) for t in tt.tolist()])
    series = analysis.RunSeries(
        t=tt,
        cluster_count=np.frombuffer(cc, dtype=np.int64),
        active_count=np.frombuffer(ac, dtype=np.int64),
        params_snapshot=params,
        noise_trace=noise,
    )
    return series, state


def detect_lock_in(series: analysis.RunSeries) -> bool:
    """The frozen high-activity regime: a global activation happened, and
    through the final quarter the cluster count never leaves the top 10%
    of its range while the population stays mostly active."""
    n = len(series.t)
    if n < 8 or series.params_snapshot is None:
        return False
    n_mol = series.params_snapshot.n_molecules
    activated = bool(np.any(series.cluster_count == 1))
    tail = slice(int(n * (1 - LOCK_IN_TAIL_FRACTION)), n)
    cluster_high = bool(
        series.cluster_count[tail].min() >= LOCK_IN_CLUSTER_FLOOR * n_mol
    )
    active_high = bool(
        series.active_count[tail].mean() >= LOCK_IN_ACTIVITY_FLOOR * n_mol
    )
    return activated and cluster_high and active_high


# Rows of series.csv formatted per chunk: long enough that the per-chunk
# numpy calls vanish, short enough that the chunk's lists stay small.
CSV_CHUNK_ROWS = 2048


def _series_csv(series: analysis.RunSeries) -> Iterator[str]:
    """The series.csv text, yielded as a header and then one chunk of
    CSV_CHUNK_ROWS rows at a time: ``t,cluster_count,active_count,
    noise_p`` per recorded sample, the counts as integers and the noise
    as its float repr.  Each chunk is one ``%`` format of a repeated row
    template over the chunk's interleaved ``tolist()`` cells (``%s``
    gives the f-string's text for any value), so no string is built per
    row and neither the transient lists nor the text outgrow one chunk.
    A chunk whose noise bits are all equal has the noise repr written
    into its template and interleaves three columns."""
    # A schedule built in Python may hold an integer p0, whose trace is
    # an integer array; the file still writes it as a float.
    noise = series.noise_trace.astype(np.float64, copy=False)
    # Bits, not values: 0.0 == -0.0, but their reprs differ.
    bits = noise.view(np.int64)
    columns = (series.t, series.cluster_count, series.active_count, noise)
    yield "t,cluster_count,active_count,noise_p\n"
    for lo in range(0, len(series.t), CSV_CHUNK_ROWS):
        hi = lo + CSV_CHUNK_ROWS
        chunk = bits[lo:hi]
        width = 3 if (chunk == chunk[0]).all() else 4
        cells = [None] * (width * len(chunk))
        for j, col in enumerate(columns[:width]):
            cells[j::width] = col[lo:hi].tolist()
        row = "%s,%s,%s,%s\n" if width == 4 else f"%s,%s,%s,{float(noise[lo])!r}\n"
        yield row * len(chunk) % tuple(cells)


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _detect(config: ScenarioConfig, series: analysis.RunSeries) -> list:
    """The run's wave events under the scenario's analysis options."""
    opts = config.analysis
    min_amp = opts.min_amplitude
    if min_amp is None:
        min_amp = 0.8 * config.sim.n_molecules
    return analysis.detect_events(series, opts.rise_window, opts.fall_window, min_amp)


def _run_artifacts(config: ScenarioConfig, params: SimParams) -> tuple:
    """Simulate and analyze one run; returns (series.csv chunks, summary).
    The chunks are a generator that holds the run's series until it is
    written out."""
    series, _ = run_simulation(params, config.record_every)
    opts = config.analysis
    events = _detect(config, series)
    trace = series.active_count if opts.psd_trace == "active" else series.cluster_count
    trace = np.asarray(trace, dtype=np.float64)[opts.burn_in :]
    spectrum = analysis.psd(trace) if len(trace) >= analysis.PSD_MIN_SAMPLES else None
    summary = analysis.summarize(series, events, spectrum, (opts.f_lo, opts.f_hi))
    summary["lock_in"] = detect_lock_in(series)
    summary["n_recorded"] = len(series.t)
    summary["name"] = config.name
    summary["kind"] = "ramp" if params.noise_schedule.kind == "ramp" else "single"
    summary["record_every"] = config.record_every
    return _series_csv(series), summary


def _write_artifacts(config: ScenarioConfig, out_dir: str, files: Iterable) -> dict:
    """Write each ``(relative path, content)`` pair of ``files`` as it
    comes, then manifest.json with their digests; returns the manifest.
    A content is a str or an iterable of str chunks; each chunk is
    encoded, hashed and written before the next is drawn, so no whole
    file need exist in memory, and ``files`` may itself be a generator
    that does the work behind each file.  The old manifest.json and
    check.json are removed first, so a run that fails midway leaves no
    manifest behind.  Old files are removed, not truncated: truncating
    unflushed data can wait for the flush."""
    os.makedirs(out_dir, exist_ok=True)
    for stale in ("manifest.json", "check.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, stale))
    manifest_files = {}
    for rel_path, content in files:
        full = os.path.join(out_dir, rel_path)
        os.makedirs(os.path.dirname(full) or out_dir, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(full)
        digest, size = hashlib.sha256(), 0
        with open(full, "wb") as fh:
            for chunk in (content,) if isinstance(content, str) else content:
                payload = chunk.encode("utf-8")
                digest.update(payload)
                size += len(payload)
                fh.write(payload)
                # Not held while the next chunk is made.
                del chunk, payload
        manifest_files[rel_path] = {"sha256": digest.hexdigest(), "bytes": size}
    manifest = {
        "scenario": config.name,
        "kind": config.kind,
        "output_dir": out_dir,
        "files": manifest_files,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(_json_text(manifest))
    return manifest


def run_scenario(config: ScenarioConfig, out_dir: Optional[str] = None) -> dict:
    """Execute one scenario and write its artifacts; returns the manifest."""
    if config.kind == "sweep":
        return run_sweep(config, out_dir)
    out_dir = out_dir or config.output_dir or os.path.join("runs", config.name)
    if config.kind == "lattice":
        return _run_lattice(config, out_dir)
    csv_chunks, summary = _run_artifacts(config, config.sim)
    files = [("series.csv", csv_chunks), ("summary.json", _json_text(summary))]
    return _write_artifacts(config, out_dir, files)


def relation_from_source(source: str) -> lattice.Relation:
    """A relation from a generator spec (diag:N or
    blocks:s1,s2,...[:overlap=o1,...][:nofill]) or from a text file."""
    head = source.split(":", 1)[0]
    if head == "diag":
        body = source[len("diag:"):]
        try:
            n = int(body)
        except ValueError:
            raise ConfigError(f"diag spec needs an integer size, got {source!r}") from None
        if n < 1:
            raise ConfigError(f"diag size must be >= 1, got {n}")
        return lattice.Relation(cells=np.eye(n, dtype=bool))
    if head == "blocks":
        parts = source.split(":")[1:]
        if not parts or not parts[0]:
            raise ConfigError(f"blocks spec needs sizes, got {source!r}")
        try:
            sizes = tuple(int(s) for s in parts[0].split(","))
        except ValueError:
            raise ConfigError(f"bad block sizes in {source!r}") from None
        overlap: tuple = ()
        fill = True
        for extra in parts[1:]:
            if extra == "nofill":
                fill = False
            elif extra.startswith("overlap="):
                try:
                    overlap = tuple(int(s) for s in extra[len("overlap="):].split(","))
                except ValueError:
                    raise ConfigError(f"bad overlap list in {source!r}") from None
            else:
                raise ConfigError(f"unknown blocks option {extra!r} in {source!r}")
        return lattice.build_two_block_relation(sizes, overlap, fill_off_blocks=fill)
    if any(source.startswith(p) for p in ("diag", "blocks")) and ":" in source:
        raise ConfigError(f"unrecognized generator spec {source!r}")
    return lattice.relation_from_file(source)


def _run_lattice(config: ScenarioConfig, out_dir: str) -> dict:
    rel = relation_from_source(config.relation_source)
    lat = lattice.enumerate_lattice(rel, max_elements=lattice.LAW_MAX_ELEMENTS)
    report = lattice.analyze_laws(lat)
    laws = lattice.law_report_json(report)
    summary = {
        "name": config.name,
        "kind": config.kind,
        "relation": {
            "source": config.relation_source,
            "n_rows": rel.n_rows,
            "n_cols": rel.n_cols,
        },
        "n_elements": len(lat),
        "n_hasse_edges": len(lattice.hasse_cover(lat)),
        "distributive": report.distributive,
        "orthomodular": report.orthomodular,
        "n_blocks": len(report.boolean_blocks),
        "shared_elements": laws["shared"],
    }
    files = [
        ("lattice.dot", lattice.lattice_to_dot(lat)),
        ("laws.json", _json_text(laws)),
        ("summary.json", _json_text(summary)),
    ]
    return _write_artifacts(config, out_dir, files)


def run_sweep(config: ScenarioConfig, out_dir: Optional[str] = None) -> dict:
    """One sub-run per (noise value, replicate); writes each sub-run's
    artifacts as it finishes, then grid.json with per-value event
    aggregates, then the manifest."""
    if config.kind != "sweep":
        raise ConfigError(f"run_sweep needs a sweep scenario, got kind {config.kind!r}")
    out_dir = out_dir or config.output_dir or os.path.join("runs", config.name)
    return _write_artifacts(config, out_dir, _sweep_files(config))


def _sweep_files(config: ScenarioConfig) -> Iterator[tuple]:
    """Run the sweep's cells in grid order, yielding each cell's two
    files as soon as it finishes (so only one cell's series is held at a
    time), then grid.json."""
    master = config.sim.seed
    grid_rows = []
    for vi, p_noise in enumerate(config.sweep_values):
        counts = {"spike_up": 0, "spike_down": 0, "sawtooth": 0}
        lock_ins = 0
        sub_runs = []
        for rep in range(config.seeds_per_value):
            seed = sub_run_seed(master, vi, rep)
            params = replace(
                config.sim,
                noise_schedule=NoiseSchedule(kind="constant", p0=p_noise),
                seed=seed,
            )
            csv_chunks, summary = _run_artifacts(config, params)
            rel_dir = os.path.join(f"value_{vi}", f"seed_{rep}")
            yield os.path.join(rel_dir, "series.csv"), csv_chunks
            yield os.path.join(rel_dir, "summary.json"), _json_text(summary)
            for kind in counts:
                counts[kind] += summary["events"][kind]
            lock_ins += bool(summary["lock_in"])
            sub_runs.append({"seed": seed, "path": rel_dir.replace(os.sep, "/")})
        total = sum(counts.values())
        spikes = counts["spike_up"] + counts["spike_down"]
        grid_rows.append(
            {
                "noise_p": p_noise,
                "n_runs": config.seeds_per_value,
                **counts,
                "total_events": total,
                "spike_fraction": (spikes / total) if total else 0.0,
                "sawtooth_fraction": (counts["sawtooth"] / total) if total else 0.0,
                "lock_in_runs": lock_ins,
                "lock_in_fraction": lock_ins / config.seeds_per_value,
                "sub_runs": sub_runs,
            }
        )
    grid = {
        "scenario": config.name,
        "master_seed": master,
        "seeds_per_value": config.seeds_per_value,
        "steps": config.sim.max_steps,
        "values": grid_rows,
    }
    yield "grid.json", _json_text(grid)


def load_series(run_dir: str) -> analysis.RunSeries:
    """The trajectory recorded in a run directory's series.csv.  The
    file holds no parameters, so params_snapshot is None."""
    data = np.loadtxt(
        os.path.join(run_dir, "series.csv"), delimiter=",", skiprows=1, ndmin=2
    )
    t, cc, ac = (data[:, i].astype(np.int64) for i in range(3))
    return analysis.RunSeries(
        t=t, cluster_count=cc, active_count=ac, params_snapshot=None,
        noise_trace=data[:, 3],
    )


def _load_artifact(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


_OPS = {
    "==": operator.eq, "<": operator.lt, ">": operator.gt, ">=": operator.ge, "<=": operator.le,
}


class Gate(NamedTuple):
    """One claim as data: ``value op bound``.  A gate missing its value
    or its bound fails."""

    name: str
    value: object
    op: str
    bound: object

    @property
    def ok(self) -> bool:
        missing = self.value is None or self.bound is None
        return not missing and bool(_OPS[self.op](self.value, self.bound))


def _check_fig9a(config: ScenarioConfig, out_dir: str) -> list:
    series = load_series(out_dir)
    cc, ac = series.cluster_count, series.active_count
    n = cc.max()  # N: every run starts from N >= 2 singletons
    extremes = cc[(cc == 1) | (cc == n)]
    return [
        Gate("samples with activity outside {0, N}",
             int(np.count_nonzero((ac != 0) & (ac != n))), "==", 0),
        Gate("repeated cluster-count extremes",
             int(np.count_nonzero(extremes[1:] == extremes[:-1])), "==", 0),
        Gate("wave events", _load_artifact(out_dir, "summary.json")["events"]["total"],
             "==", 0),
    ]


def _check_slope(config: ScenarioConfig, out_dir: str) -> list:
    block = _load_artifact(out_dir, "summary.json").get("psd")
    slope = block["slope"] if block else None
    return [Gate("psd slope", slope, ">=", -1.35), Gate("psd slope", slope, "<=", -0.65)]


def _check_fig9c(config: ScenarioConfig, out_dir: str) -> list:
    events = _load_artifact(out_dir, "summary.json")["events"]
    return [Gate(kind, events[kind], ">=", 10) for kind in ("spike_up", "spike_down")]


def _check_fig11(config: ScenarioConfig, out_dir: str) -> list:
    rows = {row["noise_p"]: row for row in _load_artifact(out_dir, "grid.json")["values"]}

    def at(p, *keys):
        return sum(rows[p][k] for k in keys) if p in rows else None

    spikes = ("spike_up", "spike_down")
    half = at(1e-6, "n_runs")
    return [
        Gate("events at 0", at(0.0, "total_events"), "==", 0),
        Gate("lock-in runs at 1e-6 vs half the runs", at(1e-6, "lock_in_runs"), ">",
             None if half is None else half / 2),
        Gate("sawtooth at 5e-3 vs spikes", at(5e-3, "sawtooth"), ">", at(5e-3, *spikes)),
        Gate("spikes at 5e-2 vs sawtooth", at(5e-2, *spikes), ">", at(5e-2, "sawtooth")),
    ]


def _check_fig12(config: ScenarioConfig, out_dir: str) -> list:
    params = config.sim
    events = _detect(config, load_series(out_dir))
    saw = [e.t_peak for e in events if e.kind == "sawtooth"]
    spike = [e.t_peak for e in events if e.kind.startswith("spike")]
    tail = [e.kind for e in events if e.t_peak >= 0.75 * params.max_steps]
    tail_spikes = sum(kind.startswith("spike") for kind in tail)
    onset = params.noise_schedule.onset_step
    return [
        Gate("events before onset", sum(e.t_peak < onset for e in events), "==", 0),
        Gate("sawtooth events", len(saw), ">", 0),
        Gate("spike events", len(spike), ">", 0),
        Gate("first sawtooth t vs first spike", saw[0] if saw else None, "<",
             spike[0] if spike else None),
        Gate("final-quarter spikes", tail_spikes, ">", 0),
        Gate("final-quarter spikes vs sawtooth", tail_spikes, ">", len(tail) - tail_spikes),
    ]


def _lattice_checker(elements: int, shared: list, laws: dict, closures=()):
    """Gates on the element count, the shared elements, laws.json flags
    (``witness`` reads whether a distributivity witness is present) and
    closures in the scenario's relation."""

    def check(config: ScenarioConfig, out_dir: str) -> list:
        found = _load_artifact(out_dir, "laws.json")
        gates = [
            Gate("elements", _load_artifact(out_dir, "summary.json")["n_elements"],
                 "==", elements),
            Gate("shared elements", found["shared"], "==", shared),
        ]
        gates += [Gate(key, bool(found[key]), "==", want) for key, want in laws.items()]
        rel = relation_from_source(config.relation_source)
        fmt = lattice.format_subset
        gates += [
            Gate(f"closure {fmt(x)}", fmt(lattice.closure(rel, x)), "==", fmt(want))
            for x, want in closures
        ]
        return gates

    return check


_CHECKS = {
    "fig9a": _check_fig9a,
    "fig9b": _check_slope,
    "fig9c": _check_fig9c,
    "fig10": _check_slope,
    "fig11": _check_fig11,
    "fig12": _check_fig12,
    "fig5-lattice": _lattice_checker(
        30, ["{}", "{A1,A2,A3,A4,A5,A6,A7,A8}"],
        {"distributive": False, "witness": True, "orthomodular": True},
    ),
    "fig4-lattice": _lattice_checker(
        14, ["{}", "{A3}", "{A1,A2,A4,A5}", "{A1,A2,A3,A4,A5,A6,A7}"], {},
        closures=[({0}, {0}), ({2}, {2}), ({0, 1}, {0, 1, 3, 4}), ({0, 5}, set(range(7)))],
    ),
}


def run_checks(config: ScenarioConfig, out_dir: str) -> None:
    """Evaluate the scenario's claim gates, print each failing one, and
    write check.json (outside the manifest); raises CheckFailure when a
    gate fails."""
    checker = _CHECKS.get(config.name)
    if checker is None:
        print(f"check {config.name}: no scenario-specific checks defined")
        return
    gates = checker(config, out_dir)
    failures = [f"{g.name} = {json.dumps(g.value)}, need {g.op} {json.dumps(g.bound)}"
                for g in gates if not g.ok]
    record = {"scenario": config.name, "passed": not failures,
              "gates": [{**g._asdict(), "ok": g.ok} for g in gates]}
    with open(os.path.join(out_dir, "check.json"), "w", encoding="utf-8") as fh:
        fh.write(_json_text(record))
    for f in failures:
        print(f"check {config.name}: FAIL {f}")
    if failures:
        raise CheckFailure(failures)
    print(f"check {config.name}: ok")


def verify_run(out_dir: str) -> None:
    """Re-read every file manifest.json lists and compare its sha256 and
    byte count.  Raises CheckFailure naming each mismatched or missing
    file, OSError when there is no manifest and ValueError when it is
    not a manifest."""
    path = os.path.join(out_dir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    listed = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(listed, dict):
        raise ValueError(f"{path} has no files table")
    failures = []
    for rel_path, want in sorted(listed.items()):
        try:
            with open(os.path.join(out_dir, rel_path), "rb") as fh:
                payload = fh.read()
        except FileNotFoundError:
            failures.append(f"{rel_path}: missing")
            continue
        got = {"bytes": len(payload), "sha256": hashlib.sha256(payload).hexdigest()}
        if got != want:
            failures.append(f"{rel_path}: read {json.dumps(got)}, manifest {json.dumps(want)}")
    for f in failures:
        print(f"verify {out_dir}: FAIL {f}")
    if failures:
        raise CheckFailure(failures)
    print(f"verify {out_dir}: ok, {len(listed)} files match manifest.json")


# Scenario kinds each subcommand accepts.
_COMMAND_KINDS = {
    "run": ("single", "ramp", "lattice"),
    "sweep": ("sweep",),
    "lattice": ("lattice",),
}


def _resolve_config(command: str, ref: str) -> ScenarioConfig:
    """The scenario a subcommand names: a builtin or a JSON config file,
    and for the lattice command also a relation file or generator spec."""
    if ref in _BUILTINS:
        config = _BUILTINS[ref]
    elif os.path.exists(ref) and (command != "lattice" or ref.endswith(".json")):
        config = parse_config(ref)
    elif command == "lattice":
        name = os.path.splitext(os.path.basename(ref))[0] or "lattice"
        config = ScenarioConfig(
            name=name.replace(":", "-").replace(",", "-").replace("=", "-"),
            kind="lattice",
            relation_source=ref,
        )
    else:
        raise ConfigError(f"{ref!r} is neither a builtin scenario nor a config file")
    kinds = _COMMAND_KINDS[command]
    if config.kind not in kinds:
        raise ConfigError(
            f"scenario {config.name!r} has kind {config.kind!r}; "
            f"the {command} command takes {' or '.join(kinds)} scenarios"
        )
    return config


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    updates = {}
    if args.out is not None:
        updates["output_dir"] = args.out
    if getattr(args, "record_every", None) is not None:
        updates["record_every"] = args.record_every
    sim = {}
    if getattr(args, "seed", None) is not None:
        sim["seed"] = args.seed
    if getattr(args, "steps", None) is not None:
        sim["max_steps"] = args.steps
    if sim and config.sim is None:
        raise ConfigError("--seed/--steps do not apply to lattice scenarios")
    if sim:
        updates["sim"] = replace(config.sim, **sim)
    return replace(config, **updates) if updates else config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemlattice",
        description=(
            "Cluster-chemistry simulator with rough-set lattice analysis. "
            "Scenarios are builtin names or JSON config files; defaults: "
            "record_every=1, seed from the scenario, N=200, "
            "theta_c=theta_dec=0.5, theta_a=0.3, p_coh=0.95."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_sim=True):
        p.add_argument("--out", help="output directory (default runs/<name>)")
        p.add_argument(
            "--check",
            action="store_true",
            help="validate scenario-specific claims; exit 4 on failure",
        )
        if with_sim:
            p.add_argument("--seed", type=int, help="override the master seed")
            p.add_argument("--steps", type=int, help="override the step budget")
            p.add_argument(
                "--record-every",
                type=int,
                dest="record_every",
                help="record every k-th step (default 1)",
            )

    p_run = sub.add_parser("run", help="run a single or ramp scenario")
    p_run.add_argument("scenario", help=f"builtin ({', '.join(BUILTIN_NAMES)}) or config path")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a noise sweep")
    p_sweep.add_argument("scenario", help="builtin sweep (fig11) or config path")
    common(p_sweep)

    p_lat = sub.add_parser("lattice", help="analyze a relation's fixed-point lattice")
    p_lat.add_argument(
        "scenario",
        metavar="relation",
        help="builtin (fig5-lattice, fig4-lattice), relation file, or "
        "generator spec like diag:3 or blocks:3,3,2:overlap=3",
    )
    common(p_lat, with_sim=False)

    p_verify = sub.add_parser(
        "verify", help="recheck a run directory against its manifest; exit 4 on a mismatch"
    )
    p_verify.add_argument("run_dir", help="directory holding manifest.json")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            verify_run(args.run_dir)
            return 0
        config = _apply_overrides(_resolve_config(args.command, args.scenario), args)
        manifest = run_scenario(config)
        out_dir = manifest["output_dir"]
        for rel_path in sorted(manifest["files"]):
            print(f"wrote {os.path.join(out_dir, rel_path)}")
        print(f"wrote {os.path.join(out_dir, 'manifest.json')}")
        if args.check:
            run_checks(config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {'; '.join(str(f) for f in exc.failures)}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


def cli() -> None:
    raise SystemExit(main())
