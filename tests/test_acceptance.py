"""Acceptance gate: the eight headline claims, one test per criterion.

Every test prints a `CRITERION n: PASS/FAIL` line (conftest replays
them in the terminal summary) and then asserts, so a red criterion is
both visible and failing.  Tolerances are pinned here, not imported.
"""

import hashlib
import json
import time

import numpy as np

import conftest
from chemlattice import analysis, lattice
from chemlattice.harness import builtin_config, run_scenario, run_simulation, run_sweep
from chemlattice.sim_core import (
    NoiseSchedule,
    SimParams,
    audit_consistency,
    init_state,
    step,
)

N = 200
SLOPE_BAND = (-1.35, -0.65)
SPIKE_AMPLITUDE = 0.8 * N


def _emit(n, ok, detail=""):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    conftest.CRITERION_LINES.append(line)


def _criterion(n, body):
    failures, details = [], []
    try:
        body(failures, details)
    except Exception as exc:
        _emit(n, False, f"unexpected error: {exc}")
        raise
    _emit(n, not failures, "; ".join(failures or details))
    assert not failures, f"criterion {n}: " + "; ".join(failures)


def spike_params(p_noise, steps, seed):
    return SimParams(
        noise_schedule=NoiseSchedule(kind="constant", p0=p_noise),
        theta_a=0.3,
        p_coh=0.95,
        interplay_enabled=True,
        pooled_modal_ratio=True,
        max_steps=steps,
        seed=seed,
    )


def test_criterion_1_noise_free_oscillation():
    def body(failures, details):
        t0 = time.perf_counter()
        params = SimParams(
            noise_schedule=NoiseSchedule(kind="constant", p0=0.0),
            max_steps=100_000,
            seed=11,
        )
        series, _ = run_simulation(params)
        elapsed = time.perf_counter() - t0

        cc = series.cluster_count
        ac = series.active_count
        if not np.all((ac == 0) | (ac == N)):
            failures.append("activity left {0, 200}")
        # walk the trace: fragmentation phase (activity 200) runs from a
        # visit to 1 until the next visit to 200, aggregation (activity 0)
        # the other way around
        phase_frag = False
        marks = []
        for c, a in zip(cc, ac):
            if c == 1:
                if marks and marks[-1] == 1:
                    failures.append("revisited 1 before reaching 200")
                    break
                marks.append(1)
                phase_frag = True
            elif c == N:
                if marks and marks[-1] == N:
                    failures.append("revisited 200 before reaching 1")
                    break
                marks.append(N)
                phase_frag = False
            want = N if phase_frag else 0
            if a != want:
                failures.append(f"activity {a} during phase expecting {want}")
                break
        cycles = marks.count(1)
        if cycles < 10:
            failures.append(f"only {cycles} full visits to 1")
        if elapsed >= 5.0:
            failures.append(f"runtime {elapsed:.2f}s >= 5s")
        details.append(f"{cycles} cycles, pure phases, {elapsed:.2f}s")

    _criterion(1, body)


def test_criterion_2_one_over_f_spectrum():
    def body(failures, details):
        t0 = time.perf_counter()
        slopes = []
        for seed in range(1, 6):
            params = SimParams(
                noise_schedule=NoiseSchedule(kind="constant", p0=0.05),
                max_steps=66_536,
                seed=seed,
            )
            series, _ = run_simulation(params)
            trace = series.active_count.astype(float)[1000:66_536]  # 2^16 samples
            spectrum = analysis.psd(trace)
            slope, _ = analysis.fit_loglog_slope(spectrum, 1e-3, 1e-1)
            slopes.append(slope)
        elapsed = time.perf_counter() - t0
        mean = float(np.mean(slopes))
        if not SLOPE_BAND[0] <= mean <= SLOPE_BAND[1]:
            failures.append(f"mean slope {mean:.3f} outside {SLOPE_BAND}")
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.1f}s >= 60s")
        details.append(
            f"mean slope {mean:.3f} over 5 seeds "
            f"(per-seed {', '.join(f'{s:.2f}' for s in slopes)}), {elapsed:.1f}s"
        )

    _criterion(2, body)


def test_criterion_3_spikes_in_both_directions():
    def body(failures, details):
        t0 = time.perf_counter()
        series, _ = run_simulation(spike_params(0.05, 100_000, 11))
        events = analysis.detect_events(series, 25, 25, SPIKE_AMPLITUDE)
        elapsed = time.perf_counter() - t0
        up = [e for e in events if e.kind == "spike_up"]
        down = [e for e in events if e.kind == "spike_down"]
        if len(up) < 10:
            failures.append(f"{len(up)} upward spikes < 10")
        if len(down) < 10:
            failures.append(f"{len(down)} downward spikes < 10")
        small = [e for e in up + down if e.amplitude < SPIKE_AMPLITUDE]
        if small:
            failures.append(f"{len(small)} spikes below 0.8N")
        if elapsed >= 10.0:
            failures.append(f"runtime {elapsed:.2f}s >= 10s")
        details.append(f"{len(up)} up, {len(down)} down, {elapsed:.2f}s")

    _criterion(3, body)


def test_criterion_4_noise_sweep_regimes(tmp_path):
    def body(failures, details):
        config = builtin_config("fig11")
        run_sweep(config, str(tmp_path / "fig11"))
        grid = json.loads((tmp_path / "fig11" / "grid.json").read_text())
        rows = {row["noise_p"]: row for row in grid["values"]}

        zero = rows[0.0]
        if zero["total_events"] != 0:
            failures.append(f"{zero['total_events']} events at zero noise")

        # 4(b) read qualitatively, per the criterion's own preamble: the
        # run freezes in the aggregated high-activity regime
        lock = rows[1e-6]
        if not lock["lock_in_runs"] * 2 > lock["n_runs"]:
            failures.append(
                f"lock-in in {lock['lock_in_runs']}/{lock['n_runs']} runs at 1e-6"
            )

        saw_row = rows[5e-3]
        saw_spikes = saw_row["spike_up"] + saw_row["spike_down"]
        if not saw_row["sawtooth"] > saw_spikes:
            failures.append(
                f"at 5e-3: sawtooth {saw_row['sawtooth']} !> spikes {saw_spikes}"
            )

        spike_row = rows[5e-2]
        spikes = spike_row["spike_up"] + spike_row["spike_down"]
        if not spikes > spike_row["sawtooth"]:
            failures.append(
                f"at 5e-2: spikes {spikes} !> sawtooth {spike_row['sawtooth']}"
            )
        details.append(
            f"0 events at p=0; lock-in {lock['lock_in_runs']}/{lock['n_runs']}; "
            f"5e-3 saw {saw_row['sawtooth']} vs spikes {saw_spikes}; "
            f"5e-2 spikes {spikes} vs saw {spike_row['sawtooth']}"
        )

    _criterion(4, lambda f, d: body(f, d))


def test_criterion_5_ramp_transition():
    def body(failures, details):
        config = builtin_config("fig12")
        params = config.sim
        series, _ = run_simulation(params)
        events = analysis.detect_events(series, 25, 25, SPIKE_AMPLITUDE)
        onset = config.sim.noise_schedule.onset_step
        steps = params.max_steps

        early = [e for e in events if e.t_peak < onset]
        if early:
            failures.append(f"{len(early)} events inside the noise-free segment")
        saw = [e.t_peak for e in events if e.kind == "sawtooth"]
        spike = [e.t_peak for e in events if e.kind.startswith("spike")]
        if not saw:
            failures.append("no sawtooth phase")
        if not spike:
            failures.append("no spike phase")
        if saw and spike and not saw[0] < spike[0]:
            failures.append(f"first sawtooth {saw[0]} not before first spike {spike[0]}")
        tail_spikes = sum(1 for t in spike if t >= 0.75 * steps)
        tail_saw = sum(1 for t in saw if t >= 0.75 * steps)
        if not (tail_spikes > 0 and tail_spikes > tail_saw):
            failures.append(
                f"final quarter: {tail_spikes} spikes vs {tail_saw} sawtooth"
            )
        if not failures:
            details.append(
                f"first sawtooth t={saw[0]}, first spike t={spike[0]}, "
                f"tail {tail_spikes} spikes vs {tail_saw} sawtooth"
            )

    _criterion(5, body)


def slow_fixed_points(rel):
    cells = rel.cells.tolist()
    n, m = len(cells), len(cells[0])

    def clo(x):
        cols = {j for i in x for j in range(m) if cells[i][j]}
        return frozenset(
            i for i in range(n) if all(j in cols for j in range(m) if cells[i][j])
        )

    return {
        x
        for mask in range(1 << n)
        for x in [frozenset(i for i in range(n) if mask >> i & 1)]
        if clo(x) == x
    }


def test_criterion_6_lattice_ground_truth():
    def body(failures, details):
        diag = lattice.enumerate_lattice(lattice.Relation(np.eye(3, dtype=bool)))
        if len(diag) != 8:
            failures.append(f"diagonal 3x3 gave {len(diag)} elements, want 8")

        rel = lattice.build_two_block_relation([4, 4])
        lat = lattice.enumerate_lattice(rel)
        t0 = time.perf_counter()
        brute = slow_fixed_points(rel)
        brute_time = time.perf_counter() - t0
        if len(lat) != 30:
            failures.append(f"two-block lattice has {len(lat)} elements, want 30")
        if set(lat.elements) != brute:
            failures.append("enumeration disagrees with the brute-force scan")
        if brute_time >= 1.0:
            failures.append(f"brute-force scan took {brute_time:.2f}s >= 1s")
        report = lattice.analyze_laws(lat)
        if report.shared_elements != [frozenset(), frozenset(range(8))]:
            failures.append("shared elements are not exactly bottom and top")
        if report.distributive or report.distributive_witness is None:
            failures.append("no non-distributivity witness")
        if not report.orthomodular:
            failures.append("two-block lattice not orthomodular")

        fig4 = lattice.build_two_block_relation((3, 3, 2), (3,))
        worked = [
            ({0}, frozenset({0})),
            ({2}, frozenset({2})),
            ({0, 1}, frozenset({0, 1, 3, 4})),
            ({0, 5}, frozenset(range(7))),
        ]
        for x, want in worked:
            got = lattice.closure(fig4, x)
            if got != want:
                failures.append(
                    f"closure({lattice.format_subset(x)}) = "
                    f"{lattice.format_subset(got)}"
                )
        shared4 = lattice.analyze_laws(lattice.enumerate_lattice(fig4)).shared_elements
        want4 = [frozenset(), frozenset({2}), frozenset({0, 1, 3, 4}), frozenset(range(7))]
        if shared4 != want4:
            failures.append("overlapped-block shared set mismatch")
        details.append(
            f"8 / 30 (brute-force match, {brute_time * 1e3:.0f}ms) / "
            "worked closures and shared sets verbatim"
        )

    _criterion(6, body)


def test_criterion_7_byte_identical_reruns(tmp_path):
    def body(failures, details):
        config = builtin_config("fig9a")
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run_scenario(config, str(out))
            digests.append(
                tuple(
                    hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("series.csv", "summary.json")
                )
            )
        if digests[0] != digests[1]:
            failures.append("series.csv or summary.json differ between reruns")
        details.append(f"sha256 {digests[0][0][:12]}.. identical twice")

    _criterion(7, lambda f, d: body(f, d))


def test_criterion_8_invariant_suite():
    def body(failures, details):
        rng = np.random.default_rng(2026)
        violations = 0
        steps_done = 0
        while steps_done < 10_000:
            params = SimParams(
                n_molecules=int(rng.integers(2, 201)),
                theta_c=float(rng.uniform()),
                theta_dec=float(rng.uniform()),
                noise_schedule=NoiseSchedule(
                    kind="constant",
                    p0=float(rng.choice([0.0, 1e-6, rng.uniform(0, 0.1), rng.uniform()])),
                ),
                theta_a=float(rng.uniform(0, 0.5)),
                p_coh=float(rng.uniform()),
                interplay_enabled=bool(rng.integers(2)),
                pooled_modal_ratio=bool(rng.integers(2)),
                max_steps=400,
                seed=int(rng.integers(2**63)),
            )
            state = init_state(params)
            for _ in range(400):
                step(state, params)
                bad = audit_consistency(state)
                if bad:
                    violations += 1
                    failures.append(f"audit: {bad[0]}")
                    break
                steps_done += 1

        law_breaks = 0
        for _ in range(1000):
            while True:
                n = int(rng.integers(1, 9))
                m = int(rng.integers(1, 9))
                cells = rng.random((n, m)) < rng.uniform(0.2, 0.9)
                if cells.any(axis=1).all() and cells.any(axis=0).all():
                    break
            rel = lattice.Relation(cells)
            y = frozenset(int(i) for i in np.flatnonzero(rng.random(n) < 0.5))
            x = frozenset(i for i in y if rng.random() < 0.7)
            cx, cy = lattice.closure(rel, x), lattice.closure(rel, y)
            if not (x <= cx and lattice.closure(rel, cx) == cx and cx <= cy):
                law_breaks += 1
        if law_breaks:
            failures.append(f"{law_breaks} closure-law violations")
        details.append(
            f"{steps_done} audited steps, 0 violations; "
            "closure laws on 1000 random relations"
        )

    _criterion(8, body)
