"""Spectral and event-detection tests.

The transform is validated against a direct quadratic-time evaluation
of the DFT sum written here, and against numpy's FFT as a second
independent reference.  The in-place transform and the batched Welch
average must reproduce, byte for byte, the concatenating transform and
the all-frames average they replaced, kept here as
`reference_radix2_dft` and `reference_psd`.  The event scanner, which
jumps between the samples that can open an event, is compared with the
per-sample scan it replaced, kept here as `reference_scan_trace`.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chemlattice import analysis
from chemlattice.analysis import (
    PLATEAU_LEVEL_FRACTION,
    PSD_BATCH_SAMPLES,
    PSD_MIN_SAMPLES,
    PLATEAU_TIME_FRACTION,
    RETRACE_FRACTION,
    RunSeries,
    Spectrum,
    WaveEvent,
    detect_events,
    fit_loglog_slope,
    psd,
    radix2_dft,
    summarize,
)
from chemlattice.harness import builtin_config, run_simulation, sub_run_seed
from chemlattice.sim_core import NoiseSchedule


def naive_dft(x):
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    k = np.arange(n)
    return (x[None, :] * np.exp(-2j * np.pi * k[:, None] * k[None, :] / n)).sum(axis=1)


def series_from(active, t=None):
    active = np.asarray(active, dtype=np.int64)
    if t is None:
        t = np.arange(len(active))
    return RunSeries(
        t=np.asarray(t),
        cluster_count=np.ones(len(active), dtype=np.int64),
        active_count=active,
        params_snapshot=None,
        noise_trace=np.zeros(len(active)),
    )


def triangle(base=20, amp=160, rise=5, fall=5, pad=60):
    up = base + amp * np.arange(1, rise + 1) / rise
    down = base + amp * np.arange(fall - 1, -1, -1) / fall
    return np.concatenate([np.full(pad, base), up, down, np.full(pad, base)])


# ------------------------------------------------------------ transform


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
def test_transform_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = radix2_dft(x)
    assert np.allclose(got, naive_dft(x), atol=1e-9)
    assert np.allclose(got, np.fft.fft(x), atol=1e-9)


def test_transform_batches_along_last_axis():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 128))
    got = radix2_dft(x)
    for row in range(5):
        assert np.allclose(got[row], np.fft.fft(x[row]), atol=1e-9)


def test_transform_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        radix2_dft(np.zeros(48))
    with pytest.raises(ValueError):
        radix2_dft(np.zeros(0))


# ------------------------------------------------------------------ psd


def test_psd_of_constant_is_numerically_zero():
    s = psd(np.full(2048, 5.0))
    assert s.power.max() < 1e-12


def test_psd_concentrates_a_pure_tone():
    x = np.sin(2 * np.pi * np.arange(4096) / 8)
    s = psd(x)
    k = int(np.argmin(np.abs(s.freq - 0.125)))
    assert s.freq[k] == 0.125
    assert s.power[k - 1 : k + 2].sum() >= 0.99 * s.power.sum()


def test_psd_satisfies_parseval():
    # one-sided density at unit rate: sum(power)/seg recovers variance
    for seed in (0, 1, 2, 3):
        x = np.random.default_rng(seed).normal(size=4096)
        s = psd(x)
        seg = 2 * len(s.freq)
        total = s.power.sum() / seg
        assert abs(total - x.var()) / x.var() < 0.01


def test_psd_is_shift_invariant_for_a_bin_centered_tone():
    f0 = 16 / 1024
    lag = 137
    y = np.cos(2 * np.pi * f0 * np.arange(4096 + lag))
    p1 = psd(y[:4096]).power
    p2 = psd(y[lag : lag + 4096]).power
    assert np.allclose(p1, p2, atol=1e-10 * p1.max())


def test_psd_input_validation():
    with pytest.raises(ValueError, match="at least 256"):
        psd(np.zeros(255))
    with pytest.raises(ValueError, match="1-D"):
        psd(np.zeros((4, 256)))


def test_psd_white_noise_is_flat_on_average():
    slopes = []
    for seed in range(20):
        x = np.random.default_rng(100 + seed).normal(size=8192)
        slopes.append(fit_loglog_slope(psd(x), 1e-2, 1e-1)[0])
    assert abs(np.mean(slopes)) < 0.15


# ------------------------------------------------------------ slope fit


def test_slope_of_exact_power_law():
    freq = np.arange(1, 513) / 1024
    spec = Spectrum(freq=freq, power=1.0 / freq, n_segments=1)
    slope, stderr = fit_loglog_slope(spec, 1e-3, 1e-1)
    assert abs(slope - (-1.0)) < 1e-3
    assert stderr < 1e-6


def test_slope_of_flat_spectrum_is_zero():
    freq = np.arange(1, 513) / 1024
    spec = Spectrum(freq=freq, power=np.full(512, 3.7), n_segments=1)
    slope, _ = fit_loglog_slope(spec, 1e-3, 1e-1)
    assert abs(slope) < 1e-9


def test_slope_band_validation():
    freq = np.arange(1, 33) / 64
    spec = Spectrum(freq=freq, power=1.0 / freq, n_segments=1)
    with pytest.raises(ValueError, match="usable bins"):
        fit_loglog_slope(spec, 0.4, 0.5)  # band holds too few bins
    with pytest.raises(ValueError, match="f_lo < f_hi"):
        fit_loglog_slope(spec, 0.2, 0.1)


# --------------------------------------------------------------- events


def test_fast_up_fast_down_is_a_spike():
    events = detect_events(series_from(triangle()), 20, 20, 100)
    assert [e.kind for e in events] == ["spike_up"]
    e = events[0]
    assert e.t_start < e.t_peak <= e.t_end
    assert e.amplitude >= 100


def test_fast_up_slow_down_is_a_sawtooth():
    base = np.full(60, 20.0)
    up = 20 + 160 * np.arange(1, 6) / 5
    decay = 180 - 160 * np.arange(1, 501) / 500
    trace = np.concatenate([base, up, decay, np.full(60, 20.0)])
    events = detect_events(series_from(trace), 20, 50, 100)
    assert [e.kind for e in events] == ["sawtooth"]


def test_flat_trace_has_no_events():
    assert detect_events(series_from(np.full(500, 80.0)), 25, 25, 100) == []


def test_square_oscillation_pulses_are_not_events():
    # the noise-free regime's shape: fast rise, long plateau, fast fall
    cycle = np.concatenate([np.zeros(50), np.full(50, 200.0)])
    trace = np.tile(cycle, 8)
    assert detect_events(series_from(trace), 25, 25, 160) == []


def test_negating_the_trace_swaps_spike_directions():
    trace = np.concatenate([triangle(), triangle()])
    up = detect_events(series_from(trace), 20, 20, 100)
    down = detect_events(series_from(-trace + 400), 20, 20, 100)
    assert [e.kind for e in up] == ["spike_up", "spike_up"]
    assert [e.kind for e in down] == ["spike_down", "spike_down"]
    assert [(e.t_start, e.t_peak, e.t_end) for e in up] == [
        (e.t_start, e.t_peak, e.t_end) for e in down
    ]


def test_negation_keeps_sawtooth_a_sawtooth():
    base = np.full(60, 20.0)
    up = 20 + 160 * np.arange(1, 6) / 5
    decay = 180 - 160 * np.arange(1, 501) / 500
    trace = np.concatenate([base, up, decay, np.full(60, 20.0)])
    flipped = detect_events(series_from(-trace + 400), 20, 50, 100)
    assert [e.kind for e in flipped] == ["sawtooth"]


def test_event_times_follow_the_recorded_step_axis():
    trace = triangle()
    plain = detect_events(series_from(trace), 20, 20, 100)
    shifted = detect_events(series_from(trace, t=np.arange(len(trace)) + 1000), 20, 20, 100)
    thinned = detect_events(series_from(trace, t=10 * np.arange(len(trace))), 20, 20, 100)
    assert shifted[0].t_peak == plain[0].t_peak + 1000
    assert thinned[0].t_peak == plain[0].t_peak * 10


def test_small_excursions_are_ignored():
    assert detect_events(series_from(triangle(amp=90)), 20, 20, 100) == []


def test_event_parameter_validation():
    s = series_from(triangle())
    with pytest.raises(ValueError):
        detect_events(s, 0, 20, 100)
    with pytest.raises(ValueError, match="min_amplitude"):
        detect_events(s, 20, 20, 0)


def test_run_series_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="one length"):
        RunSeries(
            t=np.arange(5),
            cluster_count=np.ones(5),
            active_count=np.ones(4),
            params_snapshot=None,
            noise_trace=np.zeros(5),
        )


# -------------------------------------------------------------- summary


def test_summary_of_an_empty_run():
    s = series_from(np.full(300, 10.0))
    doc = summarize(s, [], None)
    assert doc["events"]["total"] == 0
    assert doc["events"]["spike_fraction"] == 0.0
    assert doc["psd"] is None
    assert doc["active_count"]["mean"] == 10.0


def test_summary_spike_fraction():
    trace = np.concatenate([triangle()] * 3)
    s = series_from(trace)
    events = detect_events(s, 20, 20, 100)
    assert len(events) == 3
    base = np.full(60, 20.0)
    up = 20 + 160 * np.arange(1, 6) / 5
    decay = 180 - 160 * np.arange(1, 501) / 500
    saw_series = series_from(np.concatenate([base, up, decay, base]))
    events += detect_events(saw_series, 20, 50, 100)
    doc = summarize(s, events, None)
    assert doc["events"] == {
        "spike_up": 3,
        "spike_down": 0,
        "sawtooth": 1,
        "total": 4,
        "spike_fraction": 0.75,
    }


def test_summary_reports_the_fitted_slope():
    x = np.random.default_rng(5).normal(size=4096)
    s = series_from(np.round(100 + 10 * x))
    doc = summarize(s, [], psd(s.active_count.astype(float)), (1e-2, 1e-1))
    assert set(doc["psd"]) == {"slope", "stderr", "f_lo", "f_hi", "n_segments"}
    assert abs(doc["psd"]["slope"]) < 0.5


def test_summary_has_no_slope_when_the_band_holds_too_few_bins():
    x = np.random.default_rng(5).normal(size=4096)
    s = series_from(np.round(100 + 10 * x))
    spectrum = psd(s.active_count.astype(float))
    with pytest.raises(ValueError, match="usable bins"):
        fit_loglog_slope(spectrum, 0.4, 0.401)
    assert summarize(s, [], spectrum, (0.4, 0.401))["psd"] is None


# ----------------------------------------------- scanner vs per-sample scan


def _reference_trailing_extreme(x, window, pad_value, fn):
    pad = np.full(window - 1, pad_value)
    padded = np.concatenate([pad, x])
    return fn(np.lib.stride_tricks.sliding_window_view(padded, window), axis=1)


def reference_scan_trace(x, t, rise_window, fall_window, min_amplitude):
    """The per-sample excursion scan: every sample is tested as a
    possible opening, one numpy scalar at a time."""
    n = x.size
    events = []
    if n < 2:
        return events
    w = rise_window + 1
    tmin = _reference_trailing_extreme(x, w, np.inf, np.min)
    tmax = _reference_trailing_extreme(x, w, -np.inf, np.max)
    j = 1
    while j < n:
        up_amp = x[j] - tmin[j]
        down_amp = tmax[j] - x[j]
        if up_amp < min_amplitude and down_amp < min_amplitude:
            j += 1
            continue
        upward = up_amp >= down_amp
        y = x if upward else -x
        lo = max(0, j - rise_window)
        win = y[lo:j + 1]
        t_start = lo + int(np.flatnonzero(win == win.min())[-1])
        hi = min(n, j + rise_window + 1)
        t_peak = j + int(np.argmax(y[j:hi]))
        base = y[t_start]
        amplitude = y[t_peak] - base
        retrace_level = base + RETRACE_FRACTION * amplitude
        high_level = base + PLATEAU_LEVEL_FRACTION * amplitude
        t_end = None
        high_samples = 0
        u = t_peak + 1
        while u < n:
            if y[u] <= retrace_level:
                t_end = u
                break
            if y[u] >= high_level:
                high_samples += 1
            u += 1
        if t_end is None:
            j = n
            continue
        decay = t_end - t_peak
        if decay <= fall_window:
            kind = "spike_up" if upward else "spike_down"
        elif high_samples >= PLATEAU_TIME_FRACTION * decay:
            j = t_end + 1
            continue
        else:
            kind = "sawtooth"
        events.append(
            WaveEvent(
                kind=kind,
                t_start=int(t[t_start]),
                t_peak=int(t[t_peak]),
                t_end=int(t[t_end]),
                amplitude=float(amplitude),
            )
        )
        j = t_end + 1
    return events


def _ramp(level, amp, length):
    # length integer samples moving from level toward level + amp, the
    # last one reaching it.
    return [level + amp * i // length for i in range(1, length + 1)]


def _build_trace(start, segments):
    trace = [start]
    for kind, *args in segments:
        level = trace[-1]
        if kind == "flat":
            trace += [level] * args[0]
        elif kind == "walk":
            for delta in args[0]:
                trace.append(trace[-1] + delta)
        elif kind in ("spike", "sawtooth"):  # rise, amplitude, fall
            rise, amp, fall = args
            trace += _ramp(level, amp, rise) + _ramp(level + amp, -amp, fall)
        else:  # plateau pulse: rise, amplitude, plateau length, fall
            rise, amp, hold, fall = args
            trace += (_ramp(level, amp, rise) + [level + amp] * hold
                      + _ramp(level + amp, -amp, fall))
    return trace


SEGMENTS = st.lists(
    st.one_of(
        st.tuples(st.just("flat"), st.integers(1, 60)),
        st.tuples(st.just("walk"), st.lists(st.integers(-40, 40), min_size=1, max_size=80)),
        st.tuples(st.just("spike"), st.integers(1, 30), st.integers(-240, 240),
                  st.integers(1, 40)),
        st.tuples(st.just("sawtooth"), st.integers(1, 30), st.integers(-240, 240),
                  st.integers(30, 300)),
        st.tuples(st.just("plateau"), st.integers(1, 10), st.integers(-240, 240),
                  st.integers(1, 120), st.integers(1, 5)),
    ),
    min_size=1,
    max_size=12,
)


def assert_scans_agree(trace, rise, fall, amp, t=None):
    series = series_from(trace, t)
    want = reference_scan_trace(np.asarray(trace, dtype=np.float64), series.t,
                                rise, fall, float(amp))
    assert detect_events(series, rise, fall, amp) == want
    return want


@given(
    start=st.integers(-50, 250),
    segments=SEGMENTS,
    negate=st.booleans(),
    cut=st.integers(0, 40),  # samples dropped from the end, mid-event or not
    rise=st.integers(1, 30),
    fall=st.integers(1, 30),
    amp=st.one_of(st.integers(1, 250), st.floats(1, 250)),
    stride=st.integers(1, 3),
)
# A planted spike of exactly the minimum amplitude opens an event.
@example(start=20, segments=[("flat", 30), ("spike", 5, 100, 5), ("flat", 30)],
         negate=False, cut=0, rise=20, fall=20, amp=100, stride=1)
# Up spikes whose fall ends right where a down opening would qualify.
@example(start=20, segments=[("flat", 30), ("spike", 3, 160, 2), ("walk", [-170, 0, 175]),
                             ("flat", 30)],
         negate=False, cut=0, rise=5, fall=5, amp=150, stride=1)
@example(start=0, segments=[("flat", 10), ("sawtooth", 4, 200, 60), ("flat", 5),
                            ("plateau", 2, 200, 50, 2), ("flat", 5)],
         negate=True, cut=0, rise=10, fall=10, amp=160, stride=2)
@settings(max_examples=400, deadline=None)
def test_scan_matches_the_per_sample_reference(start, segments, negate, cut, rise, fall,
                                               amp, stride):
    trace = np.asarray(_build_trace(start, segments), dtype=np.int64)
    if negate:
        trace = 400 - trace
    trace = trace[:max(1, trace.size - cut)]
    assert_scans_agree(trace, rise, fall, amp, t=500 + stride * np.arange(trace.size))


def test_scan_matches_the_reference_on_simulated_traces():
    fig9c = builtin_config("fig9c")
    series, _ = run_simulation(replace(fig9c.sim, max_steps=30_000))
    trace = series.active_count
    assert len(assert_scans_agree(trace, 25, 25, 160)) > 100
    for rise, fall, amp in ((5, 40, 100), (30, 10, 190.5), (1, 1, 60)):
        assert_scans_agree(trace, rise, fall, amp)
    # One fig11 cell at p = 5e-3, the sawtooth regime, at full length.
    fig11 = builtin_config("fig11")
    cell = replace(fig11.sim, noise_schedule=NoiseSchedule(kind="constant", p0=5e-3),
                   seed=sub_run_seed(fig11.sim.seed, 3, 0))
    series, _ = run_simulation(cell)
    events = assert_scans_agree(series.active_count, 25, 25, 160)
    assert any(e.kind == "sawtooth" for e in events)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_scan_matches_the_reference_across_opening_blocks(monkeypatch, block):
    # Openings are marked block by block; blocks shorter than the rise
    # window need the samples before them, and events straddle the bounds.
    monkeypatch.setattr(analysis, "_OPEN_BLOCK", block)
    series, _ = run_simulation(replace(builtin_config("fig9c").sim, max_steps=3_000))
    for rise, fall, amp in ((25, 25, 160), (5, 40, 100), (1, 1, 60)):
        assert_scans_agree(series.active_count, rise, fall, amp)
    trace = _build_trace(20, [("flat", 9), ("spike", 5, 100, 5), ("sawtooth", 4, -150, 60),
                              ("plateau", 2, 200, 50, 2), ("walk", [30, -90, 95, -10])])
    for negate in (False, True):
        assert assert_scans_agree(-np.asarray(trace) if negate else trace, 20, 10, 90)


# ------------------------------- transform and psd vs the concatenating path


def reference_radix2_dft(x):
    """The transform as it was before the butterflies went in place: a
    new array per stage, built by concatenating the two halves."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    y = x[..., rev]
    half = 1
    while half < n:
        w = np.exp(-1j * np.pi * np.arange(half) / half)
        y = y.reshape(x.shape[:-1] + (n // (2 * half), 2, half))
        t = y[..., 1, :] * w
        y = np.concatenate([y[..., 0, :] + t, y[..., 0, :] - t], axis=-1)
        half *= 2
    return y.reshape(x.shape)


def reference_psd(series):
    """Welch average as it was before batching: every Hann frame
    gathered by one index matrix and transformed at once."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    seg = 1 << int(np.floor(np.log2(n // 4)))
    hop = seg // 2
    n_segments = (n - seg) // hop + 1
    x = x - x.mean()
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
    starts = hop * np.arange(n_segments)
    frames = x[starts[:, None] + np.arange(seg)[None, :]] * window
    spec = reference_radix2_dft(frames)[:, : seg // 2 + 1]
    raw = (spec.real**2 + spec.imag**2).mean(axis=0)
    power = raw / (window**2).sum()
    power[1:-1] *= 2.0
    freq = np.arange(1, seg // 2 + 1) / seg
    return Spectrum(freq=freq, power=power[1:], n_segments=n_segments)


def make_trace(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng.integers(0, 201, n)
    if kind == "float":
        return rng.normal(size=n).cumsum()
    return np.full(n, rng.uniform(-5.0, 5.0))  # its mean need not be exact


def assert_psd_matches_reference(trace):
    got, want = psd(trace), reference_psd(trace)
    assert got.n_segments == want.n_segments
    assert got.freq.tobytes() == want.freq.tobytes()
    assert got.power.tobytes() == want.power.tobytes()


PSD_LENGTHS = st.one_of(
    st.integers(PSD_MIN_SAMPLES, 70_000),
    st.integers(8, 16).map(lambda k: 1 << k),
    st.integers(8, 16).map(lambda k: (1 << k) + 1),
)


@given(n=PSD_LENGTHS, kind=st.sampled_from(["integer", "float", "constant"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=1 << 16, kind="integer", seed=0)
@example(n=(1 << 16) + 1, kind="float", seed=1)
@example(n=70_000, kind="constant", seed=2)
@example(n=PSD_MIN_SAMPLES, kind="float", seed=3)
@settings(max_examples=60, deadline=None)
def test_psd_and_transform_match_the_reference_bytes(n, kind, seed):
    trace = make_trace(kind, n, seed)
    assert_psd_matches_reference(trace)
    head = trace[: 1 << (n.bit_length() - 1)]
    assert radix2_dft(head).tobytes() == reference_radix2_dft(head).tobytes()


@pytest.mark.parametrize("n, full_batches, extra_segments",
                         [(4_608, 2, 0), (5_120, 2, 1), (10_240, 4, 1)])
def test_psd_matches_the_reference_across_batch_bounds(n, full_batches, extra_segments):
    seg = 1 << int(np.floor(np.log2(n // 4)))
    rows = PSD_BATCH_SAMPLES // seg
    trace = make_trace("float", n, n)
    assert reference_psd(trace).n_segments == full_batches * rows + extra_segments
    assert_psd_matches_reference(trace)


def _dft_inputs():
    rng = np.random.default_rng(11)
    cube = rng.normal(size=(3, 4, 64)) + 1j * rng.normal(size=(3, 4, 64))
    return {
        "1-D real": rng.normal(size=256),
        "1-D integer": rng.integers(-50, 50, 128),
        "2-D complex": cube[0].copy(),
        "3-D complex": cube,
        "F-ordered": np.asfortranarray(rng.normal(size=(5, 32)) + 1j),
        "strided": rng.normal(size=(4, 128))[:, ::2],
        "transposed 3-D": cube.transpose(1, 0, 2),
        "length 1": rng.normal(size=(3, 1)),
    }


@pytest.mark.parametrize("name", list(_dft_inputs()))
def test_transform_matches_the_reference_and_leaves_its_input(name):
    x = _dft_inputs()[name]
    before = x.copy()
    got = radix2_dft(x)
    assert got.shape == x.shape and got.dtype == np.complex128
    assert got.tobytes() == reference_radix2_dft(x).tobytes()
    assert x.tobytes() == before.tobytes()


def test_psd_working_memory_does_not_scale_with_the_series():
    # All 15 frames of a 2**16-sample series at once peaked at 9.75 MiB.
    # A centred copy of a 2**18-sample series and a segments x bins array
    # of its squared magnitudes peaked at 9.50 MiB.
    for n, bound_mib in ((1 << 16, 5), (1 << 18, 7.5)):
        x = np.random.default_rng(5).normal(size=n).cumsum()
        tracemalloc.start()
        try:
            psd(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (n, peak)
