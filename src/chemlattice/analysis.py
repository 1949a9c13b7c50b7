"""Spectral and wave-shape analysis of recorded runs.

The power spectral density uses Welch averaging over 50%-overlapping
Hann-tapered segments, transformed with the in-repo radix-2 transform
below; power-law structure is read off as an ordinary least-squares
slope in log-log coordinates.  Wave events are large excursions of the
activity trace classified by their shape: a spike retraces quickly on
both sides, a sawtooth rises fast and decays gradually, and a flat-top
pulse (fast rise, long plateau, fast fall: the shape plain oscillation
produces) is deliberately not an event.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .sim_core import SimParams

__all__ = [
    "RunSeries",
    "Spectrum",
    "WaveEvent",
    "radix2_dft",
    "psd",
    "fit_loglog_slope",
    "detect_events",
    "summarize",
]

# Event-shape constants: an event closes once 75% of its amplitude is
# retraced, and a decay that spends at least 80% of its samples within
# the top quarter of the amplitude is a plateau pulse, not a wave.
RETRACE_FRACTION = 0.25
PLATEAU_LEVEL_FRACTION = 0.75
PLATEAU_TIME_FRACTION = 0.8

# Samples a retrace walk reads per chunk.
_WALK_CHUNK = 64

# Shortest series psd accepts, and fewest usable bins a slope fit takes.
PSD_MIN_SAMPLES = 256
SLOPE_MIN_BINS = 8
# Most samples of Hann segments psd transforms in one batch: the fig11
# and fig9c series fit in one, and a 2**16-sample series takes 8.
PSD_BATCH_SAMPLES = 1 << 15


@dataclass
class RunSeries:
    """Recorded trajectory: step numbers, cluster and active-molecule
    counts, the parameter set that produced it, and the noise probability
    in effect at each recorded step."""

    t: np.ndarray
    cluster_count: np.ndarray
    active_count: np.ndarray
    params_snapshot: Optional[SimParams]
    noise_trace: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        if not (len(self.cluster_count) == len(self.active_count) == len(self.noise_trace) == n):
            raise ValueError("series arrays must share one length")


@dataclass(frozen=True)
class Spectrum:
    """One-sided PSD: frequencies in cycles/step (DC dropped), power per
    unit frequency, and the number of averaged segments."""

    freq: np.ndarray
    power: np.ndarray
    n_segments: int


@dataclass(frozen=True)
class WaveEvent:
    """One classified excursion; kind is spike_up, spike_down, or
    sawtooth.  Times are in recorded-step units with
    t_start < t_peak <= t_end, and amplitude is positive."""

    kind: str
    t_start: int
    t_peak: int
    t_end: int
    amplitude: float


@lru_cache(maxsize=8)
def _dft_tables(n: int) -> tuple:
    """The bit-reversal permutation of 0..n-1 and each stage's twiddles
    for a length-n transform, as read-only arrays shared by every call at
    that length."""
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    tables = [rev]
    half = 1
    while half < n:
        tables.append(np.exp(-1j * np.pi * np.arange(half) / half))
        half *= 2
    for table in tables:
        table.flags.writeable = False
    return tables[0], tuple(tables[1:])


def radix2_dft(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 Cooley-Tukey transform along the last axis.

    The length must be a power of two.  Matches the plain transform
    definition X[k] = sum_n x[n] exp(-2j pi k n / N).  The input is
    bit-reversed once into a C-ordered complex copy, and every stage's
    butterflies write into that copy, so the working memory is the
    result plus half of it, and the caller's array is never written.
    The permutation and twiddles are built once per length.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"transform length must be a power of two, got {n}")
    rev, twiddles = _dft_tables(n)
    y = np.take(x, rev, axis=-1).astype(np.complex128, copy=False)
    half = 1
    for w in twiddles:
        pairs = y.reshape(y.shape[:-1] + (n // (2 * half), 2, half))
        a, b = pairs[..., 0, :], pairs[..., 1, :]
        t = b * w
        np.subtract(a, t, out=b)
        a += t
        half *= 2
    return y


def psd(series: np.ndarray) -> Spectrum:
    """Welch power spectral density of a real series at unit sample rate.

    The global mean is removed, the series is cut into 50%-overlapping
    Hann-windowed segments whose length is the largest power of two at
    most a quarter of the series, and squared magnitudes are averaged.
    Normalization makes the one-sided density integrate to the series
    variance (DC excluded); input shorter than PSD_MIN_SAMPLES raises.

    Segments are views into the series, centred and transformed a batch of
    at most PSD_BATCH_SAMPLES samples (or one segment, if longer) at a
    time, so the transform's working memory does not grow with the
    series.  Each segment's squared magnitudes are added, in segment
    order, into one bins-long sum, which is then divided by the segment
    count: the same sums, in the same order, as a mean over segments.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("psd expects a 1-D series")
    n = x.size
    if n < PSD_MIN_SAMPLES:
        raise ValueError(f"psd needs at least {PSD_MIN_SAMPLES} samples, got {n}")
    seg = 1 << int(np.floor(np.log2(n // 4)))
    hop = seg // 2
    n_segments = (n - seg) // hop + 1
    mean = x.mean()
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
    frames = np.lib.stride_tricks.sliding_window_view(x, seg)[::hop]
    rows = max(1, PSD_BATCH_SAMPLES // seg)
    total = np.zeros(seg // 2 + 1)
    for lo in range(0, n_segments, rows):
        spec = radix2_dft((frames[lo:lo + rows] - mean) * window)[:, : seg // 2 + 1]
        for row in spec.real**2 + spec.imag**2:
            total += row
    raw = total / n_segments
    power = raw / (window**2).sum()  # density at unit sample rate
    power[1:-1] *= 2.0  # fold the negative frequencies, Nyquist excluded
    freq = np.arange(1, seg // 2 + 1) / seg
    return Spectrum(freq=freq, power=power[1:], n_segments=n_segments)


def _fit_bins(spectrum: Spectrum, f_lo: float, f_hi: float) -> np.ndarray:
    """Mask of the bins a slope fit uses: inside [f_lo, f_hi] with
    positive power."""
    if not 0 < f_lo < f_hi:
        raise ValueError(f"need 0 < f_lo < f_hi, got [{f_lo}, {f_hi}]")
    return (spectrum.freq >= f_lo) & (spectrum.freq <= f_hi) & (spectrum.power > 0)


def fit_loglog_slope(spectrum: Spectrum, f_lo: float, f_hi: float) -> tuple:
    """OLS slope and its standard error of log10 power vs log10 frequency
    over the band [f_lo, f_hi].  The band must hold at least
    SLOPE_MIN_BINS bins with positive power."""
    pick = _fit_bins(spectrum, f_lo, f_hi)
    n = int(pick.sum())
    if n < SLOPE_MIN_BINS:
        raise ValueError(
            f"band [{f_lo}, {f_hi}] holds {n} usable bins, "
            f"need at least {SLOPE_MIN_BINS}"
        )
    lx = np.log10(spectrum.freq[pick])
    ly = np.log10(spectrum.power[pick])
    lx_c = lx - lx.mean()
    sxx = float(lx_c @ lx_c)
    slope = float(lx_c @ ly) / sxx
    resid = ly - ly.mean() - slope * lx_c
    stderr = float(np.sqrt(resid @ resid / (n - 2) / sxx))
    return slope, stderr


def _trailing_extremes(x: np.ndarray, window: int) -> tuple:
    """Trailing minimum and maximum of ``x`` over the last ``window``
    samples, each sample included (fewer at the start), built from
    ``window - 1`` shifted views."""
    lo, hi = x.copy(), x.copy()
    for shift in range(1, min(window, x.size)):
        np.minimum(lo[shift:], x[:-shift], out=lo[shift:])
        np.maximum(hi[shift:], x[:-shift], out=hi[shift:])
    return lo, hi


def _scan_trace(x: np.ndarray, t: np.ndarray, rise_window: int, fall_window: int,
                min_amplitude: float) -> list:
    """Excursion scanner over a raw trace; windows count samples, and
    event times are read off the time axis ``t``.

    An event can open only at a sample (past the first) that lies at
    least ``min_amplitude`` above the lowest or below the highest of the
    ``rise_window`` samples before it.  One array mask marks those
    samples, and the scan jumps from one to the next with ``bisect``,
    resuming after each event's end; a trace with no such sample costs a
    few array passes.  Each event is then read off Python floats, a
    window or a chunk of the walk at a time: its start (the last low of
    the rise window), its peak (the first high of the window after the
    opening sample) and the walk to its retrace.
    """
    n = x.size
    if n < 2:
        return []
    up_amp, down_amp = _trailing_extremes(x, rise_window + 1)
    np.subtract(x, up_amp, out=up_amp)  # rise above the trailing minimum
    np.subtract(down_amp, x, out=down_amp)  # fall below the trailing maximum
    able = (up_amp >= min_amplitude) | (down_amp >= min_amplitude)
    able[0] = False
    opens = able.nonzero()[0].tolist()
    events = []
    k, j = 0, 1
    while True:
        k = bisect_left(opens, j, k)
        if k == len(opens):
            break
        j = opens[k]
        upward = bool(up_amp[j] >= down_amp[j])
        # The event is read off y = sign * x, so a fall is scanned as a rise.
        sign = 1.0 if upward else -1.0
        win = [sign * v for v in x[max(0, j - rise_window):j + 1].tolist()]
        base = min(win)
        t_start = j - win[::-1].index(base)
        win = [sign * v for v in x[j:j + rise_window + 1].tolist()]
        top = max(win)
        t_peak = j + win.index(top)
        amplitude = top - base
        retrace_level = base + RETRACE_FRACTION * amplitude
        high_level = base + PLATEAU_LEVEL_FRACTION * amplitude
        t_end = None
        high_samples = 0
        u = t_peak + 1
        while t_end is None and u < n:
            for v in x[u:u + _WALK_CHUNK].tolist():
                v *= sign
                if v <= retrace_level:
                    t_end = u
                    break
                if v >= high_level:
                    high_samples += 1
                u += 1
        if t_end is None:
            # Ran off the end mid-event: left unclassified.
            break
        decay = t_end - t_peak
        if decay <= fall_window:
            kind = "spike_up" if upward else "spike_down"
        elif high_samples >= PLATEAU_TIME_FRACTION * decay:
            kind = None  # flat-top oscillation pulse, not a wave
        else:
            kind = "sawtooth"
        if kind is not None:
            events.append(
                WaveEvent(
                    kind=kind,
                    t_start=int(t[t_start]),
                    t_peak=int(t[t_peak]),
                    t_end=int(t[t_end]),
                    amplitude=amplitude,
                )
            )
        j = t_end + 1
    return events


def detect_events(series: RunSeries, rise_window: int, fall_window: int,
                  min_amplitude: float) -> list:
    """Classified excursions of the active-molecule trace.

    ``rise_window`` bounds how many recorded samples a qualifying rise
    may span, ``fall_window`` how many the fall of a spike may span, and
    ``min_amplitude`` the excursion size in molecules.  Event times are
    reported in the series' step units.  Negating the trace swaps
    spike_up and spike_down and keeps sawtooth events sawtooth.
    """
    if rise_window < 1 or fall_window < 1:
        raise ValueError("rise_window and fall_window must be >= 1")
    if min_amplitude < 1:
        raise ValueError(f"min_amplitude must be >= 1, got {min_amplitude}")
    return _scan_trace(
        np.asarray(series.active_count, dtype=np.float64),
        np.asarray(series.t),
        rise_window,
        fall_window,
        float(min_amplitude),
    )


def summarize(series: RunSeries, events: list, spectrum: Optional[Spectrum],
              fit_band: tuple = (1e-3, 1e-1)) -> dict:
    """JSON-ready run summary: event counts and spike fraction, the
    log-log PSD slope over the configured band (null without a spectrum
    or when the band holds fewer than SLOPE_MIN_BINS usable bins), and
    the range of both traces."""
    counts = {"spike_up": 0, "spike_down": 0, "sawtooth": 0}
    for e in events:
        counts[e.kind] += 1
    total = sum(counts.values())
    spikes = counts["spike_up"] + counts["spike_down"]
    psd_block = None
    if spectrum is not None and _fit_bins(spectrum, *fit_band).sum() >= SLOPE_MIN_BINS:
        slope, stderr = fit_loglog_slope(spectrum, *fit_band)
        psd_block = {
            "slope": slope,
            "stderr": stderr,
            "f_lo": fit_band[0],
            "f_hi": fit_band[1],
            "n_segments": spectrum.n_segments,
        }
    def trace_stats(a):
        a = np.asarray(a)
        return {
            "min": int(a.min()),
            "max": int(a.max()),
            "mean": float(a.mean()),
        }
    return {
        "events": {
            **counts,
            "total": total,
            "spike_fraction": (spikes / total) if total else 0.0,
        },
        "psd": psd_block,
        "cluster_count": trace_stats(series.cluster_count),
        "active_count": trace_stats(series.active_count),
        "params": (
            series.params_snapshot.to_dict() if series.params_snapshot else None
        ),
    }
