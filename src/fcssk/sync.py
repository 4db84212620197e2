"""Blind FMCW-style timing recovery from the periodic chirp structure.

A timing offset tau between the received stream and the local reference
turns the mixed-down signal into two beat tones, Delta_f1 = k0*tau lasting
N-tau samples per period and Delta_f2 = k0*(N-tau) lasting tau samples, so
tau = T0*Delta_f1/B = T0*(1 - Delta_f2/B).  The estimator here works in
three steps:

1. coarse: averaged one-period periodogram of rx * conj(reference); the
   strongest folded beat peak gives the candidate pair (tau_a, tau_b).
2. fine: any residual offset ``d`` leaves a phase slip of exactly
   2*pi*b0*d/fs across every chirp-period boundary of the re-mixed signal.
   A symmetric second difference of the locally unwrapped phase around
   each boundary measures that slip while cancelling the modulation trend;
   averaging over boundaries estimates ``d`` to sub-sample accuracy.  The
   slip is linear in the *wrapped* offset, so it also pulls a wrong-branch
   candidate toward the true tau modulo N.
3. selection: after one fine pass on both candidates, keep the one with
   the smaller band-limited spectral spread of its re-mix (movement
   distance breaks near-ties, then the smaller tau), and polish it with
   progressively tighter slip passes.

The plain one-period peak is not enough on modulated signals: the per-bit
IF deviation integrates into a phase random walk that shifts the apparent
beat by ~1 Hz-scale amounts, i.e. tens of samples of tau; the boundary
slips are immune to that walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, SyncError
from .sigcore import ChirpParams, IqBuffer, periodic_reference, unwrap_correction

# periods of the incoming stream used for spectra / boundary slips
MAX_COARSE_PERIODS = 64
MAX_SLIP_BOUNDARIES = 64
# peak-to-median periodogram ratio below which the spectrum counts as flat
PEAK_FLOOR_RATIO = 20.0
# band for the spectral-spread candidate test; over the full band the f^2
# moment is dominated by broadband noise instead of the misalignment beats
SPREAD_BAND_HZ = 2048.0
# slip-measurement geometry: probe spans (guards) per refinement pass and
# half-width of the phase averaging around each probe
SLIP_GUARDS = (2048, 256, 64)
SLIP_AVG = 16


@dataclass(frozen=True)
class SyncEstimate:
    tau_hat: int        # samples
    delta_f1: float     # Hz, beat consistent with tau_hat
    delta_f2: float     # Hz, complementary beat (delta_f1 + delta_f2 = b0)
    confidence: float   # rejected/chosen candidate spread ratio (>= 1 is good)


def _mixed_periodogram(rx: np.ndarray, params: ChirpParams, start: int,
                       periods: int) -> np.ndarray:
    """One-period periodogram of rx[start:] * conj(reference), averaged
    over ``periods`` chirp periods."""
    n = params.n
    z = np.conj(periodic_reference(params, periods * n))
    np.multiply(rx[start:start + periods * n], z, out=z)   # in place: one fewer full copy
    spectra = z.reshape(periods, n)
    np.fft.fft(spectra, axis=1, out=spectra)               # in place too
    power = np.abs(spectra)
    power **= 2
    return power.mean(axis=0)


def _banded_spread(rx: np.ndarray, params: ChirpParams, tau: float) -> float:
    """Energy-weighted second moment of the re-mixed spectrum within
    +-SPREAD_BAND_HZ; small when tau aligns rx with the reference."""
    n = params.n
    t = int(round(tau)) % n
    k = min(8, (len(rx) - t) // n)
    if k < 1:
        return np.inf
    p = _mixed_periodogram(rx, params, t, k)
    f = np.fft.fftfreq(n, 1.0 / params.fs)
    band = np.abs(f) <= SPREAD_BAND_HZ
    total = float(np.sum(p[band]))
    if total <= 0.0:
        return np.inf
    return float(np.sum(p[band] * f[band] ** 2) / total)


def _measure_slips(rx: np.ndarray, params: ChirpParams, t0: int, guard: int) -> float:
    """Residual offset of the stream aligned at t0, from boundary phase slips.

    A residual offset d leaves a phase slip of 2*pi*b0*d/fs across every
    chirp-period boundary p of the re-mixed signal.  The slip is measured
    as phi(p+G)-phi(p-G) minus the mean of the two flanking G-spans (a
    symmetric second difference that cancels the modulation trend), each
    phase probe being a short local average.  Valid while |d| < G.

    All boundaries are measured at once, one row of a strided view per
    boundary window.  Each window's phase is unwrapped only where it is
    read: ``unwrap_phase``'s correction runs at the wrap steps, its
    running sum per row is looked up at the four probe spans, and the
    result equals unwrapping every window in full, bit for bit.
    """
    n, fs, b0 = params.n, params.fs, params.b0
    total = len(rx) - t0
    half = 3 * guard + SLIP_AVG
    width = 2 * half + 1
    first = max(-(-half // n), 1)     # first boundary k*n whose window starts in the stream
    count = min((total - half - 1) // n - first + 1, MAX_SLIP_BOUNDARIES)
    if count <= 0:
        return 0.0
    lo = first * n - half
    hi = lo + (count - 1) * n + width
    ref = periodic_reference(params, total)
    seg = np.conj(sliding_window_view(ref[lo:hi], width)[::n])
    # rx as the first operand, as in a per-window rx * conj(ref): same rounding
    np.multiply(sliding_window_view(rx[t0 + lo:t0 + hi], width)[::n], seg, out=seg)
    phase = np.angle(seg)
    del seg
    step = np.diff(phase, axis=1)
    span = step.shape[1]
    wraps = np.flatnonzero(np.abs(step) >= np.pi)           # row * span + step index
    rows = wraps // span
    row_start = np.searchsorted(wraps, np.arange(count) * span)
    # per row: 0, then the running sum of its corrections, zero-padded
    offsets = np.zeros((count, int(np.bincount(rows, minlength=count).max()) + 1))
    offsets[rows, np.arange(len(wraps)) - row_start[rows] + 1] = \
        unwrap_correction(step.ravel()[wraps])
    np.cumsum(offsets, axis=1, out=offsets)
    centers = half + guard * np.array([-3, -1, 1, 3])
    cols = centers[:, None] + np.arange(-SLIP_AVG, SLIP_AVG + 1)   # (4, 2*SLIP_AVG+1)
    row = np.arange(count)[:, None, None]
    before = np.searchsorted(wraps, row * span + cols) - row_start[row]   # wraps before a probe
    probes = phase[:, cols] + offsets[row, before]
    far_pre, near_pre, near_post, far_post = probes.mean(axis=-1).T
    slip = (near_post - near_pre) - 0.5 * ((near_pre - far_pre) + (far_post - near_post))
    d = float(np.mean(slip * fs / (2.0 * np.pi * b0)))
    # a pass is only valid for |d| < guard; clamp runaway noise estimates
    return float(np.clip(d, -guard, guard))


def estimate_timing(rx: IqBuffer, params: ChirpParams) -> SyncEstimate:
    """Estimate the timing offset of ``rx`` against the local reference.

    Needs at least one full chirp period; raises SyncError when the beat
    spectrum is indistinguishable from a flat noise floor.
    """
    x = rx.samples
    n = params.n
    if len(x) < n:
        raise ConfigError(f"need at least one period ({n} samples), got {len(x)}")
    p = _mixed_periodogram(x, params, 0, min(MAX_COARSE_PERIODS, len(x) // n))
    peak_bin = int(np.argmax(p))
    floor = float(np.median(p))
    if not p[peak_bin] > PEAK_FLOOR_RATIO * floor:
        raise SyncError("no beat peak above the noise floor")
    f_peak = peak_bin * params.fs / n
    if peak_bin > n // 2:
        f_peak -= params.fs
    fp = abs(f_peak)
    cand_a = fp / params.k0
    cand_b = n - fp / params.k0

    g0 = SLIP_GUARDS[0]
    ref_a = (cand_a % n) + _measure_slips(x, params, int(round(cand_a)) % n, g0)
    ref_b = (cand_b % n) + _measure_slips(x, params, int(round(cand_b)) % n, g0)
    spread_a = _banded_spread(x, params, ref_a)
    spread_b = _banded_spread(x, params, ref_b)
    move_a = min(abs(ref_a - cand_a), n - abs(ref_a - cand_a))
    move_b = min(abs(ref_b - cand_b), n - abs(ref_b - cand_b))
    if abs(spread_a - spread_b) > 0.1 * max(spread_a, spread_b):
        pick_a = spread_a < spread_b
    elif abs(move_a - move_b) > 1.0:
        pick_a = move_a < move_b
    else:
        pick_a = (ref_a % n) <= (ref_b % n)
    tau = ref_a if pick_a else ref_b
    chosen, rejected = (spread_a, spread_b) if pick_a else (spread_b, spread_a)

    for guard in SLIP_GUARDS:
        t0 = int(round(tau)) % n
        tau = t0 + _measure_slips(x, params, t0, guard)
    tau_hat = int(round(tau)) % n

    delta_f1 = params.k0 * tau_hat
    confidence = float(rejected / chosen) if chosen > 0 and np.isfinite(rejected) else 1.0
    return SyncEstimate(tau_hat=tau_hat, delta_f1=delta_f1,
                        delta_f2=params.b0 - delta_f1, confidence=confidence)


def align(rx: IqBuffer, est: SyncEstimate | int) -> IqBuffer:
    """Drop the estimated offset so coded-bit boundaries start at sample 0."""
    tau = est.tau_hat if isinstance(est, SyncEstimate) else int(est)
    if tau < 0 or tau > len(rx.samples):
        raise ConfigError(f"tau_hat {tau} outside [0, {len(rx.samples)}]")
    return IqBuffer(samples=rx.samples[tau:], fs=rx.fs)
