"""Receiver front half: downconversion and instantaneous-frequency estimation.

Two estimators are provided:

* a second-order digital PLL whose closed loop realizes
  H(z) = (C1*(z-1) + C2*(z-1)^2) / ((z-1)^2 + C2*(z-1) + C1)
  from input phase to estimated frequency, with C2 = 2*zeta*w0/fs and
  C1 = C2^2/(4*zeta^2); a type-2 loop with zero steady-state error on
  frequency steps and ramps tracked with constant phase lag.  The loop is
  linear in the unwrapped input phase except where its wrapped phase
  error leaves [-pi, pi) (a cycle slip), and a slip is a 2*pi phase step
  whose effect is the loop's own step response.  So it runs as array
  code: an FFT convolution for the linear part, then a scan that applies
  each slip's exact step response in order;
* a sliding-window linear-least-squares fit of a degree-lambda polynomial
  to the unwrapped phase, differentiated to yield the IF.  The fit and the
  derivative are the two rank-lambda factors of the window operator,
  applied as batched matrix-vector products rather than one matrix
  product, so no trial wakes a threaded BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .sigcore import IfTrack, IqBuffer, periodic_reference, unwrap_in_place
from .txmod import ModParams, peak_deviation

LOWPASS_SPAN_S = 128 / 65536  # lowpass length, s: 128 sample intervals at 65536 S/s
MIN_CUTOFF_HZ = 64.0
MAX_SLOPE_LAG = math.pi / 2   # rad: half the phase detector's range, half kept for noise
SLIP_TAIL = 1e-20     # step-response magnitude below which a slip's effect ends
SLIP_SCAN = 8192      # samples checked per step of the cycle-slip scan
OVERLAP_SAVE_SPAN = 1 << 17   # input samples per batched FFT of the overlap-save blocks
LLS_WINDOW_CHUNK = 4096       # windows per batched np.matvec of the LLS fit
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DpllParams:
    zeta: float    # damping factor
    f_nat: float   # loop natural frequency, Hz
    fs: int
    c1: float      # integral-path gain
    c2: float      # proportional-path gain


@dataclass(frozen=True)
class LlsParams:
    window_len: int       # samples (L); normally the coded-bit length
    degree: int = 5       # phase polynomial degree (lambda)


def make_dpll_params(fs: int, f_nat: float, zeta: float = 1.0 / math.sqrt(2.0)) -> DpllParams:
    """Loop gains for a target natural frequency and damping.

    Requires fs >> w0/(2*pi); enforced as fs >= 50*f_nat.
    """
    if f_nat <= 0 or zeta <= 0:
        raise ConfigError("f_nat and zeta must be positive")
    if fs < 50.0 * f_nat:
        raise ConfigError(f"fs={fs} too low for f_nat={f_nat} (need fs >= 50*f_nat)")
    w0 = 2.0 * math.pi * f_nat
    c2 = 2.0 * zeta * w0 / fs
    c1 = c2 * c2 / (4.0 * zeta * zeta)
    return DpllParams(zeta=float(zeta), f_nat=float(f_nat), fs=int(fs), c1=c1, c2=c2)


def default_f_nat(mp: ModParams) -> float:
    """Half the coded-bit rate: passes the per-coded-bit IF dynamics and
    rejects noise beyond the effectively used Nyquist band."""
    return mp.chirp.fs / (2.0 * mp.coded_bit_len)


def default_dpll(mp: ModParams) -> DpllParams:
    """The receive chain's loop: natural frequency ``default_f_nat(mp)``.

    The keyed slopes differ from the reference by +-k0 Hz/sample, which
    a type-2 loop follows with a steady phase lag of 2*pi*k0/(fs*c1) rad.
    Noiseless bursts decoded cleanly up to a lag of 2.89 rad and failed
    from 2.92 rad, near the phase detector's +-pi, so a lag above
    MAX_SLOPE_LAG is refused.
    """
    p = make_dpll_params(mp.chirp.fs, default_f_nat(mp))
    lag = 2.0 * math.pi * mp.chirp.k0 / (mp.chirp.fs * p.c1)
    if lag > MAX_SLOPE_LAG:
        raise ConfigError(f"DPLL (f_nat {p.f_nat:g} Hz) lags the chirp slope by {lag:.2f} rad, "
                          f"over {MAX_SLOPE_LAG:.2f}; lower b0 or rep_rate, raise the "
                          f"bitrate, or use the lls estimator")
    return p


def default_cutoff(mp: ModParams) -> float:
    """Lowpass cutoff: 4x the peak ideal deviation, floored at 64 Hz."""
    return max(4.0 * peak_deviation(mp), MIN_CUTOFF_HZ)


def design_lowpass(cutoff: float, fs: int) -> np.ndarray:
    """Linear-phase windowed-sinc lowpass (raised-cosine window), unity DC gain.

    It spans LOWPASS_SPAN_S at every fs (an odd tap count, at least 3), so
    its response in Hz, transition band included, does not depend on fs.
    """
    if not 0 < cutoff < fs / 2:
        raise ConfigError(f"cutoff {cutoff} Hz outside (0, fs/2)")
    taps = max(round(LOWPASS_SPAN_S * fs), 2) | 1
    m = np.arange(taps) - (taps - 1) / 2
    h = 2.0 * cutoff / fs * np.sinc(2.0 * cutoff / fs * m)
    window = 0.5 + 0.5 * np.cos(np.pi * m / ((taps - 1) / 2))
    h *= window
    return h / h.sum()


@lru_cache(maxsize=8)
def _lowpass_kernel(cutoff: float, fs: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``design_lowpass(cutoff, fs)``, its complex overlap-save spectrum,
    and the FFT size."""
    h = design_lowpass(cutoff, fs)
    nfft = _fft_size(len(h))
    spectrum = np.fft.fft(h, nfft)
    h.flags.writeable = spectrum.flags.writeable = False  # shared by every caller
    return h, spectrum, nfft


def downconvert(rx: IqBuffer, mp: ModParams) -> IqBuffer:
    """Mix against the local reference and lowpass the product at
    ``default_cutoff(mp)``, by overlap-save FFT convolution.

    The mix runs per overlap-save group (``rx * conj(reference)`` over the
    group's span), so the full-length arrays are the input, the cached
    reference and the output alone.  ``rx`` may be complex64: widening
    to complex128 is exact.  The FIR group delay of (taps-1)/2 samples is
    compensated by shifting the output, so the baseband stays
    sample-aligned with the input.
    """
    x = rx.samples
    h, spectrum, nfft = _lowpass_kernel(default_cutoff(mp), rx.fs)
    return IqBuffer(samples=_overlap_save(x, h, spectrum, nfft, lag=(len(h) - 1) // 2,
                                          ref=periodic_reference(mp.chirp, len(x))),
                    fs=rx.fs)


def _phase_step_response(c1: float, c2: float, n: int) -> np.ndarray:
    """First ``n`` samples of the loop's phase-in -> phase-error step response.

    The error transfer is (1 - z^-1)^2 / A(z) with
    A(z) = 1 + (c2 - 2) z^-1 + (1 - c2 + c1) z^-2, so its step response is
    the impulse response q of 1/A(z) differenced once.  q comes from powers
    of A's companion matrix, doubling the computed span at each step.
    """
    a1, a2 = c2 - 2.0, 1.0 - c2 + c1
    state = np.zeros((2, n))     # column k holds (q[k], q[k-1])
    state[0, 0] = 1.0
    power = np.array([[-a1, -a2], [1.0, 0.0]])
    width = 1
    while width < n:
        take = min(width, n - width)
        state[:, width:width + take] = power @ state[:, :take]
        power = power @ power
        width *= 2
    q = state[0]
    return np.concatenate((q[:1], np.diff(q)))


@lru_cache(maxsize=8)
def _loop_kernel(c1: float, c2: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Step response g (truncated below SLIP_TAIL), its overlap-save
    spectrum, and the FFT size, for the loop with gains (c1, c2)."""
    radius = float(np.abs(np.roots([1.0, c2 - 2.0, 1.0 - c2 + c1])).max())
    if radius >= 1.0:
        raise ConfigError(f"DPLL gains c1={c1}, c2={c2} give an unstable loop "
                          f"(pole radius {radius:.6f})")
    # 1e4 of head-room below SLIP_TAIL covers the n*radius**n decay of a
    # repeated pole
    span = 2 + math.ceil(math.log(SLIP_TAIL * 1e-4) / math.log(max(radius, 0.5)))
    g = _phase_step_response(c1, c2, span)
    g = g[:int(np.flatnonzero(np.abs(g) > SLIP_TAIL)[-1]) + 1]
    nfft = _fft_size(len(g))
    spectrum = np.fft.rfft(g, nfft)
    g.flags.writeable = spectrum.flags.writeable = False  # shared by every caller
    return g, spectrum, nfft


def _fft_size(taps: int) -> int:
    """Overlap-save FFT size for a filter of ``taps`` taps: blocks of
    about 8x the taps ran fastest."""
    return 1 << (8 * taps - 1).bit_length()


def _overlap_save(x: np.ndarray, h: np.ndarray, spectrum: np.ndarray, nfft: int,
                  lag: int = 0, ref: np.ndarray | None = None) -> np.ndarray:
    """Samples lag .. lag+len(x)-1 of the linear convolution x * h, or of
    (x * conj(ref)) * h when ``ref`` (as long as ``x``) is given.

    ``spectrum`` is rfft(h, nfft) for real input and fft(h, nfft) for
    complex input.  The blocks go through batched FFTs in groups of about
    OVERLAP_SAVE_SPAN samples; each group is a view of ``x`` (a
    zero-padded copy only at the two ends), or its product with the
    reference span, and lands in one preallocated output, so the memory
    beyond that output stays bounded.
    """
    n, taps = len(x), len(h)
    keep = nfft - taps + 1
    dtype = x.dtype if ref is None else np.result_type(x, ref)
    if np.issubdtype(dtype, np.complexfloating):
        forward, inverse = np.fft.fft, np.fft.ifft
    else:
        forward, inverse = np.fft.rfft, np.fft.irfft
    group = max(OVERLAP_SAVE_SPAN // keep, 1)       # blocks per batched FFT
    total = -(-n // keep)
    out = np.empty((total, keep), dtype=dtype)
    for first in range(0, total, group):
        blocks = min(group, total - first)
        lo = first * keep + lag - (taps - 1)       # index in x of the group's first sample
        hi = lo + blocks * keep + taps - 1
        a, b = max(lo, 0), min(hi, n)               # the part of the span inside x
        if ref is None and (a, b) == (lo, hi):
            span = x[lo:hi]
        else:
            span = np.zeros(hi - lo, dtype=dtype)
            if ref is None:
                span[a - lo:b - lo] = x[a:b]
            else:
                mixed = np.conj(ref[a:b], out=span[a - lo:b - lo])
                np.multiply(x[a:b], mixed, out=mixed)   # rx first: the full-array product's rounding
        segments = np.lib.stride_tricks.sliding_window_view(span, nfft)[::keep]
        product = forward(segments, axis=1)
        product *= spectrum
        out[first:first + blocks] = inverse(product, nfft, axis=1)[:, taps - 1:]
    return out.reshape(-1)[:n]


def dpll_track(bb: IqBuffer, p: DpllParams) -> IfTrack:
    """Track the IF of ``bb`` with the second-order loop.

    The loop, per sample n: phase error e = angle(bb[n] * exp(-j*phi)),
    wrapped to [-pi, pi); v = C1 * sum(e[:n]) + C2 * e[n]; phi advances
    by v, and v * fs/(2*pi) is the frequency estimate.

    Unwrapped, e is the input phase filtered by the loop's error transfer
    (1 - z^-1)^2 / A(z): the phase increments, wrapped to one turn,
    convolved with the loop's step response g, by FFT.  Wherever that e leaves [-pi, pi), the loop
    slips a cycle: e[n] is wrapped by 2*pi*m, which is a phase step whose
    effect on every later e is 2*pi*m*g.  A scan in order applies each
    slip before it looks for the next, so the result is the loop's up to
    float rounding.  ``g`` is cut where it falls below SLIP_TAIL, and each
    slip costs O(len(g)).  Samples must be finite.
    """
    n = len(bb.samples)
    g, spectrum, nfft = _loop_kernel(p.c1, p.c2)
    step = np.diff(np.angle(bb.samples), prepend=0.0)
    step -= TWO_PI * np.round(step / TWO_PI)
    err = _overlap_save(step, g, spectrum, nfft)
    del step
    pos = 0
    while pos < n:
        window = err[pos:pos + SLIP_SCAN]
        outside = (window < -math.pi) | (window >= math.pi)
        k = int(np.argmax(outside))
        if not outside[k]:
            pos += SLIP_SCAN
            continue
        k += pos
        cycles = math.floor((err[k] + math.pi) / TWO_PI)
        stop = min(k + len(g), n)
        err[k:stop] -= (TWO_PI * cycles) * g[:stop - k]
        pos = k + 1
    integral = np.cumsum(err[:-1])
    integral *= p.c1
    err *= p.c2           # err becomes v, in place
    err[1:] += integral
    err *= bb.fs / TWO_PI
    return IfTrack(values=err, fs=bb.fs, offset=0)


def dpll_response(p: DpllParams, freq_hz: float) -> complex:
    """Closed-loop transfer H(z) at z = exp(j*2*pi*f/fs), phase in -> frequency out."""
    z = np.exp(2j * np.pi * freq_hz / p.fs)
    zm1 = z - 1.0
    return (p.c1 * zm1 + p.c2 * zm1 ** 2) / (zm1 ** 2 + p.c2 * zm1 + p.c1)


@lru_cache(maxsize=8)
def _lls_design(degree: int, window_len: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Rank-``degree`` factors of the per-window solve+differentiate operator
    on a normalized time grid.

    Returns (P, V, scale): P @ phase_window gives the fitted phase
    polynomial's coefficients of u**1 .. u**degree (the constant term has
    no derivative), and V @ coefficients evaluates d(phase)/du at every
    window sample (u spanning [-1, 1]); multiplying by scale * fs converts
    that to Hz.  The arrays are cached and read-only.
    """
    u = np.linspace(-1.0, 1.0, window_len)
    vand = np.vander(u, degree + 1, increasing=True)
    proj = np.ascontiguousarray(np.linalg.pinv(vand)[1:])
    deriv = vand[:, :-1] * np.arange(1, degree + 1)
    proj.flags.writeable = deriv.flags.writeable = False  # shared by every caller
    half_span = (window_len - 1) / 2.0
    return proj, deriv, 1.0 / (2.0 * np.pi * half_span)


def lls_track(bb: IqBuffer, p: LlsParams) -> IfTrack:
    """Sliding-window polynomial-phase IF estimate.

    The phase of ``bb`` is taken once and unwrapped in place; each
    window of ``window_len`` samples is fitted with a degree-``degree``
    polynomial via the precomputed least-squares projector (the time matrix is
    window-relative, hence identical for all windows), and the fit's
    derivative is emitted over the central ``window_len // 4`` samples.
    The first and last windows also cover their outer edges so the track
    spans the whole input.  The operator has rank ``degree``, so every
    window goes through its two factors: one batched ``np.matvec`` over a
    strided view of the phase fits the coefficients of all windows, a
    second evaluates their derivatives, LLS_WINDOW_CHUNK windows at a
    time, so the coefficients between the two stay block-sized.
    Neither is a BLAS-3 product, which would wake (and leave spinning) a
    threaded BLAS on every call.  Beyond the output, the full-length
    array is the phase alone.
    """
    if p.degree < 2:
        raise ConfigError("polynomial degree must be >= 2")
    window = p.window_len
    if window <= p.degree + 1:
        raise ConfigError(f"window_len {window} must exceed degree+1")
    total = len(bb.samples)
    if total < window:
        raise ConfigError(f"signal ({total}) shorter than window ({window})")
    hop = window // 4   # >= 1: window > degree + 1 >= 3
    lead = (window - hop) // 2

    proj, deriv, scale = _lls_design(p.degree, window)
    gain = scale * bb.fs
    phi = np.angle(bb.samples)
    unwrap_in_place(phi)
    out = np.empty(total)

    windows = np.lib.stride_tricks.sliding_window_view(phi, window)[::hop]
    stop = lead + windows.shape[0] * hop
    rows = out[lead:stop].reshape(-1, hop)
    for first in range(0, len(windows), LLS_WINDOW_CHUNK):
        chunk = slice(first, first + LLS_WINDOW_CHUNK)
        np.matvec(deriv[lead:lead + hop], np.matvec(proj, windows[chunk]), out=rows[chunk])
    out[:lead] = np.matvec(deriv[:lead], np.matvec(proj, phi[:window]))
    if stop < total:
        start_f = total - window
        out[stop:] = np.matvec(deriv[stop - start_f:], np.matvec(proj, phi[start_f:]))
    out *= gain
    return IfTrack(values=out, fs=bb.fs, offset=0)
