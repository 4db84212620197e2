"""Receiver front half: downconversion and instantaneous-frequency estimation.

Two estimators are provided:

* a second-order digital PLL whose closed loop realizes
  H(z) = (C1*(z-1) + C2*(z-1)^2) / ((z-1)^2 + C2*(z-1) + C1)
  from input phase to estimated frequency, with C2 = 2*ZETA*w0/fs and
  C1 = C2^2/(4*ZETA^2); a type-2 loop with zero steady-state error on
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

import numpy as np

from .errors import ConfigError
from .sigcore import (IqBuffer, block_slices, mix_reference, periodic_reference, run_chain,
                      run_parallel, unwrap_step)
from .txmod import ModParams, peak_deviation

LOWPASS_SPAN_S = 128 / 65536  # lowpass length, s: 128 sample intervals at 65536 S/s
MIN_CUTOFF_HZ = 64.0
MAX_SLOPE_LAG = math.pi / 2   # rad: half the phase detector's range, half kept for noise
SLIP_TAIL = 1e-20     # step-response magnitude below which a slip's effect ends
SLIP_SCAN = 8192      # samples checked per step of the cycle-slip scan
TWO_PI = 2.0 * math.pi
ZETA = 1.0 / math.sqrt(2.0)   # the DPLL's damping


@dataclass(frozen=True)
class DpllParams:
    fs: int
    c1: float      # integral-path gain
    c2: float      # proportional-path gain


@dataclass(frozen=True)
class LlsParams:
    """A degree >= 2 phase fit over windows of more than degree + 1
    samples: ConfigError where it is built otherwise."""

    window_len: int       # samples (L); normally the coded-bit length
    degree: int = 5       # phase polynomial degree (lambda)

    def __post_init__(self):
        if self.degree < 2:
            raise ConfigError("polynomial degree must be >= 2")
        if self.window_len <= self.degree + 1:
            raise ConfigError(f"window_len {self.window_len} must exceed degree+1")


def make_dpll_params(fs: int, f_nat: float) -> DpllParams:
    """Loop gains for the natural frequency ``f_nat`` at the fixed damping
    ZETA; fs >> w0/(2*pi) is required, as fs >= 50*f_nat (ConfigError)."""
    if f_nat <= 0:
        raise ConfigError("f_nat must be positive")
    if fs < 50.0 * f_nat:
        raise ConfigError(f"fs={fs} too low for f_nat={f_nat} (need fs >= 50*f_nat)")
    w0 = 2.0 * math.pi * f_nat
    c2 = 2.0 * ZETA * w0 / fs
    c1 = c2 * c2 / (4.0 * ZETA * ZETA)
    return DpllParams(fs=int(fs), c1=c1, c2=c2)


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
        raise ConfigError(f"DPLL (f_nat {default_f_nat(mp):g} Hz) lags the chirp slope by "
                          f"{lag:.2f} rad, over {MAX_SLOPE_LAG:.2f}; lower b0 or rep_rate, "
                          f"raise the bitrate, or use the lls estimator")
    return p


def lowpass(mp: ModParams) -> np.ndarray:
    """The receive lowpass: cutoff 4x the peak ideal deviation, at least MIN_CUTOFF_HZ."""
    return design_lowpass(max(4.0 * peak_deviation(mp), MIN_CUTOFF_HZ), mp.chirp.fs)


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


def downconvert(rx: IqBuffer, mp: ModParams) -> IqBuffer:
    """Mix against the local reference and lowpass the product with
    ``lowpass(mp)``, by overlap-save FFT convolution.

    Each overlap-save group's span is mixed by ``sigcore.mix_reference``
    straight into the group's buffer, so the full-length arrays are the
    input and the output alone.  ``rx``, at ``mp.chirp.fs`` as
    ``receive_chain`` checks, may be complex64: widening to complex128 is
    exact.  The FIR group delay of (taps-1)/2 samples is compensated by
    shifting the output, so the baseband stays sample-aligned with it.
    """
    x, ref, h = rx.samples, periodic_reference(mp.chirp), lowpass(mp)
    return IqBuffer(samples=_overlap_save(lambda a, b, out: mix_reference(x, ref, a, out), len(x),
                                          h, np.complex128, lag=(len(h) - 1) // 2),
                    fs=mp.chirp.fs)


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


def _loop_kernel(c1: float, c2: float) -> np.ndarray:
    """Step response g of the loop with gains (c1, c2), truncated where
    it falls below SLIP_TAIL: the taps ``_overlap_save`` convolves."""
    radius = float(np.abs(np.roots([1.0, c2 - 2.0, 1.0 - c2 + c1])).max())
    if radius >= 1.0:
        raise ConfigError(f"DPLL gains c1={c1}, c2={c2} give an unstable loop "
                          f"(pole radius {radius:.6f})")
    # 1e4 of head-room below SLIP_TAIL covers the n*radius**n decay of a
    # repeated pole
    span = 2 + math.ceil(math.log(SLIP_TAIL * 1e-4) / math.log(max(radius, 0.5)))
    g = _phase_step_response(c1, c2, span)
    return g[:int(np.flatnonzero(np.abs(g) > SLIP_TAIL)[-1]) + 1]


def _fft_size(taps: int) -> int:
    """Overlap-save FFT size for a filter of ``taps`` taps: blocks of
    about 8x the taps ran fastest."""
    return 1 << (8 * taps - 1).bit_length()


def _overlap_save(fill, n: int, taps: np.ndarray, dtype, lag: int = 0) -> np.ndarray:
    """Samples lag .. lag+n-1 of the linear convolution x * taps, where
    ``fill(a, b, out)`` writes samples a .. b-1 of the n-sample input x
    into ``out``; x and the taps go through ``fft`` if ``dtype`` is
    complex128 and ``rfft`` if float64, in ``_fft_size(len(taps))`` points.

    The blocks go through batched FFTs, one block a row, in groups of
    ``block_slices``: an FFT call of one row ran about a quarter slower
    per row than one of two, and the DPLL's blocks are nearly that long.
    Each group's span is zeroed, filled where it lies inside x, and
    lands in one preallocated output, so the temporaries in flight stay
    about one group per worker.  Each block is its own FFT, whatever its
    group, so the output does not depend on the split.
    """
    count = len(taps)
    nfft = _fft_size(count)
    forward, inverse = ((np.fft.fft, np.fft.ifft) if np.dtype(dtype).kind == "c"
                        else (np.fft.rfft, np.fft.irfft))
    spectrum = forward(taps, nfft)
    keep = nfft - count + 1
    total = -(-n // keep)
    out = np.empty((total, keep), dtype=dtype)

    def convolve(group: slice) -> None:
        lo = group.start * keep + lag - (count - 1)   # index in x of the group's first sample
        hi = group.stop * keep + lag
        a, b = max(lo, 0), min(hi, n)               # the part of the span inside x
        span = np.zeros(hi - lo, dtype=dtype)
        fill(a, b, span[a - lo:b - lo])
        segments = np.lib.stride_tricks.sliding_window_view(span, nfft)[::keep]
        product = forward(segments, axis=1)
        product *= spectrum
        out[group] = inverse(product, nfft, axis=1)[:, count - 1:]
    run_parallel(convolve, block_slices(total, keep))
    return out.reshape(-1)[:n]


def _angle(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.angle(x)`` written into ``out``, block by block of
    ``block_slices``, by np.angle's own formula ``arctan2(imag, real)``."""
    def angle(s: slice) -> None:
        np.arctan2(x[s].imag, x[s].real, out=out[s])
    run_parallel(angle, block_slices(len(x)))
    return out


def dpll_track(bb: IqBuffer, p: DpllParams) -> np.ndarray:
    """Track the IF of ``bb`` with the second-order loop: one float64 value
    in Hz per sample, value i being the IF of the transition that ends at
    sample i.

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

    Two float64 arrays are built at full length: the phase, and the
    loop error, the overlap-save output, each of whose groups is filled
    with the wrapped phase increments of its own span.  ``bb`` is dropped
    once the phase is taken, so a baseband handed over inline is freed
    before the loop error.  v is built in the loop error, its integral a
    running ``cumsum`` carried from block to block of
    ``sigcore.block_slices`` (a block that begins ``block[0] += carry``
    sums to the same bits).
    """
    n, fs = len(bb.samples), bb.fs
    g = _loop_kernel(p.c1, p.c2)
    phase = _angle(bb.samples, np.empty(n))
    del bb

    def wrapped_steps(a: int, b: int, out: np.ndarray) -> None:
        out[0] = phase[a] - (phase[a - 1] if a else 0.0)   # the phase before sample 0 is 0
        np.subtract(phase[a + 1:b], phase[a:b - 1], out=out[1:])
        out -= TWO_PI * np.round(out / TWO_PI)
    err = _overlap_save(wrapped_steps, n, g, np.float64)
    del phase
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
    carry = 0.0           # sum(e[:lo])
    for s in block_slices(n):
        block = err[s]                  # e, becomes v in place
        integral = block.copy()
        if s.start:
            integral[0] += carry
        np.cumsum(integral, out=integral)
        block *= p.c2
        if s.start:
            block[0] += p.c1 * carry
        carry = float(integral[-1])
        integral *= p.c1
        block[1:] += integral[:-1]
        block *= fs / TWO_PI
    return err


def dpll_response(p: DpllParams, freq_hz: float) -> complex:
    """Closed-loop transfer H(z) at z = exp(j*2*pi*f/fs), phase in -> frequency out."""
    z = np.exp(2j * np.pi * freq_hz / p.fs)
    zm1 = z - 1.0
    return (p.c1 * zm1 + p.c2 * zm1 ** 2) / (zm1 ** 2 + p.c2 * zm1 + p.c1)


def _lls_design(degree: int, window_len: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Rank-``degree`` factors of the per-window solve+differentiate operator
    on a normalized time grid.

    Returns (P, V, scale): P @ phase_window gives the fitted phase
    polynomial's coefficients of u**1 .. u**degree (the constant term has
    no derivative), and V @ coefficients evaluates d(phase)/du at every
    window sample (u spanning [-1, 1]); multiplying by scale * fs converts
    that to Hz.
    """
    u = np.linspace(-1.0, 1.0, window_len)
    vand = np.vander(u, degree + 1, increasing=True)
    proj = np.ascontiguousarray(np.linalg.pinv(vand)[1:])
    deriv = vand[:, :-1] * np.arange(1, degree + 1)
    half_span = (window_len - 1) / 2.0
    return proj, deriv, 1.0 / (2.0 * np.pi * half_span)


def lls_track(bb: IqBuffer, p: LlsParams) -> np.ndarray:
    """Sliding-window polynomial-phase IF estimate: one float64 value in Hz
    per sample, value i being the IF of the transition that ends at sample i.

    The phase of ``bb`` is taken once and unwrapped in place; each
    window of ``window_len`` samples is fitted with a degree-``degree``
    polynomial via the precomputed least-squares projector (the time matrix is
    window-relative, hence identical for all windows), and the fit's
    derivative is emitted over the central ``window_len // 4`` samples.
    The first and last windows also cover their outer edges so the track
    spans the whole input.  The operator has rank ``degree``, so every
    window goes through its two factors: one batched ``np.matvec`` over a
    strided view of the phase fits the coefficients of a run of windows,
    a second evaluates their derivatives, one block's windows at a time,
    so the coefficients between the two stay block-sized.  Neither is a
    BLAS-3 product, which would wake (and leave spinning) a threaded BLAS
    on every call.

    The phase runs block by block on ``run_parallel``.  The unwrap, a
    running sum, runs as the heads of ``run_chain``, one block of
    ``sigcore.block_slices`` each, in order; each block's
    tail fits the windows whose last sample lies in it, which the heads
    before it have unwrapped, beside the next block's unwrap.
    ``np.matvec`` releases the interpreter lock, so a fit overlaps an
    unwrap, though two fits at once ran no faster than one.  The two edge
    windows are fitted after the chain.  Each window's fit does not
    depend on the run it is batched in, so the track does not depend on
    the split.  Beyond the output, the full-length array is the phase
    alone: ``bb`` is dropped once the phase is taken, so a baseband
    handed over inline is freed before the track.  ``p`` was checked
    where it was built; ConfigError here means ``bb`` is shorter than a window.
    """
    window, total = p.window_len, len(bb.samples)
    if total < window:
        raise ConfigError(f"signal ({total}) shorter than window ({window})")
    hop = window // 4   # >= 1: window > degree + 1 >= 3
    lead = (window - hop) // 2

    proj, deriv, scale = _lls_design(p.degree, window)
    gain = scale * bb.fs
    phi = _angle(bb.samples, np.empty(total, dtype=bb.samples.real.dtype))
    del bb
    out = np.empty(total)

    windows = np.lib.stride_tricks.sliding_window_view(phi, window)[::hop]
    stop = lead + windows.shape[0] * hop
    rows = out[lead:stop].reshape(-1, hop)

    def unwrap(s: slice, carry: tuple[float, float]) -> tuple[float, float]:
        return unwrap_step(phi[1 + s.start:1 + s.stop], carry)   # sample 0 stays

    def fit(s: slice) -> None:
        # window k ends at sample k*hop + window - 1; this block unwrapped
        # samples 1 + s.start .. s.stop; a block shorter than a window may
        # end none, and a negative stop must not count back from the end
        first = max(-((window - 2 - s.start) // hop), 0)
        last = min((s.stop - window + 1) // hop + 1, len(windows))
        mine = slice(first, max(last, first))
        np.matvec(deriv[lead:lead + hop], np.matvec(proj, windows[mine]), out=rows[mine])
        rows[mine] *= gain
    run_chain(unwrap, fit, total - 1, (0.0, float(phi[0])))
    out[:lead] = np.matvec(deriv[:lead], np.matvec(proj, phi[:window])) * gain
    start_f = total - window    # the last window: its fit covers the track past stop
    out[stop:] = np.matvec(deriv[stop - start_f:], np.matvec(proj, phi[start_f:])) * gain
    return out
