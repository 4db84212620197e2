"""Chirp configuration, complex-signal containers and reference synthesis.

Conventions used throughout the package:

* frequencies are in Hz, slopes in Hz per sample;
* the phase accumulates recursively, phi[n] = phi[n-1] + 2*pi*f[n]*Ts,
  with phi and the instantaneous frequency (IF) both starting at 0 at
  transmission start, so the first sample of any transmit buffer is 1+0j;
* f[n] is the sum of the per-sample slope contributions of samples 0..n-1,
  minus b0 for every completed chirp period (sawtooth wrap).  The wrap
  subtracts exactly b0 rather than resetting to zero, so any
  modulation-induced deviation survives a period boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, ConfigError, UndefinedPhaseError


@dataclass(frozen=True)
class ChirpParams:
    """Static chirp configuration and its derived constants."""

    b0: float        # chirp bandwidth, Hz
    rep_rate: float  # chirp repetitions per second, Hz
    fs: int          # sampling rate, samples/s
    n: int           # samples per chirp repetition
    k0: float        # nominal slope, Hz per sample
    t0: float        # chirp period, s


@dataclass(frozen=True)
class IqBuffer:
    """Complex baseband sample sequence."""

    samples: np.ndarray
    fs: int

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class IfTrack:
    """Instantaneous-frequency sequence in Hz.

    ``values[i]`` is the IF of the transition ending at absolute sample
    ``offset + i`` of the stream the track was computed from.
    """

    values: np.ndarray
    fs: int
    offset: int = 0

    def __len__(self) -> int:
        return len(self.values)


def derive_params(b0: float, rep_rate: float, fs: int, strict: bool = False) -> ChirpParams:
    """Build ChirpParams, validating divisibility and aliasing constraints.

    With ``strict`` on, additionally enforce the homing-signal envelope
    (2 <= rep_rate <= 4 repetitions/s, b0 >= 700 Hz).
    """
    if b0 <= 0 or rep_rate <= 0 or fs <= 0:
        raise ConfigError("b0, rep_rate and fs must be positive")
    if b0 >= fs / 2:
        raise AliasingError(f"chirp bandwidth {b0} Hz needs fs > {2 * b0:.0f}, got {fs}")
    n_f = fs / rep_rate
    n = int(round(n_f))
    if abs(n_f - n) > 1e-9 or n < 1:
        raise ConfigError(f"fs={fs} is not divisible by rep_rate={rep_rate}")
    if strict:
        if not (2.0 <= rep_rate <= 4.0):
            raise ConfigError(f"strict mode: rep_rate must be in [2, 4] Hz, got {rep_rate}")
        if b0 < 700.0:
            raise ConfigError(f"strict mode: b0 must be >= 700 Hz, got {b0}")
    return ChirpParams(b0=float(b0), rep_rate=float(rep_rate), fs=int(fs),
                       n=n, k0=float(b0) / n, t0=1.0 / float(rep_rate))


def synthesize(freq: np.ndarray, fs: int) -> IqBuffer:
    """Unit-amplitude signal whose IF track is ``freq`` (Hz), phase 0 at start.

    The phase is summed into the imaginary part of the output, scaled and
    exponentiated there, so the only full-length array built is the
    output.  The result equals ``exp(1j * (2*pi/fs) * cumsum(freq))`` bit
    for bit: that product's real part is a zero, and exp(+-0 + j*phi) is
    the same number.
    """
    out = np.zeros(len(freq), dtype=np.complex128)
    np.cumsum(freq, out=out.imag)
    out.imag *= 2.0 * np.pi / fs
    np.exp(out, out=out)
    return IqBuffer(samples=out, fs=fs)


def reference_frequency(params: ChirpParams, n_samples: int) -> np.ndarray:
    """IF track of the unmodulated reference: k0 * (n mod N), sawtooth."""
    freq = np.arange(n_samples, dtype=np.float64)
    np.mod(freq, params.n, out=freq)
    freq *= params.k0
    return freq


def reference_chirp(params: ChirpParams, n_periods: int) -> IqBuffer:
    """Unmodulated linear chirp of ``n_periods`` repetitions.

    Within each period the IF rises from 0 to b0*(N-1)/N in steps of k0;
    at every period boundary b0 is subtracted (sawtooth reset).
    """
    if n_periods < 1:
        raise ConfigError("n_periods must be >= 1")
    freq = reference_frequency(params, n_periods * params.n)
    return synthesize(freq, params.fs)


def reference_tail(params: ChirpParams, n_samples: int) -> np.ndarray:
    """Last ``n_samples`` of one reference period, phase-continuous into
    a following transmission that starts at phase 0.

    Used to model a receiver that starts listening mid-stream: appending a
    buffer whose first sample is 1+0j after this tail yields a
    phase-continuous periodic chirp stream.
    """
    if not 0 <= n_samples <= params.n:
        raise ConfigError(f"tail length must be in [0, {params.n}], got {n_samples}")
    if n_samples == 0:
        return np.zeros(0, dtype=np.complex128)
    ref = reference_chirp(params, 1).samples
    # phase at the (virtual) next sample equals phase of the last one because
    # the post-wrap IF is exactly 0, so rotating by conj(last) lands at 0.
    return ref[params.n - n_samples:] * np.conj(ref[params.n - 1])


_PERIODIC_CACHE: dict[ChirpParams, np.ndarray] = {}


def periodic_reference(params: ChirpParams, n_samples: int) -> np.ndarray:
    """First ``n_samples`` of the endless periodic reference chirp (cached)."""
    cached = _PERIODIC_CACHE.get(params)
    if cached is None or len(cached) < n_samples:
        periods = max(-(-n_samples // params.n), 1)
        cached = reference_chirp(params, periods).samples
        _PERIODIC_CACHE[params] = cached
    return cached[:n_samples]


def unwrap_correction(step: np.ndarray) -> np.ndarray:
    """``np.unwrap``'s correction, bit for bit, for phase steps of at least pi."""
    dmod = np.mod(step + np.pi, 2.0 * np.pi) - np.pi
    dmod[(dmod == -np.pi) & (step > 0)] = np.pi   # numpy's tie rule: a +pi step stays +pi
    dmod -= step
    return dmod


UNWRAP_BLOCK = 1 << 16   # samples per block of unwrap_in_place


def unwrap_in_place(phase: np.ndarray) -> None:
    """Write ``np.unwrap(phase)`` into ``phase``, bit for bit, for a finite
    1-D float64 array.

    ``np.unwrap`` runs its ``mod`` correction over every phase step, yet
    the correction is non-zero only where a step is at least pi: a few
    per mille of the samples of a lowpassed baseband, about a quarter of
    pure noise.  Here the same correction runs at those steps only, and
    its running sum is spread over the runs between them.  Adding 0.0
    is exact, so the result equals numpy's dense cumulative sum.  The
    array is walked in blocks of UNWRAP_BLOCK samples, carrying the
    running sum and the last wrapped sample across each block edge, so
    the temporaries stay that size whatever the length.
    """
    if len(phase) < 2:
        return
    offset = 0.0              # running correction into the block's first sample
    prev = float(phase[0])    # wrapped phase of the sample before the block
    for lo in range(1, len(phase), UNWRAP_BLOCK):
        block = phase[lo:lo + UNWRAP_BLOCK]
        step = np.diff(block, prepend=prev)
        prev = float(block[-1])
        wraps = np.flatnonzero(np.abs(step) >= np.pi)
        offsets = np.empty(len(wraps) + 1)
        offsets[0] = offset
        offsets[1:] = unwrap_correction(step[wraps])
        np.cumsum(offsets, out=offsets)
        offset = float(offsets[-1])
        block += np.repeat(offsets, np.diff(wraps, prepend=0, append=len(block)))


def unwrap_phase(phase: np.ndarray) -> np.ndarray:
    """``np.unwrap(phase)``, bit for bit, for a finite 1-D float64 array
    (see ``unwrap_in_place``)."""
    out = np.array(phase, dtype=np.float64)
    unwrap_in_place(out)
    return out


def instantaneous_frequency(buf: IqBuffer) -> IfTrack:
    """IF estimate from unwrapped phase differences, in Hz.

    Returns len(buf)-1 values; values[i] is the IF of the transition from
    sample i to i+1 (offset=1).  Exact for noiseless phase-continuous
    signals whose per-sample phase steps stay below pi.
    """
    s = buf.samples
    if len(s) < 2:
        raise ConfigError("need at least 2 samples")
    if np.any(s == 0):
        raise UndefinedPhaseError("zero-magnitude sample has undefined phase")
    dphi = np.diff(unwrap_phase(np.angle(s)))
    return IfTrack(values=dphi * (buf.fs / (2.0 * np.pi)), fs=buf.fs, offset=1)
