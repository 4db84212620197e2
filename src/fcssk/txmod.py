"""Fractional-slope modulator: coded bits -> chirped complex baseband.

Coded bit values select the per-sample slope (0 for a 0, 2*k0 for a 1);
a weight-balanced codeword therefore contributes exactly its share of the
nominal sweep, and the accumulated IF deviation from the reference chirp
returns to zero at every codeword boundary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import sigcore
from .codec import CodedFrame, get_code_spec, run_lengths
from .errors import ConfigError
from .sigcore import ChirpParams, IqBuffer


@dataclass(frozen=True)
class ModParams:
    chirp: ChirpParams
    code: str
    bitrate: int          # info bits/s
    m: int                # samples per info bit (fs / bitrate)
    coded_bit_len: int    # samples per coded bit (M*p/q: M/2 or 3M/4)


def make_mod_params(chirp: ChirpParams, code: str, bitrate: int) -> ModParams:
    spec = get_code_spec(code)
    if not (isinstance(bitrate, numbers.Integral) or float(bitrate).is_integer()):
        raise ConfigError(f"bitrate must be a whole number of bits/s, got {bitrate}")
    bitrate = int(bitrate)
    if bitrate <= 0 or chirp.fs % bitrate:
        raise ConfigError(f"bitrate {bitrate} must divide fs={chirp.fs}")
    m = chirp.fs // bitrate
    # the coded-bit duration shrinks by the code rate p/q, so q coded bits
    # occupy exactly p info-bit durations and the info rate is unchanged
    if (m * spec.p) % spec.q:
        raise ConfigError(f"coded bit length {spec.p}*M/{spec.q} not integer for M={m}")
    return ModParams(chirp=chirp, code=code, bitrate=bitrate, m=m,
                     coded_bit_len=m * spec.p // spec.q)


def _check_frame(frame: CodedFrame, mp: ModParams) -> None:
    if frame.code != mp.code:
        raise ConfigError(f"frame code {frame.code!r} does not match params {mp.code!r}")
    if frame.coded_bit_len not in (0, mp.coded_bit_len):
        raise ConfigError(f"frame coded_bit_len {frame.coded_bit_len} != {mp.coded_bit_len}")


def _coded_bit_slopes(frame: CodedFrame, mp: ModParams) -> np.ndarray:
    """The per-sample slope of each coded bit: 0 for a 0, 2*k0 for a 1."""
    return np.where(frame.bits == 1, 2.0 * mp.chirp.k0, 0.0)


def modulate(frame: CodedFrame, mp: ModParams) -> IqBuffer:
    """Synthesize the unit-envelope FCSSK signal for a coded frame, phase 0
    at start.

    The IF f[n] accumulates the slopes of samples 0..n-1 (f[0] = 0,
    matching the zero initial IF of the reference), minus b0 per
    completed period (sawtooth wrap), and sample n is
    ``exp(1j * (2*pi/fs) * cumsum(f)[n])``, bit for bit.  No full-length
    slope or IF track is built: on ``run_chain``, the heads sum each
    block's slopes and then its phase straight into the imaginary part
    of its slice of the zeroed output, in order, carrying the raw slope
    sum and the phase sum (a block that begins ``block[0] += carry`` sums
    to the same bits) and subtracting the wrap per period; the tails
    scale and exponentiate each summed block in place, beside the later
    heads.  The real part stays zero, and exp(+-0 + j*phi) is the same
    number as the formula's.
    """
    _check_frame(frame, mp)
    n, b0, fs, bit_len = mp.chirp.n, mp.chirp.b0, mp.chirp.fs, mp.coded_bit_len
    slopes = _coded_bit_slopes(frame, mp)
    out = np.zeros(len(slopes) * bit_len, dtype=np.complex128)

    def phase_sums(s: slice, carry: tuple[float, float]) -> tuple[float, float]:
        slope_sum, phase_sum = carry    # f[lo] before its wrap, and the phase through lo - 1
        lo, hi = s.start, s.stop
        phase = out[s].imag
        first = lo // bit_len           # the coded bit of sample lo
        phase[0] = slope_sum
        phase[1:] = np.repeat(slopes[first:(hi - 2) // bit_len + 1],
                              bit_len)[lo - first * bit_len:][:hi - lo - 1]
        np.cumsum(phase, out=phase)
        slope_sum = float(phase[-1]) + float(slopes[(hi - 1) // bit_len])
        for period in range(max(lo // n, 1), -(-hi // n)):
            phase[max(period * n - lo, 0):(period + 1) * n - lo] -= b0 * period
        phase[0] += phase_sum
        np.cumsum(phase, out=phase)
        return slope_sum, float(phase[-1])

    def scale_exp(s: slice) -> None:
        block = out[s]
        block.imag *= 2.0 * np.pi / fs
        np.exp(block, out=block)
    sigcore.run_chain(phase_sums, scale_exp, len(out), (0.0, 0.0))
    return IqBuffer(samples=out, fs=fs)


def ideal_deviation_track(frame: CodedFrame, mp: ModParams) -> np.ndarray:
    """Noiseless baseband IF deviation f_tx - f_ref in Hz, one float64 value
    per sample.

    Value i is the deviation accumulated through sample i, so a Manchester
    info bit traces a triangle peaking at +-k0*M/2 that returns to exactly
    0 on its last sample, and every full 6b8b codeword ends at exactly 0.
    It equals the IF of the transition from sample i to i+1 of
    modulate(frame) minus that of the reference chirp.
    """
    _check_frame(frame, mp)
    kap = np.repeat(_coded_bit_slopes(frame, mp), mp.coded_bit_len)
    return np.cumsum(kap - mp.chirp.k0)


def peak_deviation(mp: ModParams) -> float:
    """Run-length bound on |IF deviation|: the longest run of equal coded
    bits inside any codeword, times L*k0 (1*L*k0 Manchester, 4*L*k0 6b8b).

    Not reached for 6b8b: 4*L*k0 needs a leading run of four, and both
    such codewords (00001111, 11110000) are excluded, so 6b8b reaches 3*L*k0.
    """
    longest = max(max(run_lengths(word)) for word in get_code_spec(mp.code).codebook)
    return longest * mp.coded_bit_len * mp.chirp.k0
