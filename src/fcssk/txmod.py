"""Fractional-slope modulator: coded bits -> chirped complex baseband.

Coded bit values select the per-sample slope (kappa0 = 0 for a 0,
kappa1 = 2*k0 for a 1); a weight-balanced codeword therefore contributes
exactly its share of the nominal sweep, and the accumulated IF deviation
from the reference chirp returns to zero at every codeword boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .codec import CodedFrame, get_code_spec
from .errors import ConfigError
from .sigcore import ChirpParams, IfTrack, IqBuffer, synthesize


@dataclass(frozen=True)
class ModParams:
    chirp: ChirpParams
    code: str
    bitrate: int          # info bits/s
    m: int                # samples per info bit (fs / bitrate)
    coded_bit_len: int    # samples per coded bit (M*p/q: M/2 or 3M/4)
    kappa0: float         # slope keyed by a coded 0, Hz/sample
    kappa1: float         # slope keyed by a coded 1, Hz/sample


def make_mod_params(chirp: ChirpParams, code: str, bitrate: int) -> ModParams:
    spec = get_code_spec(code)
    if bitrate <= 0 or chirp.fs % bitrate:
        raise ConfigError(f"bitrate {bitrate} must divide fs={chirp.fs}")
    m = chirp.fs // bitrate
    # the coded-bit duration shrinks by the code rate p/q, so q coded bits
    # occupy exactly p info-bit durations and the info rate is unchanged
    if (m * spec.p) % spec.q:
        raise ConfigError(f"coded bit length {spec.p}*M/{spec.q} not integer for M={m}")
    coded_bit_len = m * spec.p // spec.q
    return ModParams(chirp=chirp, code=code, bitrate=int(bitrate), m=m,
                     coded_bit_len=coded_bit_len,
                     kappa0=0.0, kappa1=2.0 * chirp.k0)


def _check_frame(frame: CodedFrame, mp: ModParams) -> None:
    if frame.code != mp.code:
        raise ConfigError(f"frame code {frame.code!r} does not match params {mp.code!r}")
    if frame.coded_bit_len not in (0, mp.coded_bit_len):
        raise ConfigError(f"frame coded_bit_len {frame.coded_bit_len} != {mp.coded_bit_len}")


def _slope_per_sample(frame: CodedFrame, mp: ModParams) -> np.ndarray:
    kappa = np.where(frame.bits == 1, mp.kappa1, mp.kappa0)
    return np.repeat(kappa, mp.coded_bit_len)


def modulated_frequency(frame: CodedFrame, mp: ModParams) -> np.ndarray:
    """Absolute IF track of the modulated signal, sawtooth-wrapped.

    f[n] accumulates the slopes of samples 0..n-1 (f[0] = 0, matching the
    zero initial IF of the reference), minus b0 per completed period.
    """
    kap = _slope_per_sample(frame, mp)
    t = len(kap)
    freq = np.empty(t)
    if t:
        freq[0] = 0.0
        np.cumsum(kap[:-1], out=freq[1:])
        freq -= mp.chirp.b0 * (np.arange(t) // mp.chirp.n)
    return freq


def modulate(frame: CodedFrame, mp: ModParams) -> IqBuffer:
    """Synthesize the unit-envelope FCSSK signal for a coded frame."""
    _check_frame(frame, mp)
    return synthesize(modulated_frequency(frame, mp), mp.chirp.fs)


def ideal_deviation_track(frame: CodedFrame, mp: ModParams) -> IfTrack:
    """Noiseless baseband IF deviation f_tx - f_ref, one value per sample.

    values[i] is the deviation accumulated through sample i (offset=1), so
    a Manchester info bit traces a triangle peaking at +-k0*M/2 that
    returns to exactly 0 on its last sample, and every full 6b8b codeword
    ends at exactly 0.  Equals instantaneous_frequency(modulate(frame)) -
    instantaneous_frequency(reference) on the overlap.
    """
    _check_frame(frame, mp)
    kap = _slope_per_sample(frame, mp)
    dev = np.cumsum(kap - mp.chirp.k0)
    return IfTrack(values=dev, fs=mp.chirp.fs, offset=1)


def peak_deviation(mp: ModParams) -> float:
    """Run-length bound on |IF deviation|: the longest run of equal coded
    bits inside any codeword, times L*k0 (1*L*k0 Manchester, 4*L*k0 6b8b).

    Not reached for 6b8b: 4*L*k0 needs a leading run of four, and both
    such codewords (00001111, 11110000) are excluded, so 6b8b reaches 3*L*k0.
    """
    runs = (len(list(run)) for word in get_code_spec(mp.code).codebook
            for _, run in groupby(word))
    return max(runs) * mp.coded_bit_len * mp.chirp.k0
