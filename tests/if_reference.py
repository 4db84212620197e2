"""Reference phase and IF helpers that the tests check the package against.

``unwrap_in_place`` walks a whole phase through the package's per-block
unwrap step, and ``unwrap_phase`` is ``np.unwrap`` through it;
``instantaneous_frequency`` is the IF of a noiseless capture read off its
unwrapped phase differences.  ``synthesize`` is the signal of a
full-length IF track, and ``reference_frequency`` and
``modulated_frequency`` are the full-length IF tracks whose
``synthesize`` the reference chirp and ``modulate`` equal bit for bit.
"""

import numpy as np

from fcssk.codec import CodedFrame
from fcssk.errors import ConfigError
from fcssk import sigcore
from fcssk.sigcore import ChirpParams, IqBuffer, unwrap_step
from fcssk.txmod import ModParams, _coded_bit_slopes


def synthesize(freq: np.ndarray, fs: int) -> IqBuffer:
    """Unit-amplitude signal whose IF track is ``freq`` (Hz), phase 0 at start.

    The phase is summed into the imaginary part of a zeroed output, scaled
    and exponentiated there, so the only full-length array built is the
    output.  The result equals ``exp(1j * (2*pi/fs) * cumsum(freq))`` bit
    for bit.
    """
    out = np.zeros(len(freq), dtype=np.complex128)
    np.cumsum(freq, out=out.imag)
    out.imag *= 2.0 * np.pi / fs
    np.exp(out, out=out)
    return IqBuffer(samples=out, fs=fs)


def modulated_frequency(frame: CodedFrame, mp: ModParams) -> np.ndarray:
    """Absolute IF track of the modulated signal, sawtooth-wrapped.

    f[n] accumulates the slopes of samples 0..n-1 (f[0] = 0, matching the
    zero initial IF of the reference), minus b0 per completed period.
    """
    kap = np.repeat(_coded_bit_slopes(frame, mp), mp.coded_bit_len)
    t = len(kap)
    freq = np.empty(t)
    if t:
        freq[0] = 0.0
        np.cumsum(kap[:-1], out=freq[1:])
    n = mp.chirp.n
    for period in range(1, -(-t // n)):
        freq[period * n:(period + 1) * n] -= mp.chirp.b0 * period
    return freq


def unwrap_in_place(phase: np.ndarray) -> None:
    """Write ``np.unwrap(phase)`` into ``phase``, bit for bit, for a finite
    1-D float64 array: sample 0 as it is, then blocks of
    ``sigcore.PARALLEL_BLOCK`` samples through ``unwrap_step``, carrying
    the running correction and the last wrapped sample across each block
    edge."""
    if len(phase) < 2:
        return
    carry = (0.0, float(phase[0]))
    block = sigcore.PARALLEL_BLOCK
    for lo in range(1, len(phase), block):
        carry = unwrap_step(phase[lo:lo + block], carry)


def reference_frequency(params: ChirpParams, n_samples: int) -> np.ndarray:
    """IF track of the unmodulated reference: k0 * (n mod N), sawtooth."""
    freq = np.arange(n_samples, dtype=np.float64)
    np.mod(freq, params.n, out=freq)
    freq *= params.k0
    return freq


def unwrap_phase(phase: np.ndarray) -> np.ndarray:
    """``np.unwrap(phase)``, bit for bit, for a finite 1-D float64 array
    (see ``unwrap_in_place``), leaving ``phase`` as it is."""
    out = np.array(phase, dtype=np.float64)
    unwrap_in_place(out)
    return out


def instantaneous_frequency(buf: IqBuffer) -> np.ndarray:
    """IF estimate from unwrapped phase differences, in Hz.

    Returns len(buf)-1 values; value i is the IF of the transition from
    sample i to i+1.  Exact for noiseless phase-continuous signals whose
    per-sample phase steps stay below pi.  A zero-magnitude sample has no
    phase, and raises ValueError.
    """
    s = buf.samples
    if len(s) < 2:
        raise ConfigError("need at least 2 samples")
    if np.any(s == 0):
        raise ValueError("zero-magnitude sample has undefined phase")
    dphi = np.diff(unwrap_phase(np.angle(s)))
    return dphi * (buf.fs / (2.0 * np.pi))
