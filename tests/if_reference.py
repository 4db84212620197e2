"""Reference phase and IF helpers that the tests check the package against.

``unwrap_phase`` is ``np.unwrap`` through the package's block unwrap,
``instantaneous_frequency`` is the IF of a noiseless capture read off its
unwrapped phase differences, and ``reference_frequency`` is the
full-length sawtooth IF track whose ``synthesize`` the reference chirp
equals bit for bit.
"""

import numpy as np

from fcssk.errors import ConfigError
from fcssk.sigcore import ChirpParams, IqBuffer, unwrap_in_place


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
