"""Simulated channel impairments: complex AWGN and integer-sample delay.

Noise generation is pinned for reproducibility: a numpy ``Generator`` with
the PCG64 bit generator, seeded through ``SeedSequence``, drawing I and Q
with ``standard_normal`` (ziggurat).  A given (seed, purpose, indices)
tuple therefore yields bit-identical noise on every run of this package;
cross-implementation bit-exactness is not promised, only the statistics.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .sigcore import ChirpParams, IqBuffer, block_slices, reference_tail

# purpose tags for derived PRNG streams, so one master seed reproduces
# an entire simulation without stream collisions
STREAM_BITS = 1
STREAM_NOISE = 2
STREAM_DELAY = 3


def derived_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent PRNG stream for (seed, purpose, trial/point indices)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def db_to_linear(db: float) -> float:
    """Power ratio 10^(db/10) as a Python float; ConfigError naming ``db``
    where it overflows (a numpy ``db`` is converted first, so it raises
    too, rather than warning and giving inf)."""
    try:
        ratio = 10.0 ** (float(db) / 10.0)
    except OverflowError:
        ratio = math.inf
    if ratio == math.inf:
        raise ConfigError(f"{db:g} dB overflows a float as a power ratio")
    return ratio


def apply_awgn(buf: IqBuffer, snr_db: float | None, rng: np.random.Generator) -> IqBuffer:
    """Add circularly symmetric complex Gaussian noise at the given SNR,
    drawn from ``rng`` (``derived_rng(seed, STREAM_NOISE)`` for a seed).

    SNR is signal power (unit amplitude) over *total* complex noise power:
    sigma^2 = 10^(-snr_db/10), split sigma^2/2 per quadrature.
    ``snr_db=None`` (or +inf) means noiseless passthrough; NaN, -inf and
    an SNR whose noise power overflows a float (below about -3083 dB)
    raise ConfigError.

    All of I is drawn, then all of Q, in the pieces of ``block_slices``,
    into the one complex output, which is then scaled and has the signal
    added in place.  A draw split into pieces is the same draw, so the
    result equals ``samples + scale * (I + 1j*Q)`` bit for bit.
    """
    if snr_db is None or snr_db == np.inf:
        return buf
    if not np.isfinite(snr_db):
        raise ConfigError(f"SNR must be a finite number of dB or +inf, got {snr_db}")
    sigma2 = db_to_linear(-float(snr_db))
    scale = np.sqrt(sigma2 / 2.0)
    noise = np.empty(len(buf.samples), dtype=np.complex128)
    for quadrature in (noise.real, noise.imag):
        for piece in block_slices(len(noise)):
            quadrature[piece] = rng.standard_normal(piece.stop - piece.start)
    noise *= scale
    noise += buf.samples
    return IqBuffer(samples=noise, fs=buf.fs)


def apply_delay(buf: IqBuffer, delay: int, params: ChirpParams) -> IqBuffer:
    """Model a receiver that starts listening ``delay`` samples early.

    Prepends the phase-continuous tail of a preceding reference-consistent
    chirp period, so the output is a steady-state stream in which the
    payload starts at sample ``delay``.
    """
    if delay < 0:
        raise ConfigError("delay must be >= 0")
    if delay == 0:
        return buf
    if delay >= len(buf.samples):
        raise ConfigError(f"delay {delay} >= buffer length {len(buf.samples)}")
    if delay >= params.n:
        raise ConfigError(f"delay {delay} must stay below one chirp period ({params.n})")
    prefix = reference_tail(params, delay)
    return IqBuffer(samples=np.concatenate([prefix, buf.samples]), fs=buf.fs)
