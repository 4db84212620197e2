"""Simulated channel impairments: complex AWGN and integer-sample delay.

Noise generation is pinned for reproducibility: a numpy ``Generator`` with
the PCG64 bit generator, seeded through ``SeedSequence``, drawing I and Q
with ``standard_normal`` (ziggurat).  A given (seed, purpose, indices)
tuple therefore yields bit-identical noise on every run of this package;
cross-implementation bit-exactness is not promised, only the statistics.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .sigcore import ChirpParams, IqBuffer, reference_tail

# purpose tags for derived PRNG streams, so one master seed reproduces
# an entire simulation without stream collisions
STREAM_BITS = 1
STREAM_NOISE = 2
STREAM_DELAY = 3

AWGN_CHUNK = 1 << 16   # samples per noise draw


def derived_rng(seed: int, *tags: int) -> np.random.Generator:
    """Independent PRNG stream for (seed, purpose, trial/point indices)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def apply_awgn(buf: IqBuffer, snr_db: float | None, seed_or_rng) -> IqBuffer:
    """Add circularly symmetric complex Gaussian noise at the given SNR.

    SNR is signal power (unit amplitude) over *total* complex noise power:
    sigma^2 = 10^(-snr_db/10), split sigma^2/2 per quadrature.
    ``snr_db=None`` (or +inf) means noiseless passthrough; NaN and -inf
    raise ConfigError.

    All of I is drawn, then all of Q, each in AWGN_CHUNK-sample pieces
    straight into the one complex output, which is then scaled and has
    the signal added in place.  A draw split into pieces is the same draw,
    so the result equals ``samples + scale * (I + 1j*Q)`` bit for bit.
    """
    if snr_db is None or snr_db == np.inf:
        return buf
    if not np.isfinite(snr_db):
        raise ConfigError(f"SNR must be a finite number of dB or +inf, got {snr_db}")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else derived_rng(seed_or_rng, STREAM_NOISE)
    sigma2 = 10.0 ** (-float(snr_db) / 10.0)
    scale = np.sqrt(sigma2 / 2.0)
    n = len(buf.samples)
    noise = np.empty(n, dtype=np.complex128)
    chunk = np.empty(min(n, AWGN_CHUNK))   # standard_normal(out=) needs a contiguous array
    for quadrature in (noise.real, noise.imag):
        for lo in range(0, n, AWGN_CHUNK):
            draw = chunk[:min(AWGN_CHUNK, n - lo)]
            rng.standard_normal(out=draw)
            quadrature[lo:lo + len(draw)] = draw
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
