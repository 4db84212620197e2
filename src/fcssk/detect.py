"""Decision stage: max-correlation detection over a codeword template bank.

Estimated-IF segments of p info bits are correlated against the ideal
deviation templates of all 2**p codewords, generated by the modulator
itself, so any change to the wire format propagates automatically.
Templates are energy-normalized, making the max-correlation rule coincide
with the minimum-squared-error detector even though codeword deviation
shapes differ in energy.  Manchester's two templates are exact negatives,
so its rule reduces to the sign of the triangle correlation.

Every template is a ramp ``start + slope*i`` on each coded bit, so a
segment's correlation with it needs only the segment's two moments per
coded bit, sum(x) and sum(i*x).  The detector correlates those moments
with a cached (start, slope) matrix derived from the bank: batched
matrix-vector products of q and 2**p rows instead of a matrix product
with the full bank, so no trial wakes a threaded BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codec import encode, get_code_spec, unpack_values
from .errors import ConfigError
from .sigcore import IfTrack
from .txmod import ModParams, ideal_deviation_track


@dataclass(frozen=True)
class Decision:
    bits: np.ndarray       # recovered info bits
    metrics: np.ndarray    # per-symbol winning correlation over segment norm
    tail_samples: int      # trailing samples dropped as a partial symbol


@lru_cache(maxsize=None)
def template_bank(mp: ModParams) -> np.ndarray:
    """(2**p, p*M) matrix of energy-normalized codeword deviation templates,
    row i being the codeword of MSB-first value i."""
    p = get_code_spec(mp.code).p
    rows = []
    for bits in unpack_values(np.arange(1 << p), p).reshape(-1, p):
        dev = ideal_deviation_track(encode(bits, mp.code, mp.coded_bit_len), mp).values
        rows.append(dev / np.linalg.norm(dev))
    bank = np.asarray(rows)
    bank.flags.writeable = False  # shared by every caller
    return bank


@lru_cache(maxsize=None)
def _ramp_coefficients(mp: ModParams) -> np.ndarray:
    """(2**p, 2*q) matrix of the bank's per-coded-bit ramps: columns 2j and
    2j+1 hold the start and slope of coded bit j, so a template's
    correlation with a segment is this row dotted with the segment's
    moments (sum(x), sum(i*x)) per coded bit.  Raises ConfigError if a
    template is not a ramp on every coded bit."""
    bank = template_bank(mp)
    length = mp.coded_bit_len
    bits = bank.reshape(len(bank), -1, length)
    start = bits[..., 0]
    slope = (bits[..., -1] - start) / max(length - 1, 1)
    ramp = start[..., None] + slope[..., None] * np.arange(length)
    if not np.allclose(ramp, bits, rtol=0, atol=1e-12 * np.abs(bank).max()):
        raise ConfigError(f"{mp.code} templates are not a ramp on every coded bit")
    coef = np.stack((start, slope), axis=-1).reshape(len(bank), -1)
    coef.flags.writeable = False  # shared by every caller
    return coef


def correlations(segments: np.ndarray, mp: ModParams) -> np.ndarray:
    """(n_seg, 2**p) correlations of p-info-bit segments with the bank,
    ``segments @ template_bank(mp).T``, computed from per-coded-bit
    moments."""
    length = mp.coded_bit_len
    weights = np.stack((np.ones(length), np.arange(length, dtype=np.float64)))   # 1 and i
    moments = np.matvec(weights, segments.reshape(-1, length))
    return np.matvec(_ramp_coefficients(mp), moments.reshape(len(segments), -1))


def decide(track: IfTrack, mp: ModParams) -> Decision:
    """Max-correlation codeword decision; ties go to the lowest value."""
    p = get_code_spec(mp.code).p
    values = np.asarray(track.values, dtype=np.float64)
    seg_len = p * mp.m  # == q * mp.coded_bit_len
    n_seg = len(values) // seg_len
    if n_seg == 0:
        raise ConfigError(f"track of {len(values)} samples holds no full "
                          f"{seg_len}-sample symbol")
    segments = values[:n_seg * seg_len].reshape(n_seg, seg_len)
    scores = correlations(segments, mp)            # (n_seg, 2**p)
    best = np.argmax(scores, axis=1)               # first index wins ties
    win = scores[np.arange(n_seg), best]
    norm = np.sqrt(np.einsum("ij,ij->i", segments, segments))   # no x**2 copy, no BLAS
    metrics = np.divide(win, norm, out=np.zeros_like(win), where=norm > 0)
    return Decision(bits=unpack_values(best, p), metrics=metrics,
                    tail_samples=len(values) - n_seg * seg_len)
