"""Decision stage: max-correlation detection over a codeword template bank.

Estimated-IF segments of p info bits are correlated against the ideal
deviation templates of all 2**p codewords, generated by the modulator
itself, so any change to the wire format propagates automatically.
Templates are energy-normalized, making the max-correlation rule coincide
with the minimum-squared-error detector even though codeword deviation
shapes differ in energy.  Manchester's two templates are exact negatives,
so its rule reduces to the sign of the triangle correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codec import CodeSpec, encode, get_code_spec, unpack_values
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
    return np.asarray(rows)


def decide(track: IfTrack, mp: ModParams, code: CodeSpec) -> Decision:
    """Max-correlation codeword decision; ties go to the lowest value."""
    values = np.asarray(track.values, dtype=np.float64)
    seg_len = code.p * mp.m  # == code.q * mp.coded_bit_len
    n_seg = len(values) // seg_len
    if n_seg == 0:
        raise ConfigError(f"track of {len(values)} samples holds no full "
                          f"{seg_len}-sample symbol")
    segments = values[:n_seg * seg_len].reshape(n_seg, seg_len)
    scores = segments @ template_bank(mp).T        # (n_seg, 2**p)
    best = np.argmax(scores, axis=1)               # first index wins ties
    win = scores[np.arange(n_seg), best]
    norm = np.linalg.norm(segments, axis=1)
    metrics = np.divide(win, norm, out=np.zeros_like(win), where=norm > 0)
    return Decision(bits=unpack_values(best, code.p), metrics=metrics,
                    tail_samples=len(values) - n_seg * seg_len)
