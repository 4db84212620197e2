"""Constant-weight line codes: Manchester (1b2b, weight 1) and 6b8b (weight 4).

Both codes map every input block to a codeword of Hamming weight q/2, so
any weight-balanced stretch of coded bits sweeps exactly the nominal chirp
bandwidth when modulated.  A code is its codebook: the receiver decides
info bits through the codeword bank (``fcssk.detect``), not by decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from .errors import ConfigError, FramingError

MANCHESTER = "manchester"
B6B8 = "6b8b"


@dataclass(frozen=True)
class CodeSpec:
    p: int  # info bits per codeword
    q: int  # coded bits per codeword; every codeword has weight q/2
    codebook: tuple[tuple[int, ...], ...]  # value -> codeword bits, MSB-first values


@dataclass(frozen=True)
class CodedFrame:
    bits: np.ndarray      # coded bits, 0/1
    code: str
    coded_bit_len: int    # samples per coded bit; 0 when not yet bound to a rate


def run_lengths(word: tuple[int, ...]) -> list[int]:
    """The lengths of the runs of equal bits in ``word``, in order."""
    return [len(list(run)) for _, run in groupby(word)]


def build_6b8b_codebook() -> CodeSpec:
    """Deterministic weight-4 octet codebook.

    Of the C(8,4)=70 weight-4 octets, drop the 6 with the largest
    leading-run + trailing-run sum (ties broken by ascending octet value):
    00001111 and 11110000 (sum 8), 00010111 and 11101000 (sum 6), then
    00011011 and 00100111 (sum 5).  The 64 survivors, sorted ascending,
    are assigned to values 0..63.  No octet contains a run longer than 4.
    """
    words = [tuple(1 if i in ones else 0 for i in range(8)) for ones in combinations(range(8), 4)]
    runs = {w: run_lengths(w) for w in words}
    ranked = sorted(words, key=lambda w: (-(runs[w][0] + runs[w][-1]), w))
    kept = tuple(sorted(ranked[6:]))
    assert len(kept) == 64
    return CodeSpec(p=6, q=8, codebook=kept)


CODE_SPECS = {
    MANCHESTER: CodeSpec(p=1, q=2, codebook=((0, 1), (1, 0))),
    B6B8: build_6b8b_codebook(),
}
CODE_NAMES = tuple(CODE_SPECS)


def get_code_spec(name: str) -> CodeSpec:
    try:
        return CODE_SPECS[name]
    except KeyError:
        raise ConfigError(f"unknown code {name!r}; expected one of {CODE_NAMES}") from None


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int64).ravel()
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError("bit arrays may only contain 0 and 1")
    return arr


def pack_values(bits: np.ndarray, width: int) -> np.ndarray:
    """MSB-first value of each row of ``width`` bits."""
    return np.matvec(bits.reshape(-1, width), 1 << np.arange(width - 1, -1, -1))


def unpack_values(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_values: the MSB-first bits of each value, flattened."""
    return ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.int64).ravel()


def encode(info_bits, code: str, coded_bit_len: int = 0) -> CodedFrame:
    """Map each p-bit block (MSB-first value) to its codeword."""
    spec = get_code_spec(code)
    u = _as_bits(info_bits)
    if len(u) % spec.p:
        raise FramingError(f"{code}: input length {len(u)} not a multiple of {spec.p}")
    table = np.asarray(spec.codebook, dtype=np.int64)
    return CodedFrame(bits=table[pack_values(u, spec.p)].ravel(), code=code,
                      coded_bit_len=coded_bit_len)
