"""Constant-weight line codes: Manchester (1b2b, w=1) and 6b8b (w=4).

Both codes map every input block to a codeword of Hamming weight q/2, so
any weight-balanced stretch of coded bits sweeps exactly the nominal chirp
bandwidth when modulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import CodeViolationError, ConfigError, FramingError

MANCHESTER = "manchester"
B6B8 = "6b8b"

CODE_NAMES = (MANCHESTER, B6B8)


@dataclass(frozen=True)
class CodeSpec:
    name: str
    p: int  # info bits per codeword
    q: int  # coded bits per codeword
    w: int  # Hamming weight of every codeword
    codebook: tuple[tuple[int, ...], ...]  # value -> codeword bits, MSB-first values


@dataclass(frozen=True)
class CodedFrame:
    bits: np.ndarray      # coded bits, 0/1
    code: str
    coded_bit_len: int    # samples per coded bit; 0 when not yet bound to a rate

    def __len__(self) -> int:
        return len(self.bits)


def _boundary_run_sum(word: tuple[int, ...]) -> int:
    lead = 1
    while lead < len(word) and word[lead] == word[0]:
        lead += 1
    trail = 1
    while trail < len(word) and word[-1 - trail] == word[-1]:
        trail += 1
    return lead + trail


@lru_cache(maxsize=None)
def manchester_spec() -> CodeSpec:
    return CodeSpec(name=MANCHESTER, p=1, q=2, w=1, codebook=((0, 1), (1, 0)))


@lru_cache(maxsize=None)
def build_6b8b_codebook() -> CodeSpec:
    """Deterministic weight-4 octet codebook.

    Of the C(8,4)=70 weight-4 octets, drop the 6 with the largest
    leading-run + trailing-run sum (ties broken by ascending octet value):
    00001111 and 11110000 (sum 8), 00010111 and 11101000 (sum 6), then
    00011011 and 00100111 (sum 5).  The 64 survivors, sorted ascending,
    are assigned to values 0..63.  No octet contains a run longer than 4.
    """
    octets = [w for w in combinations(range(8), 4)]
    words = []
    for ones in octets:
        bits = tuple(1 if i in ones else 0 for i in range(8))
        words.append(bits)
    words.sort()
    ranked = sorted(words, key=lambda w: (-_boundary_run_sum(w), w))
    excluded = set(ranked[:6])
    kept = tuple(w for w in words if w not in excluded)
    assert len(kept) == 64
    return CodeSpec(name=B6B8, p=6, q=8, w=4, codebook=kept)


def get_code_spec(name: str) -> CodeSpec:
    if name == MANCHESTER:
        return manchester_spec()
    if name == B6B8:
        return build_6b8b_codebook()
    raise ConfigError(f"unknown code {name!r}; expected one of {CODE_NAMES}")


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int64).ravel()
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError("bit arrays may only contain 0 and 1")
    return arr


def pack_values(bits: np.ndarray, width: int) -> np.ndarray:
    """MSB-first value of each row of ``width`` bits."""
    return bits.reshape(-1, width) @ (1 << np.arange(width - 1, -1, -1))


def unpack_values(values: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_values: the MSB-first bits of each value, flattened."""
    return ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.int64).ravel()


def _block_encode(info_bits, spec: CodeSpec, coded_bit_len: int) -> CodedFrame:
    u = _as_bits(info_bits)
    if len(u) % spec.p:
        raise FramingError(f"{spec.name}: input length {len(u)} not a multiple of {spec.p}")
    table = np.asarray(spec.codebook, dtype=np.int64)
    return CodedFrame(bits=table[pack_values(u, spec.p)].ravel(), code=spec.name,
                      coded_bit_len=coded_bit_len)


def encode(info_bits, code: str, coded_bit_len: int = 0) -> CodedFrame:
    """Map each p-bit block (MSB-first value) to its codeword."""
    return _block_encode(info_bits, get_code_spec(code), coded_bit_len)


def decode(coded_bits, code: str) -> np.ndarray:
    """Hard-decision inverse of encode, by a 2**q lookup table.

    Raises FramingError unless the length is a multiple of q, and
    CodeViolationError (with the index of the first bad block) on any word
    outside the codebook, e.g. the Manchester pairs (0,0) and (1,1).
    """
    spec = get_code_spec(code)
    x = _as_bits(coded_bits)
    if len(x) % spec.q:
        raise FramingError(f"{spec.name}: coded length {len(x)} not a multiple of {spec.q}")
    table = np.full(1 << spec.q, -1, dtype=np.int64)  # word value -> info value
    table[pack_values(np.asarray(spec.codebook), spec.q)] = np.arange(len(spec.codebook))
    values = table[pack_values(x, spec.q)]
    bad = np.flatnonzero(values < 0)
    if bad.size:
        raise CodeViolationError(f"block {bad[0]} is not a {spec.name} codeword",
                                 block_index=int(bad[0]))
    return unpack_values(values, spec.p)
