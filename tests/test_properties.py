"""Property tests over every registered code: encoding against the codebook, the
constant-weight bandwidth invariant, and noiseless modem round trips over
the strict operating envelope; and the sparse phase unwrap against
``np.unwrap``."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fcssk import (CODE_NAMES, ConfigError, derive_params, encode, get_code_spec,
                   ideal_deviation_track, modulate)
from fcssk.chain import receive_chain
from fcssk.ifest import default_dpll
from fcssk.txmod import make_mod_params
from if_reference import unwrap_phase


@st.composite
def whole_blocks(draw):
    """(code, info bits) with a whole number of the code's p-bit blocks."""
    code = draw(st.sampled_from(CODE_NAMES))
    n_blocks = draw(st.integers(0, 40))
    bits = draw(st.lists(st.integers(0, 1), min_size=n_blocks * get_code_spec(code).p,
                         max_size=n_blocks * get_code_spec(code).p))
    return code, np.array(bits, dtype=np.int64)


@settings(deadline=None)
@given(whole_blocks())
def test_each_block_encodes_to_its_codebook_row(case):
    code, u = case
    spec = get_code_spec(code)
    words = encode(u, code).bits.reshape(-1, spec.q)
    assert len(words) == len(u) // spec.p
    for block, word in zip(u.reshape(-1, spec.p), words):
        assert tuple(word) == spec.codebook[int("".join(map(str, block)), 2)]


@settings(deadline=None, max_examples=50)
@given(whole_blocks(), st.sampled_from((128, 256, 512)))
def test_deviation_is_zero_at_every_codeword_boundary(chirp, case, bitrate):
    code, u = case
    mp = make_mod_params(chirp, code, bitrate)
    dev = ideal_deviation_track(encode(u, code, mp.coded_bit_len), mp)
    cw_len = get_code_spec(code).q * mp.coded_bit_len
    assert len(dev) == len(u) // get_code_spec(code).p * cw_len
    assert np.all(dev[cw_len - 1::cw_len] == 0.0)


@st.composite
def strict_operating_points(draw):
    """(ModParams, info bits) inside the strict envelope, at the listed
    sampling rates and at points the receiver's DPLL accepts (it refuses
    under 25 samples per coded bit and a chirp-slope lag over
    MAX_SLOPE_LAG)."""
    fs = draw(st.sampled_from((16384, 20480, 24576, 32768, 48000, 65536)))
    rep_rate = draw(st.sampled_from((2.0, 2.5, 3.0, 4.0)))
    b0 = draw(st.floats(700.0, fs / 2 - 1))
    bitrate = draw(st.sampled_from((64, 128, 256, 512)))
    code = draw(st.sampled_from(CODE_NAMES))
    try:
        mp = make_mod_params(derive_params(b0, rep_rate, fs, strict=True), code, bitrate)
        default_dpll(mp)
    except ConfigError:
        assume(False)
    n_bits = draw(st.integers(1, 6)) * get_code_spec(code).p
    bits = draw(st.lists(st.integers(0, 1), min_size=n_bits, max_size=n_bits))
    return mp, np.array(bits, dtype=np.int64)


@pytest.mark.parametrize("estimator", ["dpll", "lls"])
@settings(deadline=None, max_examples=15)
@given(case=strict_operating_points())
def test_noiseless_round_trip_over_envelope(case, estimator):
    mp, bits = case
    rx = modulate(encode(bits, mp.code, mp.coded_bit_len), mp)
    assert np.array_equal(receive_chain(rx, mp, estimator, use_sync=False), bits)


@pytest.mark.parametrize("fs,code,estimator", [
    (16384, "manchester", "lls"), (20480, "6b8b", "dpll"), (20480, "6b8b", "lls"),
    (24576, "6b8b", "dpll"), (24576, "6b8b", "lls"), (28672, "6b8b", "lls")])
def test_low_fs_bursts_decode(fs, code, estimator):
    # a lowpass of a fixed tap count, narrower in time at low fs, stripped
    # the keyed deviation here: 2 to 12 of these 120 bits came out wrong
    mp = make_mod_params(derive_params(700.0, 4.0, fs, strict=True), code, 512)
    bits = np.random.default_rng(5).integers(0, 2, 120)
    rx = modulate(encode(bits, code, mp.coded_bit_len), mp)
    assert np.array_equal(receive_chain(rx, mp, estimator, use_sync=False), bits)


# exact multiples of pi/2 make steps of exactly +-pi and +-2*pi
EXACT_PHASES = (-np.pi, -np.pi / 2, -0.0, 0.0, np.pi / 2, np.pi)


@st.composite
def phase_arrays(draw):
    """Wrapped phases as ``np.angle`` yields them, plus multi-turn jumps,
    exact +-pi values and exact pi steps, and phases of noisy chirps."""
    kind = draw(st.sampled_from(("wrapped", "exact", "wide", "chirp")))
    if kind == "chirp":
        n = draw(st.integers(2, 4000))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        t = np.arange(n)
        freq = draw(st.floats(-0.5, 0.5)) + draw(st.floats(-1e-4, 1e-4)) * t
        noise = draw(st.sampled_from((0.0, 0.1, 1.0, 10.0)))
        z = np.exp(2j * np.pi * np.cumsum(freq)) + noise * (rng.standard_normal(n)
                                                            + 1j * rng.standard_normal(n))
        return np.angle(z)
    value = {"wrapped": st.one_of(st.floats(-np.pi, np.pi), st.sampled_from(EXACT_PHASES)),
             "exact": st.sampled_from(EXACT_PHASES),
             "wide": st.floats(-50.0, 50.0)}[kind]
    return np.array(draw(st.lists(value, max_size=300)), dtype=np.float64)


@settings(deadline=None, max_examples=300)
@given(phase_arrays())
@example(np.zeros(0))
@example(np.array([np.pi]))
@example(np.array([0.0, np.pi, 0.0, -np.pi, np.pi, -np.pi / 2, np.pi / 2, -0.0]))
def test_unwrap_phase_is_numpy_unwrap(phase):
    got, want = unwrap_phase(phase), np.unwrap(phase)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()  # signed zeros too
