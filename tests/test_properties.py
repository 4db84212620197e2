"""Property tests over every registered code: codec round trips and the
constant-weight bandwidth invariant."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fcssk import CODE_NAMES, decode, encode, get_code_spec, ideal_deviation_track
from fcssk.txmod import make_mod_params


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
def test_decode_inverts_encode(case):
    code, u = case
    assert np.array_equal(decode(encode(u, code).bits, code), u)


@settings(deadline=None, max_examples=50)
@given(whole_blocks(), st.sampled_from((128, 256, 512)))
def test_deviation_is_zero_at_every_codeword_boundary(chirp, case, bitrate):
    code, u = case
    mp = make_mod_params(chirp, code, bitrate)
    dev = ideal_deviation_track(encode(u, code, mp.coded_bit_len), mp).values
    cw_len = get_code_spec(code).q * mp.coded_bit_len
    assert len(dev) == len(u) // get_code_spec(code).p * cw_len
    assert np.all(dev[cw_len - 1::cw_len] == 0.0)
