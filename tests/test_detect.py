import numpy as np
import pytest

from fcssk import ConfigError, encode, ideal_deviation_track
from fcssk import detect
from fcssk.detect import _ramp_coefficients, correlations, decide, template_bank
from fcssk.txmod import make_mod_params


def man_track(bits, mp):
    return ideal_deviation_track(encode(bits, "manchester", mp.coded_bit_len), mp)


class TestDetectManchester:
    def test_single_bits(self, man128):
        for bit in (0, 1):
            assert decide(man_track([bit], man128), man128).tolist() == [bit]

    def test_round_trip_up_to_64_bits(self, man128, rng):
        for length in (1, 7, 33, 64):
            bits = rng.integers(0, 2, length)
            assert np.array_equal(decide(man_track(bits, man128), man128), bits)

    def test_partial_trailing_bit_dropped(self, man128):
        track = man_track([1, 0, 1], man128)
        got = decide(track[:-100], man128)
        assert got.tolist() == [1, 0]
        assert len(track[:-100]) - len(got) * man128.m == man128.m - 100

    def test_scale_invariance(self, man128, rng):
        bits = rng.integers(0, 2, 16)
        track = man_track(bits, man128)
        for scale in (1e-3, 7.0, 1e4):
            assert np.array_equal(decide(track * scale, man128), bits)

    def test_tie_decides_zero(self, man128):
        assert decide(np.zeros(man128.m), man128).tolist() == [0]


class TestDetect6b8b:
    def test_every_codeword_self_detects(self, b6b8_128):
        for value in range(64):
            bits = [(value >> k) & 1 for k in range(5, -1, -1)]
            track = ideal_deviation_track(encode(bits, "6b8b", b6b8_128.coded_bit_len),
                                          b6b8_128)
            assert decide(track, b6b8_128).tolist() == bits

    def test_all_zero_track_ties_to_index_zero(self, b6b8_128):
        assert decide(np.zeros(6 * b6b8_128.m), b6b8_128).tolist() == [0] * 6

    def test_bank_is_image_of_ideal_deviation(self, b6b8_128):
        bank = template_bank(b6b8_128)
        assert bank.shape == (64, 6 * b6b8_128.m)
        for value in (0, 17, 63):
            bits = [(value >> k) & 1 for k in range(5, -1, -1)]
            dev = ideal_deviation_track(encode(bits, "6b8b", b6b8_128.coded_bit_len),
                                        b6b8_128)
            np.testing.assert_allclose(bank[value], dev / np.linalg.norm(dev),
                                       atol=1e-12)

    def test_scale_invariance(self, b6b8_128, rng):
        bits = rng.integers(0, 2, 36)
        track = ideal_deviation_track(encode(bits, "6b8b", b6b8_128.coded_bit_len),
                                      b6b8_128)
        for scale in (0.01, 3.0, 250.0):
            assert np.array_equal(decide(track * scale, b6b8_128), bits)

    def test_partial_trailing_codeword_dropped(self, b6b8_128):
        track = ideal_deviation_track(encode([0] * 12, "6b8b", b6b8_128.coded_bit_len),
                                      b6b8_128)
        got = decide(track[:-1], b6b8_128)
        assert len(got) == 6
        assert len(track[:-1]) - len(got) * b6b8_128.m == 6 * b6b8_128.m - 1


class TestManchesterTemplate:
    def test_unit_peak_triangle(self, man128):
        # the bank holds the energy-normalized triangle of a 1 at row 1
        tri = template_bank(man128)[1]
        tri = tri / np.max(np.abs(tri))
        assert len(tri) == man128.m
        assert tri.max() == pytest.approx(1.0)
        assert int(np.argmax(tri)) == man128.m // 2 - 1
        assert abs(tri[-1]) < 1e-12

    def test_bank_rows_are_exact_negatives(self, man128):
        # makes argmax over the bank the sign rule of the triangle correlation
        bank = template_bank(man128)
        assert bank.shape == (2, man128.m)
        assert np.array_equal(bank[0], -bank[1])


class TestMomentCorrelations:
    @pytest.mark.parametrize("code", ["manchester", "6b8b"])
    @pytest.mark.parametrize("bitrate", [128, 512])
    def test_match_the_dense_bank_product(self, chirp, rng, code, bitrate):
        mp = make_mod_params(chirp, code, bitrate)
        bank = template_bank(mp)
        segments = rng.standard_normal((40, bank.shape[1])) * 30.0
        segments[:, :mp.coded_bit_len] += 5.0          # a mean offset on one coded bit
        got = correlations(segments, mp)
        want = segments @ bank.T
        scale = np.linalg.norm(segments, axis=1, keepdims=True)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale.max())
        assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))

    def test_manchester_scores_are_exact_negatives(self, man128, rng):
        # keeps the sign rule and the tie to zero of the dense bank
        scores = correlations(rng.standard_normal((64, man128.m)), man128)
        assert np.array_equal(scores[:, 0], -scores[:, 1])

    def test_ramps_cached_and_read_only(self, b6b8_128):
        coef = _ramp_coefficients(b6b8_128)
        assert coef.shape == (64, 16)
        assert _ramp_coefficients(b6b8_128) is coef
        assert not coef.flags.writeable

    def test_bank_that_is_not_a_ramp_rejected(self, man128, monkeypatch):
        bank = np.array(template_bank(man128))
        bank[1, 3] += 0.5
        monkeypatch.setattr(detect, "template_bank", lambda mp: bank)
        with pytest.raises(ConfigError, match="not a ramp"):
            _ramp_coefficients.__wrapped__(man128)
