import numpy as np
import pytest

from fcssk import (IfTrack, build_6b8b_codebook, encode, get_code_spec,
                   ideal_deviation_track)
from fcssk.detect import decide, template_bank


def man_track(bits, mp):
    return ideal_deviation_track(encode(bits, "manchester", mp.coded_bit_len), mp)


def man_decide(track, mp):
    return decide(track, mp, get_code_spec("manchester"))


class TestDetectManchester:
    def test_single_bits(self, man128):
        for bit in (0, 1):
            decision = man_decide(man_track([bit], man128), man128)
            assert decision.bits.tolist() == [bit]
            assert decision.metrics[0] == pytest.approx(1.0, abs=0.01)
            assert abs(decision.metrics[0]) > 0.99

    def test_round_trip_up_to_64_bits(self, man128, rng):
        for length in (1, 7, 33, 64):
            bits = rng.integers(0, 2, length)
            decision = man_decide(man_track(bits, man128), man128)
            assert np.array_equal(decision.bits, bits)

    def test_partial_trailing_bit_dropped(self, man128):
        track = man_track([1, 0, 1], man128)
        short = IfTrack(track.values[:-100], track.fs, track.offset)
        decision = man_decide(short, man128)
        assert decision.bits.tolist() == [1, 0]
        assert decision.tail_samples == man128.m - 100

    def test_scale_invariance(self, man128, rng):
        bits = rng.integers(0, 2, 16)
        track = man_track(bits, man128)
        for scale in (1e-3, 7.0, 1e4):
            scaled = IfTrack(track.values * scale, track.fs, track.offset)
            assert np.array_equal(man_decide(scaled, man128).bits, bits)

    def test_tie_decides_zero(self, man128):
        flat = IfTrack(np.zeros(man128.m), man128.chirp.fs, 1)
        assert man_decide(flat, man128).bits.tolist() == [0]


class TestDetect6b8b:
    def test_every_codeword_self_detects(self, b6b8_128):
        code = build_6b8b_codebook()
        for value in range(64):
            bits = [(value >> k) & 1 for k in range(5, -1, -1)]
            track = ideal_deviation_track(encode(bits, "6b8b", b6b8_128.coded_bit_len),
                                          b6b8_128)
            decision = decide(track, b6b8_128, code)
            assert decision.bits.tolist() == bits

    def test_all_zero_track_ties_to_index_zero(self, b6b8_128):
        code = build_6b8b_codebook()
        flat = IfTrack(np.zeros(6 * b6b8_128.m), b6b8_128.chirp.fs, 1)
        assert decide(flat, b6b8_128, code).bits.tolist() == [0] * 6

    def test_bank_is_image_of_ideal_deviation(self, b6b8_128):
        bank = template_bank(b6b8_128)
        assert bank.shape == (64, 6 * b6b8_128.m)
        for value in (0, 17, 63):
            bits = [(value >> k) & 1 for k in range(5, -1, -1)]
            dev = ideal_deviation_track(encode(bits, "6b8b", b6b8_128.coded_bit_len),
                                        b6b8_128).values
            np.testing.assert_allclose(bank[value], dev / np.linalg.norm(dev),
                                       atol=1e-12)

    def test_scale_invariance(self, b6b8_128, rng):
        code = build_6b8b_codebook()
        bits = rng.integers(0, 2, 36)
        track = ideal_deviation_track(encode(bits, "6b8b", b6b8_128.coded_bit_len),
                                      b6b8_128)
        for scale in (0.01, 3.0, 250.0):
            scaled = IfTrack(track.values * scale, track.fs, track.offset)
            assert np.array_equal(decide(scaled, b6b8_128, code).bits, bits)

    def test_partial_trailing_codeword_dropped(self, b6b8_128):
        code = build_6b8b_codebook()
        track = ideal_deviation_track(encode([0] * 12, "6b8b", b6b8_128.coded_bit_len),
                                      b6b8_128)
        short = IfTrack(track.values[:-1], track.fs, track.offset)
        decision = decide(short, b6b8_128, code)
        assert len(decision.bits) == 6
        assert decision.tail_samples == 6 * b6b8_128.m - 1


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
