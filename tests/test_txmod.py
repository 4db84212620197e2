from dataclasses import replace

import numpy as np
import pytest

from fcssk import (ConfigError, derive_params, encode, ideal_deviation_track, modulate,
                   reference_chirp, sigcore)
from fcssk.codec import CodedFrame
from fcssk.sigcore import PARALLEL_BLOCK
from fcssk.txmod import make_mod_params, peak_deviation
from if_reference import instantaneous_frequency, modulated_frequency, synthesize


class TestModParams:
    def test_manchester_128(self, man128):
        assert man128.m == 512
        assert man128.coded_bit_len == 256
        assert 2 * man128.chirp.k0 == 0.125

    def test_6b8b_coded_bit_len(self, b6b8_128):
        assert b6b8_128.coded_bit_len == 384  # 3M/4

    def test_bitrate_must_divide_fs(self, chirp):
        with pytest.raises(ConfigError):
            make_mod_params(chirp, "manchester", 100)

    def test_integral_float_bitrate_is_the_int(self, chirp, man128, rng):
        mp = make_mod_params(chirp, "manchester", 128.0)
        assert mp == man128 and type(mp.m) is int and type(mp.coded_bit_len) is int
        frame = encode(rng.integers(0, 2, 40), "manchester", mp.coded_bit_len)
        assert modulate(frame, mp).samples.tobytes() == modulate(frame, man128).samples.tobytes()

    @pytest.mark.parametrize("bitrate", [128.5, np.nan, np.inf])
    def test_fractional_or_non_finite_bitrate_rejected(self, chirp, bitrate):
        with pytest.raises(ConfigError, match="bitrate must be a whole number"):
            make_mod_params(chirp, "manchester", bitrate)


class TestModulate:
    def test_single_bit_slope_and_sweep(self, man128):
        frame = encode([1], "manchester", man128.coded_bit_len)
        freq = modulated_frequency(frame, man128)
        # coded 1: IF rises at 2*k0 = 0.125 Hz/sample for 256 samples, then holds
        np.testing.assert_allclose(np.diff(freq[:256]), 0.125, atol=1e-12)
        np.testing.assert_allclose(np.diff(freq[256:]), 0.0, atol=1e-12)
        # net sweep over the info bit is k0*M = 32 Hz
        total_sweep = freq[-1] + 0.0 - freq[0]   # plus the last sample's slope, a coded 0's
        assert abs(total_sweep - 32.0) < 1e-9

    def test_full_period_sweeps_exactly_b0(self, man128, rng):
        bits = rng.integers(0, 2, 32)  # exactly one chirp period at 128 b/s
        frame = encode(bits, "manchester", man128.coded_bit_len)
        kappa = np.where(np.repeat(frame.bits, man128.coded_bit_len) == 1,
                         2 * man128.chirp.k0, 0.0)
        assert abs(kappa.sum() - 1024.0) < 1e-9

    def test_empty_frame(self, man128):
        assert len(modulate(encode([], "manchester", man128.coded_bit_len), man128)) == 0

    def test_unit_envelope(self, man128, rng):
        frame = encode(rng.integers(0, 2, 64), "manchester", man128.coded_bit_len)
        sig = modulate(frame, man128)
        np.testing.assert_allclose(np.abs(sig.samples), 1.0, rtol=0, atol=1e-14)

    def test_code_mismatch_rejected(self, man128):
        frame = encode([0] * 6, "6b8b")
        with pytest.raises(ConfigError):
            modulate(frame, man128)


class TestSawtooth:
    @staticmethod
    def dense_formula(frame, mp):
        """The slope sum minus b0 * (sample index // n), all at once."""
        kap = np.where(np.repeat(frame.bits, mp.coded_bit_len) == 1, 2 * mp.chirp.k0, 0.0)
        freq = np.concatenate(([0.0], np.cumsum(kap[:-1])))[:len(kap)]
        return freq - mp.chirp.b0 * (np.arange(len(kap)) // mp.chirp.n)

    def test_bit_identical_to_dense_formula(self, man128, rng):
        n = man128.chirp.n
        one_sample = replace(man128, coded_bit_len=1)
        for t in (0, 1, n - 1, n, n + 1, 3 * n + 5):
            frame = CodedFrame(bits=rng.integers(0, 2, t), code="manchester", coded_bit_len=1)
            got = modulated_frequency(frame, one_sample)
            want = self.dense_formula(frame, one_sample)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t


class TestBlockSums:
    """``modulate`` sums its slopes and phase block by block, without a
    full-length IF track, to the bits of the synthesized track."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("code", ["manchester", "6b8b"])
    @pytest.mark.parametrize("odd", [False, True])
    def test_modulate_is_the_synthesized_if_track(self, chirp, monkeypatch, rng, cpus, code,
                                                  odd):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: cpus)
        mp = make_mod_params(chirp, code, 128)     # coded bits of 256 and 384 samples
        if odd:
            # N = 16383: blocks straddle period boundaries, and neither
            # coded-bit length (255, 383) divides the period or the block
            mp = replace(mp, chirp=derive_params(1000.0, 3.0, 49149),
                         coded_bit_len=mp.coded_bit_len - 1)
        for k in (0, 1, 2, 3 * PARALLEL_BLOCK // mp.coded_bit_len + 7):
            frame = CodedFrame(bits=rng.integers(0, 2, k), code=code,
                               coded_bit_len=mp.coded_bit_len)
            want = synthesize(modulated_frequency(frame, mp), mp.chirp.fs).samples
            got = modulate(frame, mp).samples
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), k


class TestIdealDeviation:
    def test_triangle_peak_and_null(self, man128):
        dev = ideal_deviation_track(encode([1], "manchester", man128.coded_bit_len),
                                    man128)
        assert dev[255] == pytest.approx(16.0, abs=1e-9)   # peak k0*M/2 at M/2
        assert int(np.argmax(dev)) == 255
        assert abs(dev[-1]) < 1e-9                          # null at the bit end

    def test_zero_bit_mirrored(self, man128):
        dev1 = ideal_deviation_track(encode([1], "manchester", man128.coded_bit_len),
                                     man128)
        dev0 = ideal_deviation_track(encode([0], "manchester", man128.coded_bit_len),
                                     man128)
        np.testing.assert_allclose(dev0, -dev1, atol=1e-12)
        assert dev0[255] == pytest.approx(-16.0, abs=1e-9)

    def test_6b8b_codeword_nulls(self, b6b8_128, rng):
        bits = rng.integers(0, 2, 6 * 10)
        dev = ideal_deviation_track(encode(bits, "6b8b", b6b8_128.coded_bit_len),
                                    b6b8_128)
        cw_len = 8 * b6b8_128.coded_bit_len
        for k in range(10):
            assert abs(dev[(k + 1) * cw_len - 1]) < 1e-9

    def test_matches_if_difference(self, man128, rng):
        bits = rng.integers(0, 2, 8)
        frame = encode(bits, "manchester", man128.coded_bit_len)
        sig = modulate(frame, man128)
        ref = reference_chirp(man128.chirp, 1)
        n = len(sig)
        if_sig = instantaneous_frequency(sig)
        if_ref = instantaneous_frequency(ref)[:n - 1]
        dev = ideal_deviation_track(frame, man128)
        np.testing.assert_allclose(if_sig - if_ref, dev[:n - 1], atol=1e-6)

    def test_boundary_straddling_6b8b_sweep_bound(self, b6b8_128, rng):
        # per-chirp sweep stays within b0 +- 3*M*k0 when codewords straddle
        bits = rng.integers(0, 2, 6 * 80)
        frame = encode(bits, "6b8b", b6b8_128.coded_bit_len)
        kappa = np.where(np.repeat(frame.bits, b6b8_128.coded_bit_len) == 1,
                         2 * b6b8_128.chirp.k0, 0.0)
        n = b6b8_128.chirp.n
        bound = 3 * b6b8_128.m * b6b8_128.chirp.k0
        for period in range(len(kappa) // n):
            sweep = kappa[period * n:(period + 1) * n].sum()
            assert abs(sweep - 1024.0) <= bound + 1e-9


class TestPeakDeviation:
    def test_manchester(self, man128):
        assert peak_deviation(man128) == pytest.approx(16.0)

    def test_6b8b_allows_runs_of_four(self, b6b8_128):
        assert peak_deviation(b6b8_128) == pytest.approx(96.0)

    @pytest.mark.parametrize("code,bitrate,expected", [
        ("manchester", 256, 8.0), ("manchester", 512, 4.0), ("6b8b", 512, 24.0)])
    def test_other_rates(self, chirp, code, bitrate, expected):
        mp = make_mod_params(chirp, code, bitrate)
        assert peak_deviation(mp) == pytest.approx(expected)
