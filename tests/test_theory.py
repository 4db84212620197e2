import math
import warnings

import numpy as np
import pytest

from fcssk import (ConfigError, bit_energy, crb_variance, make_mod_params, pe_crb,
                   q_function, snr_at_pe, theory_curve)


@pytest.fixture()
def mod(chirp):
    """ModParams at the simulation operating point, by code and bitrate."""
    return lambda code, bitrate: make_mod_params(chirp, code, bitrate)


class TestCrbVariance:
    def test_spot_value_against_arithmetic_oracle(self):
        # 12*fs^2 / ((2*pi)^2 * 1 * 256 * (256^2-1)), evaluated independently
        oracle = (12 * 65536 ** 2) / (4 * math.pi ** 2 * 256 * 65535)
        assert oracle == pytest.approx(77.8158564, abs=1e-6)
        assert crb_variance(1.0, 256, 65536) == pytest.approx(oracle, abs=0.01)

    def test_snr_homogeneity(self):
        assert crb_variance(2.0, 256, 65536) == crb_variance(1.0, 256, 65536) / 2

    def test_fs_squared_scaling(self):
        ratio = crb_variance(1.0, 256, 2 * 65536) / crb_variance(1.0, 256, 65536)
        assert ratio == 4.0

    def test_observation_windows(self, mod):
        # the fair-comparison window is one coded bit: M/2 or 3M/4
        m = 65536 // 128
        for code, n_obs in (("manchester", m // 2), ("6b8b", 3 * m // 4)):
            mp = mod(code, 128)
            want = pe_crb(bit_energy(mp), crb_variance(1.0, n_obs, 65536))
            assert theory_curve(mp, [0.0]) == [want]

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigError):
            crb_variance(0.0, 256, 65536)
        with pytest.raises(ConfigError):
            crb_variance(1.0, 1, 65536)


class TestBitEnergy:
    def test_manchester_at_128(self, mod):
        assert bit_energy(mod("manchester", 128)) == 8192.0

    def test_6b8b_is_nine_quarters(self, mod):
        assert bit_energy(mod("6b8b", 128)) == 18432.0
        for bitrate in (128, 256, 512):
            ratio = bit_energy(mod("6b8b", bitrate)) / bit_energy(mod("manchester", bitrate))
            assert ratio == 2.25

    def test_quadratic_in_m(self, mod):
        assert bit_energy(mod("manchester", 64)) == 4 * bit_energy(mod("manchester", 128))


class TestPeCrb:
    def test_zero_energy_is_half(self):
        assert pe_crb(0.0, 1.0) == 0.5

    def test_monotone_in_variance(self):
        pes = [pe_crb(100.0, v) for v in (50.0, 10.0, 2.0, 1.0)]
        assert all(a > b > 0 for a, b in zip(pes, pes[1:]))
        assert pe_crb(100.0, 1e-6) == 0.0  # underflows cleanly

    def test_range(self):
        for e_b, var in ((0.0, 1.0), (1.0, 1.0), (100.0, 3.0), (1e4, 0.5)):
            pe = pe_crb(e_b, var)
            assert 0.0 <= pe <= 0.5

    def test_q_function_symmetry(self):
        for x in (0.0, 0.5, 1.0, 2.0, 5.0):
            assert abs(q_function(x) + q_function(-x) - 1.0) <= 1e-12


class TestTheoryCurve:
    def test_single_point_matches_pe_crb(self, mod):
        mp = mod("manchester", 128)
        pe = theory_curve(mp, [0.0])[0]
        assert pe == pe_crb(bit_energy(mp), crb_variance(1.0, 256, 65536))

    def test_bitrate_shift_at_1e_minus_3(self, mod):
        # forced by the CRB and energy formulas: 10*log10(4 * (N1(N1^2-1))/(N2(N2^2-1)))
        shift = snr_at_pe(mod("manchester", 256), 1e-3) - snr_at_pe(mod("manchester", 128), 1e-3)
        assert shift == pytest.approx(15.05, abs=0.1)

    def test_6b8b_left_of_manchester(self, mod):
        for pe in np.geomspace(1e-4, 0.4, 9):
            assert snr_at_pe(mod("6b8b", 128), float(pe)) \
                < snr_at_pe(mod("manchester", 128), float(pe))

    def test_monotone_in_snr(self, mod):
        grid = list(range(-30, 32, 2))
        pes = theory_curve(mod("6b8b", 256), grid)
        assert all(a >= b for a, b in zip(pes, pes[1:]))

    def test_empty_grid_rejected(self, mod):
        with pytest.raises(ConfigError):
            theory_curve(mod("manchester", 128), [])

    @pytest.mark.parametrize("grid,message", [
        ([-4000.0], "^-4000 dB underflows a float as a power ratio$"),
        (np.array([4000.0]), "^4000 dB overflows a float as a power ratio$")])
    def test_unrepresentable_power_ratio_named(self, mod, grid, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # refused, not warned about
            with pytest.raises(ConfigError, match=message):
                theory_curve(mod("manchester", 128), grid)
