import math

import numpy as np
import pytest

from fcssk import (ConfigError, IqBuffer, LlsParams, downconvert, dpll_response,
                   dpll_track, encode, lls_track, make_dpll_params, modulate,
                   reference_chirp)
from fcssk.ifest import default_cutoff, default_f_nat, design_lowpass


def tone(freq_hz, n, fs, phase=0.0):
    t = np.arange(n)
    return IqBuffer(np.exp(1j * (2 * np.pi * freq_hz * t / fs + phase)), fs)


class TestDpllParams:
    def test_coefficient_formulas(self):
        # direct evaluation of the closed-form gains
        fs, f_nat, zeta = 65536, 128.0, 1.0 / math.sqrt(2.0)
        p = make_dpll_params(fs, f_nat, zeta)
        c2 = 2.0 * zeta * (2.0 * math.pi * f_nat) / fs
        assert p.c2 == pytest.approx(c2, rel=1e-9)
        assert p.c1 == pytest.approx(c2 ** 2 / (4 * zeta ** 2), rel=1e-9)
        assert p.c1 == pytest.approx(1.5059821e-4, rel=1e-6)
        assert p.c2 == pytest.approx(1.7355011e-2, rel=1e-6)

    def test_sampling_assumption_enforced(self):
        with pytest.raises(ConfigError):
            make_dpll_params(1000, 128.0)

    def test_default_f_nat_is_half_coded_bit_rate(self, man128):
        assert default_f_nat(man128) == pytest.approx(128.0)


class TestDpllTrack:
    def test_frequency_step_settles(self, chirp):
        p = make_dpll_params(chirp.fs, 128.0)
        buf = tone(50.0, 3 * chirp.fs // 4, chirp.fs)
        track = dpll_track(buf, p)
        settle = 5 * chirp.fs // 128
        np.testing.assert_allclose(track.values[settle:], 50.0, atol=0.5)

    def test_ramp_tracked_with_zero_frequency_error(self, chirp):
        # linear IF ramp k0*fs Hz/s: type-2 loop -> frequency error -> 0
        p = make_dpll_params(chirp.fs, 128.0)
        n = chirp.n
        ramp_if = chirp.k0 * np.arange(n)
        phase = 2 * np.pi * np.cumsum(ramp_if) / chirp.fs
        track = dpll_track(IqBuffer(np.exp(1j * phase), chirp.fs), p)
        err = track.values[n // 2:] - ramp_if[n // 2:]
        assert np.abs(err).max() < 0.5

    def test_closed_loop_response_matches_transfer_function(self, chirp):
        # inject sinusoidal phase, compare measured |H| with the z-domain form
        p = make_dpll_params(chirp.fs, 128.0)
        beta = 0.1
        n = 8 * chirp.fs // 128
        t = np.arange(n)
        for f_mod in (32.0, 128.0, 512.0):
            phi = beta * np.sin(2 * np.pi * f_mod * t / chirp.fs)
            track = dpll_track(IqBuffer(np.exp(1j * phi), chirp.fs), p)
            steady = track.values[n // 2:]
            # amplitude of the response sinusoid via quadrature projection;
            # H maps phase (rad) to frequency, including the fs/2pi gain
            ts = t[n // 2:]
            ref = np.exp(-2j * np.pi * f_mod * ts / chirp.fs)
            amp = 2.0 * abs(np.mean(steady * ref))
            measured = amp * 2.0 * np.pi / (beta * chirp.fs)
            expected = abs(dpll_response(p, f_mod))
            assert measured == pytest.approx(expected, rel=0.1), f"f={f_mod}"

    def test_deterministic(self, chirp):
        p = make_dpll_params(chirp.fs, 128.0)
        buf = tone(10.0, 4096, chirp.fs)
        assert np.array_equal(dpll_track(buf, p).values, dpll_track(buf, p).values)


class TestLlsTrack:
    def test_constant_tone(self, chirp):
        track = lls_track(tone(100.0, 2048, chirp.fs), LlsParams(window_len=256))
        assert len(track) == 2048
        np.testing.assert_allclose(track.values, 100.0, atol=1e-6)

    @pytest.mark.parametrize("degree", [2, 5])
    def test_quadratic_phase_exact(self, chirp, degree):
        # exact quadratic phase phi(t) = 2*pi*(f0*t + 0.5*slope*t^2)/fs:
        # IF(t) = f0 + slope*t, and LS on in-model data recovers it exactly
        n = 2048
        t = np.arange(n, dtype=np.float64)
        f0, slope = 20.0, 0.0625
        phase = 2 * np.pi * (f0 * t + 0.5 * slope * t * t) / chirp.fs
        expected_if = f0 + slope * t
        buf = IqBuffer(np.exp(1j * phase), chirp.fs)
        track = lls_track(buf, LlsParams(degree=degree, window_len=256))
        rel = np.abs(track.values - expected_if) / expected_if
        assert rel.max() < 1e-6

    def test_degrees_agree_on_quadratic_phase(self, chirp):
        n = 1024
        ramp_if = 1.0 + 0.03 * np.arange(n)
        phase = 2 * np.pi * np.cumsum(ramp_if) / chirp.fs
        buf = IqBuffer(np.exp(1j * phase), chirp.fs)
        t2 = lls_track(buf, LlsParams(degree=2, window_len=256)).values
        t5 = lls_track(buf, LlsParams(degree=5, window_len=256)).values
        np.testing.assert_allclose(t2, t5, atol=1e-6)

    def test_window_longer_than_signal(self, chirp):
        with pytest.raises(ConfigError):
            lls_track(tone(1.0, 100, chirp.fs), LlsParams(window_len=256))

    def test_covers_whole_input(self, chirp):
        buf = tone(42.0, 1000, chirp.fs)  # not a multiple of the stride
        track = lls_track(buf, LlsParams(window_len=256))
        assert len(track) == 1000
        np.testing.assert_allclose(track.values, 42.0, atol=1e-6)


class TestPhaseUnwrap:
    def test_steps_stay_below_pi_for_inband_signals(self, chirp, rng):
        # noiseless constant-envelope signals with |IF| < fs/2 unwrap cleanly
        for _ in range(10):
            n = 4096
            f_lo, f_hi = rng.uniform(-0.45, 0.45, 2) * chirp.fs
            inst = np.linspace(f_lo, f_hi, n)
            phase = 2 * np.pi * np.cumsum(inst) / chirp.fs
            steps = np.diff(np.unwrap(np.angle(np.exp(1j * phase))))
            assert np.max(np.abs(steps)) < np.pi


class TestLowpass:
    def test_unity_gain_in_passband(self, chirp):
        # frequency-response oracle at cutoff/4
        cutoff = 64.0
        h = design_lowpass(cutoff, chirp.fs)
        f = cutoff / 4.0
        response = np.sum(h * np.exp(-2j * np.pi * f * np.arange(len(h)) / chirp.fs))
        assert abs(response) == pytest.approx(1.0, abs=0.01)

    def test_group_delay_is_integer(self, chirp):
        assert len(design_lowpass(64.0, chirp.fs)) % 2 == 1

    def test_default_cutoff_floor(self, chirp, man128):
        assert default_cutoff(man128) == pytest.approx(64.0)


class TestDownconvert:
    def test_self_mix_is_dc(self, chirp, man128):
        rx = reference_chirp(chirp, 1)
        bb = downconvert(rx, chirp, default_cutoff(man128))
        phase = np.unwrap(np.angle(bb.samples))
        skip = 256  # filter transient
        if_est = np.diff(phase[skip:-skip]) * chirp.fs / (2 * np.pi)
        assert np.abs(if_est).max() < 0.1

    def test_manchester_triangle_visible(self, chirp, man128):
        frame = encode([1, 0, 1, 1], "manchester", man128.coded_bit_len)
        bb = downconvert(modulate(frame, man128), chirp, default_cutoff(man128))
        phase = np.unwrap(np.angle(bb.samples))
        if_est = np.diff(phase) * chirp.fs / (2 * np.pi)
        peak_region = if_est[200:312]  # around the first bit's midpoint
        assert peak_region.max() == pytest.approx(16.0, abs=1.5)
