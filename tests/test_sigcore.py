from dataclasses import replace

import numpy as np
import pytest

from fcssk import (AliasingError, ConfigError, UndefinedPhaseError, IqBuffer,
                   derive_params, instantaneous_frequency, reference_chirp)
from fcssk.codec import CodedFrame
from fcssk.sigcore import (UNWRAP_BLOCK, reference_frequency, reference_tail, synthesize,
                           unwrap_in_place, unwrap_phase)
from fcssk.txmod import modulated_frequency


def same_bits(got, want):
    return got.dtype == want.dtype and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


class TestDeriveParams:
    def test_simulation_operating_point(self):
        p = derive_params(1024.0, 4.0, 65536)
        assert p.n == 16384
        assert p.k0 == 0.0625
        assert p.t0 == 0.25
        assert p.k0 * p.n == p.b0

    def test_non_integer_period_rejected(self):
        with pytest.raises(ConfigError):
            derive_params(1024.0, 4.0, 65537)

    def test_low_rate_point(self):
        p = derive_params(700.0, 2.0, 44800)
        assert p.n == 22400
        assert p.k0 == 0.03125

    def test_aliasing(self):
        with pytest.raises(AliasingError):
            derive_params(33000.0, 4.0, 65536)

    def test_strict_envelope(self):
        with pytest.raises(ConfigError):
            derive_params(1024.0, 8.0, 65536, strict=True)
        with pytest.raises(ConfigError):
            derive_params(512.0, 4.0, 65536, strict=True)
        derive_params(700.0, 2.0, 44800, strict=True)


class TestReferenceChirp:
    def test_first_sample_is_unity(self, chirp):
        ref = reference_chirp(chirp, 1)
        assert len(ref) == 16384
        assert ref.samples[0] == 1.0 + 0.0j

    def test_if_midpoint_and_reset(self, chirp):
        freq = reference_frequency(chirp, 2 * chirp.n)
        assert abs(freq[8192] - 512.0) < 1e-9
        assert abs(freq[16384]) < 1e-9  # sawtooth reset at the period boundary

    def test_unit_envelope(self, chirp):
        ref = reference_chirp(chirp, 1)
        np.testing.assert_allclose(np.abs(ref.samples), 1.0, atol=1e-12)

    def test_deterministic(self, chirp):
        a = reference_chirp(chirp, 2).samples
        b = reference_chirp(chirp, 2).samples
        assert np.array_equal(a, b)

    def test_sweep_totals_b0(self, chirp):
        # per-sample IF increments over one period sum to exactly b0
        freq = reference_frequency(chirp, chirp.n)
        steps = np.diff(freq)
        np.testing.assert_allclose(steps, chirp.k0, atol=1e-12)
        assert abs(steps.sum() + chirp.k0 - chirp.b0) < 1e-9  # +k0 into the wrap

    def test_rejects_zero_periods(self, chirp):
        with pytest.raises(ConfigError):
            reference_chirp(chirp, 0)


class TestInstantaneousFrequency:
    def test_constant_tone(self, chirp):
        t = np.arange(4096)
        buf = IqBuffer(np.exp(2j * np.pi * 100.0 * t / chirp.fs), chirp.fs)
        track = instantaneous_frequency(buf)
        assert len(track) == 4095
        assert track.offset == 1
        np.testing.assert_allclose(track.values, 100.0, atol=1e-6)

    def test_reference_ramp(self, chirp):
        track = instantaneous_frequency(reference_chirp(chirp, 1))
        expected = reference_frequency(chirp, chirp.n)[1:]
        np.testing.assert_allclose(track.values, expected, atol=1e-6)
        # monotone nondecreasing within the period
        assert np.all(np.diff(track.values) > -1e-9)

    def test_zero_sample_rejected(self, chirp):
        samples = np.ones(16, dtype=complex)
        samples[7] = 0.0
        with pytest.raises(UndefinedPhaseError):
            instantaneous_frequency(IqBuffer(samples, chirp.fs))

    def test_too_short(self, chirp):
        with pytest.raises(ConfigError):
            instantaneous_frequency(IqBuffer(np.ones(1, dtype=complex), chirp.fs))


class TestReferenceTail:
    def test_phase_continuous_into_restart(self, chirp):
        # tail + fresh period must look like an uninterrupted periodic chirp
        tail = reference_tail(chirp, 1024)
        ref = reference_chirp(chirp, 1).samples
        joined = IqBuffer(np.concatenate([tail, ref]), chirp.fs)
        track = instantaneous_frequency(joined)
        expected = reference_frequency(chirp, chirp.n + 1024 + 1)
        # IF of the joined stream equals the reference sawtooth shifted by -1024
        np.testing.assert_allclose(track.values[:1024],
                                   expected[chirp.n - 1023:chirp.n + 1], atol=1e-6)

    def test_bounds(self, chirp):
        with pytest.raises(ConfigError):
            reference_tail(chirp, chirp.n + 1)
        assert len(reference_tail(chirp, 0)) == 0


class TestInPlaceSynthesis:
    """The in-place builds against the formulas they replaced."""

    @pytest.mark.parametrize("fs", [65536, 48000])
    @pytest.mark.parametrize("t", [0, 1, 2, 16383, 16384, 3 * 16384 + 5])
    def test_synthesize_is_exp_of_scaled_cumsum(self, man128, rng, fs, t):
        one_sample = replace(man128, coded_bit_len=1)
        frame = CodedFrame(bits=rng.integers(0, 2, t), code="manchester", coded_bit_len=1)
        for freq in (modulated_frequency(frame, one_sample), rng.uniform(-fs / 2, fs / 2, t)):
            want = np.exp(1j * ((2.0 * np.pi / fs) * np.cumsum(freq)))
            assert same_bits(synthesize(freq, fs).samples, want)

    @pytest.mark.parametrize("fs", [65536, 48000])
    @pytest.mark.parametrize("periods", [0.5, 1, 3.25])
    def test_reference_frequency_is_scaled_mod(self, fs, periods):
        chirp = derive_params(1024.0, 4.0, fs)
        n = int(periods * chirp.n)
        want = chirp.k0 * np.mod(np.arange(n, dtype=np.float64), chirp.n)
        assert same_bits(reference_frequency(chirp, n), want)


class TestUnwrapInPlace:
    """Blocks of UNWRAP_BLOCK samples start at samples 1, 1 + B, 1 + 2B, ...:
    the step into a block's first sample crosses the edge."""

    @pytest.mark.parametrize("jump", [np.pi, -np.pi, 2.5 * np.pi, -6.0, 0.5])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_matches_numpy_across_block_edges(self, jump, shift):
        b = UNWRAP_BLOCK
        rng = np.random.default_rng(11)
        phase = np.angle(np.exp(1j * np.cumsum(rng.uniform(-2.0, 2.0, 3 * b + 5))))
        for edge in (1 + b, 1 + 2 * b, 1 + 3 * b):
            k = edge + shift          # the step into sample k is exactly ``jump``
            phase[k - 1], phase[k] = 0.0, jump
        want = np.unwrap(phase)
        got = phase.copy()
        unwrap_in_place(got)
        assert same_bits(got, want)
        assert same_bits(unwrap_phase(phase), want)

    @pytest.mark.parametrize("n", [0, 1, 2, UNWRAP_BLOCK, UNWRAP_BLOCK + 1, UNWRAP_BLOCK + 2])
    def test_lengths_around_one_block(self, rng, n):
        phase = rng.uniform(-np.pi, np.pi, n)
        got = phase.copy()
        unwrap_in_place(got)
        assert same_bits(got, np.unwrap(phase))

    def test_unwrap_phase_leaves_its_input(self, rng):
        phase = rng.uniform(-np.pi, np.pi, 1000)
        kept = phase.copy()
        unwrap_phase(phase)
        assert same_bits(phase, kept)
