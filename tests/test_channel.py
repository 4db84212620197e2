import numpy as np
import pytest

from fcssk import ConfigError, IqBuffer, apply_awgn, apply_delay, derived_rng
from fcssk import reference_chirp
from fcssk.channel import STREAM_NOISE
from fcssk.sigcore import PARALLEL_BLOCK
from if_reference import instantaneous_frequency


class TestAwgn:
    def test_noiseless_sentinel(self, chirp, rng):
        buf = IqBuffer(np.exp(1j * rng.uniform(0, 2 * np.pi, 1000)), chirp.fs)
        assert np.array_equal(apply_awgn(buf, None, derived_rng(1, STREAM_NOISE)).samples,
                              buf.samples)
        assert np.array_equal(apply_awgn(buf, np.inf, derived_rng(1, STREAM_NOISE)).samples,
                              buf.samples)

    def test_variance_at_0db(self, chirp):
        # statistical oracle: at 0 dB total noise variance is 1.0 +- 1%
        buf = IqBuffer(np.ones(10 ** 6, dtype=complex), chirp.fs)
        noisy = apply_awgn(buf, 0.0, derived_rng(1234, STREAM_NOISE))
        noise = noisy.samples - buf.samples
        assert np.var(noise) == pytest.approx(1.0, rel=0.01)

    def test_zero_mean(self, chirp):
        buf = IqBuffer(np.zeros(10 ** 6, dtype=complex), chirp.fs)
        noise = apply_awgn(buf, 0.0, derived_rng(99, STREAM_NOISE)).samples
        bound = 5.0 / np.sqrt(10 ** 6)
        assert abs(noise.mean().real) < bound
        assert abs(noise.mean().imag) < bound

    def test_snr_scaling(self, chirp):
        buf = IqBuffer(np.zeros(10 ** 6, dtype=complex), chirp.fs)
        v_hi = np.var(apply_awgn(buf, 10.0, derived_rng(5, STREAM_NOISE)).samples)
        assert v_hi == pytest.approx(0.1, rel=0.01)

    @staticmethod
    def one_draw(buf, snr_db, seed_or_rng):
        """The noise as one draw of I and one of Q, added out of place."""
        rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
            else derived_rng(seed_or_rng, STREAM_NOISE)
        scale = np.sqrt(10.0 ** (-float(snr_db) / 10.0) / 2.0)
        n = len(buf.samples)
        return buf.samples + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

    @pytest.mark.parametrize("n", [0, 1, PARALLEL_BLOCK - 1, PARALLEL_BLOCK, PARALLEL_BLOCK + 1,
                                   3 * PARALLEL_BLOCK + 5])
    @pytest.mark.parametrize("use_generator", [True, False])
    def test_chunked_draw_is_one_draw(self, chirp, n, use_generator):
        buf = IqBuffer(np.exp(1j * np.random.default_rng(n).uniform(-4.0, 4.0, n)), chirp.fs)
        def source():
            return np.random.default_rng(321) if use_generator else derived_rng(321, STREAM_NOISE)
        got = apply_awgn(buf, -3.5, source()).samples
        want = self.one_draw(buf, -3.5, source())
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_non_finite_snr_rejected(self, chirp, snr_db):
        buf = IqBuffer(np.ones(16, dtype=complex), chirp.fs)
        with pytest.raises(ConfigError, match="finite"):
            apply_awgn(buf, snr_db, derived_rng(1, STREAM_NOISE))

    def test_overflowing_noise_power_rejected(self, chirp):
        buf = IqBuffer(np.ones(16, dtype=complex), chirp.fs)
        with pytest.raises(ConfigError, match=r"^4000 dB overflows a float as a power ratio$"):
            apply_awgn(buf, -4000.0, derived_rng(1, STREAM_NOISE))

    def test_deterministic(self, chirp):
        buf = IqBuffer(np.ones(4096, dtype=complex), chirp.fs)
        a = apply_awgn(buf, 3.0, derived_rng(777, STREAM_NOISE)).samples
        b = apply_awgn(buf, 3.0, derived_rng(777, STREAM_NOISE)).samples
        assert np.array_equal(a, b)


class TestDelay:
    def test_zero_is_identity(self, chirp):
        ref = reference_chirp(chirp, 1)
        assert apply_delay(ref, 0, chirp) is ref

    def test_beat_tone_at_minus_64_hz(self, chirp):
        # Eq.-18 oracle: tau = 1024 samples -> dominant beat k0*tau = 64 Hz
        ref2 = reference_chirp(chirp, 2)
        rx = apply_delay(ref2, 1024, chirp)
        mixed = rx.samples[:chirp.n] * np.conj(reference_chirp(chirp, 1).samples)
        spectrum = np.abs(np.fft.fft(mixed))
        peak = np.fft.fftfreq(chirp.n, 1.0 / chirp.fs)[np.argmax(spectrum)]
        assert peak == pytest.approx(-64.0, abs=chirp.fs / chirp.n)

    def test_output_is_steady_state_stream(self, chirp):
        # the prefixed stream has no IF discontinuity at the junction
        ref = reference_chirp(chirp, 1)
        rx = apply_delay(ref, 512, chirp)
        track = instantaneous_frequency(rx)
        steps = np.abs(np.diff(track))
        assert steps.max() < chirp.b0  # only the sawtooth wrap exceeds k0
        np.testing.assert_allclose(np.sort(steps)[:-1], chirp.k0, atol=1e-6)

    def test_delay_bounds(self, chirp):
        ref = reference_chirp(chirp, 1)
        with pytest.raises(ConfigError):
            apply_delay(ref, len(ref), chirp)
        with pytest.raises(ConfigError):
            apply_delay(ref, -1, chirp)
        short = IqBuffer(ref.samples[:100], chirp.fs)
        with pytest.raises(ConfigError):
            apply_delay(short, 200, chirp)


class TestDerivedRng:
    def test_streams_differ_by_tag(self):
        a = derived_rng(7, 1, 0).standard_normal(8)
        b = derived_rng(7, 2, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        a = derived_rng(7, 1, 3).standard_normal(8)
        b = derived_rng(7, 1, 3).standard_normal(8)
        assert np.array_equal(a, b)

