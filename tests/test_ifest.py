import math

import numpy as np
import pytest

from fcssk import (ConfigError, IqBuffer, LlsParams, apply_awgn, decide,
                   derive_params, downconvert, dpll_response, dpll_track, encode,
                   lls_track, make_dpll_params, modulate, reference_chirp)
from fcssk import chain, ifest, sigcore
from fcssk.ifest import (_fft_size, _lls_design, _overlap_save, default_dpll, default_f_nat,
                         design_lowpass, lowpass)
from fcssk.sigcore import PARALLEL_BLOCK, periodic_reference
from fcssk.txmod import make_mod_params
from if_reference import unwrap_phase


def reference_of(rx, mp):
    """The reference chirp over the samples of ``rx``."""
    n = len(rx.samples)
    return reference_chirp(mp.chirp, max(-(-n // mp.chirp.n), 1)).samples[:n]


def tone(freq_hz, n, fs, phase=0.0):
    t = np.arange(n)
    return IqBuffer(np.exp(1j * (2 * np.pi * freq_hz * t / fs + phase)), fs)


class TestDpllParams:
    def test_coefficient_formulas(self):
        # direct evaluation of the closed-form gains
        fs, f_nat, zeta = 65536, 128.0, 1.0 / math.sqrt(2.0)   # the fixed damping
        p = make_dpll_params(fs, f_nat)
        c2 = 2.0 * zeta * (2.0 * math.pi * f_nat) / fs
        assert p.c2 == pytest.approx(c2, rel=1e-9)
        assert p.c1 == pytest.approx(c2 ** 2 / (4 * zeta ** 2), rel=1e-9)
        # bit for bit: 4*zeta**2 is 1.9999999999999996, so c2*c2/2 would differ
        assert (p.c1, p.c2) == (c2 * c2 / (4.0 * zeta * zeta), c2)
        assert p.c1 == pytest.approx(1.5059821e-4, rel=1e-6)
        assert p.c2 == pytest.approx(1.7355011e-2, rel=1e-6)

    def test_sampling_assumption_enforced(self):
        with pytest.raises(ConfigError):
            make_dpll_params(1000, 128.0)

    def test_default_f_nat_is_half_coded_bit_rate(self, man128):
        assert default_f_nat(man128) == pytest.approx(128.0)

    def test_default_dpll_at_the_operating_point(self, man128):
        assert default_dpll(man128) == make_dpll_params(man128.chirp.fs, 128.0)

    def test_default_dpll_refuses_a_slope_it_cannot_track(self):
        # lag 2*pi*k0/(fs*c1) = 3.22 rad: noiseless bursts here decode with errors
        mp = make_mod_params(derive_params(20743.0, 4.0, 48000, strict=True), "manchester", 64)
        with pytest.raises(ConfigError, match="lags the chirp slope by 3.22 rad"):
            default_dpll(mp)


class TestDpllTrack:
    def test_frequency_step_settles(self, chirp):
        p = make_dpll_params(chirp.fs, 128.0)
        buf = tone(50.0, 3 * chirp.fs // 4, chirp.fs)
        track = dpll_track(buf, p)
        settle = 5 * chirp.fs // 128
        np.testing.assert_allclose(track[settle:], 50.0, atol=0.5)

    def test_ramp_tracked_with_zero_frequency_error(self, chirp):
        # linear IF ramp k0*fs Hz/s: type-2 loop -> frequency error -> 0
        p = make_dpll_params(chirp.fs, 128.0)
        n = chirp.n
        ramp_if = chirp.k0 * np.arange(n)
        phase = 2 * np.pi * np.cumsum(ramp_if) / chirp.fs
        track = dpll_track(IqBuffer(np.exp(1j * phase), chirp.fs), p)
        err = track[n // 2:] - ramp_if[n // 2:]
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
            steady = track[n // 2:]
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
        assert np.array_equal(dpll_track(buf, p), dpll_track(buf, p))


@pytest.mark.parametrize("estimate", [
    lambda bb: dpll_track(bb, make_dpll_params(bb.fs, 128.0)),
    lambda bb: lls_track(bb, LlsParams(window_len=256))], ids=["dpll", "lls"])
def test_caller_held_baseband_unchanged(chirp, estimate):
    # an estimator drops its own reference to the baseband, never the caller's
    bb = IqBuffer(np.exp(1j * np.random.default_rng(2).uniform(-4, 4, 150_000)), chirp.fs)
    before = bb.samples.copy()
    estimate(bb)
    assert bb.samples.dtype == np.complex128 and bytes(bb.samples) == bytes(before)


class TestLlsTrack:
    def test_constant_tone(self, chirp):
        track = lls_track(tone(100.0, 2048, chirp.fs), LlsParams(window_len=256))
        assert len(track) == 2048
        np.testing.assert_allclose(track, 100.0, atol=1e-6)

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
        rel = np.abs(track - expected_if) / expected_if
        assert rel.max() < 1e-6

    def test_degrees_agree_on_quadratic_phase(self, chirp):
        n = 1024
        ramp_if = 1.0 + 0.03 * np.arange(n)
        phase = 2 * np.pi * np.cumsum(ramp_if) / chirp.fs
        buf = IqBuffer(np.exp(1j * phase), chirp.fs)
        t2 = lls_track(buf, LlsParams(degree=2, window_len=256))
        t5 = lls_track(buf, LlsParams(degree=5, window_len=256))
        np.testing.assert_allclose(t2, t5, atol=1e-6)

    @pytest.mark.parametrize("fit", [dict(degree=1, window_len=256), dict(window_len=6)])
    def test_impossible_fit_refused_where_built(self, fit):
        with pytest.raises(ConfigError, match="degree"):
            LlsParams(**fit)

    def test_window_longer_than_signal(self, chirp):
        with pytest.raises(ConfigError):
            lls_track(tone(1.0, 100, chirp.fs), LlsParams(window_len=256))

    def test_covers_whole_input(self, chirp):
        buf = tone(42.0, 1000, chirp.fs)  # not a multiple of the stride
        track = lls_track(buf, LlsParams(window_len=256))
        assert len(track) == 1000
        np.testing.assert_allclose(track, 42.0, atol=1e-6)


def dense_lls_track(bb, p):
    """The LLS track through the dense window operator dvand @ pinv(vand),
    applied as matrix products."""
    window, total = p.window_len, len(bb.samples)
    hop = window // 4
    lead = (window - hop) // 2
    u = np.linspace(-1.0, 1.0, window)
    vand = np.vander(u, p.degree + 1, increasing=True)
    dvand = np.zeros_like(vand)
    dvand[:, 1:] = vand[:, :-1] * np.arange(1, p.degree + 1)
    d_op = dvand @ np.linalg.pinv(vand)
    gain = bb.fs / (2.0 * np.pi * (window - 1) / 2.0)
    phi = unwrap_phase(np.angle(bb.samples))
    out = np.empty(total)
    windows = np.lib.stride_tricks.sliding_window_view(phi, window)[::hop]
    pos = lead + windows.shape[0] * hop
    out[lead:pos] = (windows @ d_op[lead:lead + hop].T).ravel() * gain
    out[:lead] = (d_op[:lead] @ phi[:window]) * gain
    if pos < total:
        start_f = total - window
        out[pos:] = (d_op[pos - start_f:] @ phi[start_f:]) * gain
    return out


class TestLlsFactorization:
    @pytest.mark.parametrize("code,bitrate", [("manchester", 128), ("6b8b", 512)])
    @pytest.mark.parametrize("snr_db", [-4.0, 8.0])
    def test_matches_dense_operator(self, chirp, code, bitrate, snr_db):
        mp = make_mod_params(chirp, code, bitrate)
        rng = np.random.default_rng(bitrate + int(snr_db))
        bits = rng.integers(0, 2, 96)
        clean = modulate(encode(bits, code, mp.coded_bit_len), mp)
        bb = downconvert(apply_awgn(clean, snr_db, rng), mp)
        p = LlsParams(window_len=mp.coded_bit_len)
        got = lls_track(bb, p)
        want = dense_lls_track(bb, p)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        assert np.array_equal(decide(got, mp), decide(want, mp))

    @pytest.mark.parametrize("total", [256, 257, 319, 320, 321, 1000])
    def test_edge_windows_match_dense_operator(self, chirp, rng, total):
        noise = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        bb = IqBuffer(noise, chirp.fs)
        p = LlsParams(window_len=256)
        np.testing.assert_allclose(lls_track(bb, p), dense_lls_track(bb, p),
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("total", [PARALLEL_BLOCK // 2 + 24, PARALLEL_BLOCK // 2 + 35,
                                       3 * PARALLEL_BLOCK // 2 + 5])
    def test_chunked_matvec_is_one_matvec(self, chirp, rng, total, monkeypatch):
        # window 32, hop 8, blocks of 4096 windows: one block of windows
        # exactly, one window more, about three
        monkeypatch.setattr(sigcore, "PARALLEL_BLOCK", PARALLEL_BLOCK // 2)
        bb = IqBuffer(rng.standard_normal(total) + 1j * rng.standard_normal(total), chirp.fs)
        p = LlsParams(window_len=32)
        window, hop = 32, 8
        lead = (window - hop) // 2
        proj, deriv, scale = _lls_design(p.degree, window)
        phi = np.unwrap(np.angle(bb.samples))
        want = np.empty(total)
        windows = np.lib.stride_tricks.sliding_window_view(phi, window)[::hop]
        stop = lead + windows.shape[0] * hop
        np.matvec(deriv[lead:lead + hop], np.matvec(proj, windows),
                  out=want[lead:stop].reshape(-1, hop))
        want[:lead] = np.matvec(deriv[:lead], np.matvec(proj, phi[:window]))
        start_f = total - window
        want[stop:] = np.matvec(deriv[stop - start_f:], np.matvec(proj, phi[start_f:]))
        want *= scale * bb.fs
        got = lls_track(bb, p)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_design_shapes(self):
        proj, deriv, _ = _lls_design(5, 256)
        assert proj.shape == (5, 256) and deriv.shape == (256, 5)


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

    @pytest.mark.parametrize("fs,taps", [(65536, 129), (48000, 95), (28672, 57),
                                         (16384, 33), (600, 3)])
    def test_fixed_duration(self, fs, taps):
        # 128 sample intervals at 65536 S/s, rounded to an odd length of at least 3
        h = design_lowpass(64.0, fs)
        assert len(h) == taps and np.isfinite(h).all()

    def test_window_sinc_at_65536(self):
        # the 129-tap raised-cosine windowed sinc, written out independently
        m = np.arange(129) - 64
        h = 2 * 200 / 65536 * np.sinc(2 * 200 / 65536 * m) * (0.5 + 0.5 * np.cos(np.pi * m / 64))
        assert np.array_equal(design_lowpass(200.0, 65536), h / h.sum())

    @pytest.mark.parametrize("f_hz", [64.0, 128.0, 256.0, 512.0])
    def test_response_in_hz_independent_of_fs(self, f_hz):
        def gain(fs):
            h = design_lowpass(64.0, fs)
            return abs(np.sum(h * np.exp(-2j * np.pi * f_hz * np.arange(len(h)) / fs)))
        assert gain(16384) == pytest.approx(gain(65536), abs=0.02)

    def test_default_cutoff_floor(self, chirp, man128):
        # Manchester 128 b/s peaks at 16 Hz of deviation: 4x that is the 64 Hz floor
        assert np.array_equal(lowpass(man128), design_lowpass(64.0, chirp.fs))

    def test_one_lowpass_rule(self, man128, monkeypatch):
        # resolve_receive refuses, and downconvert filters with, ifest.lowpass alone
        def refuse(mp):
            raise ConfigError("sentinel lowpass")
        monkeypatch.setattr(ifest, "lowpass", refuse)
        rx = reference_chirp(man128.chirp, 1)
        with pytest.raises(ConfigError, match="^sentinel lowpass$"):
            chain.resolve_receive(man128, "lls")
        with pytest.raises(ConfigError, match="^sentinel lowpass$"):
            downconvert(rx, man128)


class TestDownconvert:
    def test_self_mix_is_dc(self, chirp, man128):
        rx = reference_chirp(chirp, 1)
        bb = downconvert(rx, man128)
        phase = np.unwrap(np.angle(bb.samples))
        skip = 256  # filter transient
        if_est = np.diff(phase[skip:-skip]) * chirp.fs / (2 * np.pi)
        assert np.abs(if_est).max() < 0.1

    def test_manchester_triangle_visible(self, chirp, man128):
        frame = encode([1, 0, 1, 1], "manchester", man128.coded_bit_len)
        bb = downconvert(modulate(frame, man128), man128)
        phase = np.unwrap(np.angle(bb.samples))
        if_est = np.diff(phase) * chirp.fs / (2 * np.pi)
        peak_region = if_est[200:312]  # around the first bit's midpoint
        assert peak_region.max() == pytest.approx(16.0, abs=1.5)

    @staticmethod
    def direct(rx, mp):
        """The lowpass as a direct convolution, group delay cut off."""
        bb = rx.samples * np.conj(reference_of(rx, mp))
        h = lowpass(mp)
        delay = (len(h) - 1) // 2
        return np.convolve(bb, h)[delay:delay + len(bb)]

    @pytest.mark.parametrize("fs", [16384, 65536])
    def test_matches_direct_convolution(self, fs):
        mp = make_mod_params(derive_params(1024.0, 4.0, fs), "manchester", 128)
        n_bits = 2 * PARALLEL_BLOCK // mp.coded_bit_len + 40   # several FFT groups
        bits = np.random.default_rng(fs).integers(0, 2, n_bits)
        clean = modulate(encode(bits, "manchester", mp.coded_bit_len), mp)
        rx = apply_awgn(clean, 0.0, np.random.default_rng(7))
        taps = len(lowpass(mp))
        assert len(rx) > 4 * PARALLEL_BLOCK
        got, want = downconvert(rx, mp).samples, self.direct(rx, mp)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for track in (lambda bb: lls_track(bb, LlsParams(window_len=mp.coded_bit_len)),
                      lambda bb: dpll_track(bb, default_dpll(mp))):
            bits_got = decide(track(IqBuffer(got, fs)), mp)
            assert np.array_equal(bits_got, decide(track(IqBuffer(want, fs)), mp))
        # inputs shorter than one FFT block, and shorter than the filter
        for n in (_fft_size(taps) // 2, taps // 2, 1):
            short = IqBuffer(rx.samples[:n], fs)
            np.testing.assert_allclose(downconvert(short, mp).samples, self.direct(short, mp),
                                       rtol=0, atol=1e-12)

    @staticmethod
    def full_product(rx, mp):
        """The mix as one full-length product, then the same overlap-save."""
        bb = np.conj(reference_of(rx, mp))
        np.multiply(rx.samples.astype(np.complex128), bb, out=bb)
        h = lowpass(mp)

        def copy(a, b, out):
            out[:] = bb[a:b]
        return _overlap_save(copy, len(bb), h, np.complex128, lag=(len(h) - 1) // 2)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_group_mix_is_the_full_product(self, man128, dtype):
        n_bits = 4 * PARALLEL_BLOCK // man128.m + 7    # over four FFT groups, the last partial
        bits = np.random.default_rng(3).integers(0, 2, n_bits)
        clean = modulate(encode(bits, "manchester", man128.coded_bit_len), man128)
        noisy = apply_awgn(clean, 2.0, np.random.default_rng(4)).samples.astype(dtype)
        taps = len(lowpass(man128))
        for n in (len(noisy), 2 * PARALLEL_BLOCK, _fft_size(taps) // 2, taps // 2, 1):
            rx = IqBuffer(noisy[:n], man128.chirp.fs)
            got, want = downconvert(rx, man128).samples, self.full_product(rx, man128)
            assert got.dtype == want.dtype == np.complex128
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n

    def test_reference_looked_up_through_ifest(self, man128, monkeypatch):
        # the bench tracer counts calls at ifest.periodic_reference
        calls = []
        def counted(params):
            calls.append(params)
            return periodic_reference(params)
        monkeypatch.setattr(ifest, "periodic_reference", counted)
        downconvert(reference_chirp(man128.chirp, 1), man128)
        assert calls == [man128.chirp]
