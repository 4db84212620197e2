import numpy as np
import pytest

from fcssk import (ConfigError, IqBuffer, SyncError, align, apply_awgn,
                   apply_delay, derive_params, estimate_timing, modulate, reference_chirp)
from fcssk.codec import encode
from fcssk.sigcore import periodic_reference, unwrap_phase
from fcssk.sync import (MAX_SLIP_BOUNDARIES, SLIP_AVG, SLIP_GUARDS, _measure_slips,
                        _mixed_periodogram)
from fcssk.txmod import make_mod_params


def delayed_reference(chirp, tau, periods=3):
    ref = reference_chirp(chirp, periods)
    return apply_delay(ref, tau, chirp) if tau else ref


class TestEstimateTiming:
    def test_zero_offset(self, chirp):
        est = estimate_timing(reference_chirp(chirp, 2), chirp)
        assert est.tau_hat == 0

    def test_tau_1024_noiseless(self, chirp):
        est = estimate_timing(delayed_reference(chirp, 1024), chirp)
        assert abs(est.tau_hat - 1024) <= 2
        assert est.delta_f1 == pytest.approx(64.0, abs=chirp.rep_rate)
        assert est.delta_f1 + est.delta_f2 == pytest.approx(chirp.b0, abs=chirp.rep_rate)

    def test_ambiguous_branch_beyond_half_period(self, chirp):
        # tau > T0/2: the folded beat alone cannot separate tau from N-tau
        est = estimate_timing(delayed_reference(chirp, 12288), chirp)
        assert abs(est.tau_hat - 12288) <= 2

    def test_noiseless_grid_subset(self, chirp):
        for tau in (0, 512, 3072, 8192, 13824, 15872):
            est = estimate_timing(delayed_reference(chirp, tau), chirp)
            assert abs(est.tau_hat - tau) <= 2, f"tau={tau} -> {est.tau_hat}"

    def test_modulated_20db(self, chirp, rng):
        mp = make_mod_params(chirp, "manchester", 128)
        bits = rng.integers(0, 2, 384)  # 12 chirp periods
        sig = modulate(encode(bits, "manchester", mp.coded_bit_len), mp)
        tau = 9000
        rx = apply_awgn(apply_delay(sig, tau, chirp), 20.0, rng)
        est = estimate_timing(rx, chirp)
        assert abs(est.tau_hat - tau) <= 2

    def test_flat_spectrum_raises(self, chirp, rng):
        noise = rng.standard_normal(2 * chirp.n) + 1j * rng.standard_normal(2 * chirp.n)
        with pytest.raises(SyncError):
            estimate_timing(IqBuffer(noise, chirp.fs), chirp)

    def test_too_short(self, chirp):
        buf = IqBuffer(reference_chirp(chirp, 1).samples[:100], chirp.fs)
        with pytest.raises(ConfigError):
            estimate_timing(buf, chirp)

    def test_range_invariant(self, chirp, rng):
        for tau in rng.integers(0, chirp.n, 4):
            est = estimate_timing(delayed_reference(chirp, int(tau)), chirp)
            assert 0 <= est.tau_hat < chirp.n


class TestAlign:
    def test_identity(self, chirp):
        ref = reference_chirp(chirp, 1)
        est = estimate_timing(reference_chirp(chirp, 2), chirp)
        assert np.array_equal(align(ref, est).samples, ref.samples)

    def test_drops_offset(self, chirp):
        ref = reference_chirp(chirp, 2)
        rx = apply_delay(ref, 1024, chirp)
        est = estimate_timing(rx, chirp)
        aligned = align(rx, est)
        residual = len(rx) - est.tau_hat
        assert len(aligned) == residual
        # residual offset against ground truth is within 2 samples
        assert abs(est.tau_hat - 1024) <= 2

    def test_full_drop_gives_empty(self, chirp):
        ref = reference_chirp(chirp, 1)
        assert len(align(ref, len(ref))) == 0

    def test_out_of_range(self, chirp):
        ref = reference_chirp(chirp, 1)
        with pytest.raises(ConfigError):
            align(ref, len(ref) + 1)


def reference_measure_slips(rx, params, t0, guard):
    """``_measure_slips`` one boundary at a time, each window unwrapped in
    full: the oracle that the batched measurement must equal bit for bit."""
    n, fs, b0 = params.n, params.fs, params.b0
    total = len(rx) - t0
    half = 3 * guard + SLIP_AVG
    ref = periodic_reference(params, total)
    deltas = []
    p = n
    while p + half < total and len(deltas) < MAX_SLIP_BOUNDARIES:
        if p - half >= 0:
            seg = rx[t0 + p - half:t0 + p + half + 1] * np.conj(ref[p - half:p + half + 1])
            phi = unwrap_phase(np.angle(seg))

            def pavg(idx):
                return float(phi[idx - SLIP_AVG:idx + SLIP_AVG + 1].mean())

            c = half
            s_in = pavg(c + guard) - pavg(c - guard)
            s_pre = pavg(c - guard) - pavg(c - 3 * guard)
            s_post = pavg(c + 3 * guard) - pavg(c + guard)
            slip = s_in - 0.5 * (s_pre + s_post)
            deltas.append(slip * fs / (2.0 * np.pi * b0))
        p += n
    if not deltas:
        return 0.0
    return float(np.clip(float(np.mean(deltas)), -guard, guard))


class TestMeasureSlips:
    # 48000 S/s pairs with 96 b/s; at 16384 S/s the guard-2048 windows overlap
    @pytest.mark.parametrize("fs,bitrate", [(65536, 128), (16384, 128), (48000, 96)])
    def test_batched_equals_per_boundary_loop(self, fs, bitrate):
        chirp = derive_params(1024.0, 4.0, fs)
        mp = make_mod_params(chirp, "manchester", bitrate)
        rng = np.random.default_rng(fs)
        calls = 0
        for n_bits in (8, 40, 400):      # 8 bits hold no boundary window at all
            sig = modulate(encode(rng.integers(0, 2, n_bits), "manchester",
                                  mp.coded_bit_len), mp)
            tau = int(rng.integers(1, min(chirp.n, len(sig))))
            for snr_db in (None, 10.0, -4.0, -16.0):
                rx = apply_delay(sig, tau, chirp)
                x = rx.samples if snr_db is None else apply_awgn(rx, snr_db, rng).samples
                for t0 in (0, tau, (tau + 37) % chirp.n, chirp.n - 1):
                    for guard in SLIP_GUARDS:
                        got = _measure_slips(x, chirp, t0, guard)
                        assert got == reference_measure_slips(x, chirp, t0, guard), \
                            (n_bits, snr_db, t0, guard)
                        calls += got != 0.0
        assert calls > 0


class TestMixedPeriodogram:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("start,periods", [(0, 1), (0, 3), (777, 2)])
    def test_in_place_transform_is_the_out_of_place_one(self, chirp, rng, dtype, start, periods):
        n = chirp.n
        rx = (rng.standard_normal(4 * n) + 1j * rng.standard_normal(4 * n)).astype(dtype)
        # out-of-place FFT; the product in place, as in the function (a separate
        # product array can round differently)
        mixed = np.conj(periodic_reference(chirp, periods * n))
        np.multiply(rx[start:start + periods * n], mixed, out=mixed)
        want = np.abs(np.fft.fft(mixed.reshape(periods, n), axis=1))
        want **= 2
        want = want.mean(axis=0)
        got = _mixed_periodogram(rx, chirp, start, periods)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
