"""The array-code DPLL against the per-sample loop it replaces.

``reference_dpll`` is the loop as it ran before ``dpll_track`` became a
linear filter plus exact cycle-slip steps: one wrapped phase comparison,
one integrator update and one phase update per sample.  It also counts
cycle slips: samples where the whole turns between the unwrapped input
phase and the loop phase change.
"""

import math

import numpy as np
import pytest

from fcssk import ifest
from fcssk import (ConfigError, DpllParams, IqBuffer, apply_awgn, decide,
                   downconvert, dpll_track, encode, make_dpll_params, make_mod_params,
                   modulate)
from fcssk.ifest import TWO_PI, _loop_kernel, _overlap_save, default_f_nat
from fcssk.sigcore import PARALLEL_BLOCK

TOLERANCE_HZ = 1e-5


def reference_dpll(bb: IqBuffer, p: DpllParams) -> tuple[np.ndarray, int]:
    """(track in Hz, cycle slips) of the per-sample second-order loop."""
    phase_in = np.angle(bb.samples).tolist()
    unwrapped = np.unwrap(np.angle(bb.samples)).tolist()
    out = [0.0] * len(phase_in)
    c1, c2 = p.c1, p.c2
    acc = 0.0       # loop-filter integrator (enters delayed)
    phi_out = 0.0   # phase-integrator state (enters delayed)
    two_pi = 2.0 * math.pi
    gain = bb.fs / two_pi
    turns, slips = 0, 0
    for i, pin in enumerate(phase_in):
        e = (pin - phi_out + math.pi) % two_pi - math.pi
        now = round((unwrapped[i] - phi_out - e) / two_pi)
        slips += now != turns
        turns = now
        v = acc + c2 * e
        acc += c1 * e
        phi_out += v
        out[i] = v * gain
    return np.asarray(out), slips


def received_baseband(chirp, code, bitrate, snr_db, seed, n_bits=2004):
    """Downconverted baseband of one aligned burst, with its bits."""
    mp = make_mod_params(chirp, code, bitrate)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_bits)
    rx = apply_awgn(modulate(encode(bits, code, mp.coded_bit_len), mp), snr_db, rng)
    return downconvert(rx, mp), mp, bits


@pytest.mark.parametrize("code,bitrate", [("manchester", 128), ("6b8b", 512)])
@pytest.mark.parametrize("snr_db", [None, -4.0, -16.0])
def test_matches_loop_and_its_decisions(chirp, code, bitrate, snr_db):
    bb, mp, bits = received_baseband(chirp, code, bitrate, snr_db, seed=3)
    p = make_dpll_params(chirp.fs, default_f_nat(mp))
    expected, slips = reference_dpll(bb, p)
    got = dpll_track(bb, p)
    assert len(got) == len(expected) and got.dtype == np.float64
    np.testing.assert_allclose(got, expected, rtol=0, atol=TOLERANCE_HZ)
    ref_bits = decide(expected, mp)
    assert np.array_equal(decide(got, mp), ref_bits)
    if snr_db is None:
        assert slips == 0
        assert np.array_equal(ref_bits, bits)
    if (code, snr_db) == ("manchester", -16.0):
        assert slips >= 50  # the slip steps, not only the linear part, are exercised


def test_in_place_track_is_the_whole_array_formula(chirp):
    """Wrapped phase increments written per overlap-save group and the
    integral carried from block to block give the whole-array formula's
    bits."""
    bb, mp, _ = received_baseband(chirp, "manchester", 128, 8.0, seed=4)
    p = make_dpll_params(chirp.fs, default_f_nat(mp))
    g = _loop_kernel(p.c1, p.c2)
    step = np.diff(np.angle(bb.samples), prepend=0.0)
    step -= TWO_PI * np.round(step / TWO_PI)

    def copy(a, b, out):
        out[:] = step[a:b]
    err = _overlap_save(copy, len(step), g, np.float64)
    assert np.all((err >= -math.pi) & (err < math.pi))    # no slip: the linear part alone
    integral = np.cumsum(err[:-1]) * p.c1
    want = err * p.c2
    want[1:] += integral
    want *= bb.fs / TWO_PI
    assert len(want) > 10 * PARALLEL_BLOCK
    assert bytes(dpll_track(bb, p)) == bytes(want)


def test_slip_scan_does_not_depend_on_its_window(chirp, monkeypatch):
    """The cycle-slip scan applies each slip before it looks for the next,
    so the window it checks per step changes no bit of the track."""
    bb, mp, _ = received_baseband(chirp, "manchester", 128, -16.0, seed=5, n_bits=400)
    p = make_dpll_params(chirp.fs, default_f_nat(mp))
    assert reference_dpll(bb, p)[1] >= 10     # slips to apply
    assert ifest.SLIP_SCAN == 8192
    want = dpll_track(bb, p)
    for scan in (1, 97, len(want)):
        monkeypatch.setattr(ifest, "SLIP_SCAN", scan)
        assert np.array_equal(dpll_track(bb, p).view(np.uint64), want.view(np.uint64)), scan


def test_empty_input(chirp):
    track = dpll_track(IqBuffer(np.zeros(0, dtype=complex), chirp.fs),
                       make_dpll_params(chirp.fs, 128.0))
    assert len(track) == 0 and track.dtype == np.float64


@pytest.mark.parametrize("sample", [1.0, -1.0, 1j, -1j, 0.0, 0.3 - 0.7j])
def test_single_sample(chirp, sample):
    # -1 has phase exactly pi, which the loop wraps to -pi
    bb = IqBuffer(np.array([sample], dtype=complex), chirp.fs)
    p = make_dpll_params(chirp.fs, 128.0)
    expected, _ = reference_dpll(bb, p)
    np.testing.assert_allclose(dpll_track(bb, p), expected, rtol=0, atol=1e-9)


def test_unstable_gains_rejected(chirp):
    p = DpllParams(fs=chirp.fs, c1=0.02, c2=2.5)
    with pytest.raises(ConfigError, match="unstable"):
        dpll_track(IqBuffer(np.ones(16, dtype=complex), chirp.fs), p)
