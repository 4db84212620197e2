"""Closed-form performance reference: frequency-estimation CRB, per-bit
deviation energy, and the resulting ideal-estimator BER curves."""

from __future__ import annotations

import math

from .channel import db_to_linear
from .codec import get_code_spec
from .errors import ConfigError
from .txmod import ModParams


def q_function(x: float) -> float:
    """Standard normal tail probability, via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def crb_variance(snr_linear: float, n_obs: int, fs: float) -> float:
    """Cramer-Rao bound on the variance of an unbiased frequency estimate
    over n_obs samples in AWGN: 12*fs^2 / ((2*pi)^2 * SNR * N * (N^2-1))."""
    if snr_linear <= 0:
        raise ConfigError("snr_linear must be positive")
    if n_obs < 2:
        raise ConfigError("n_obs must be >= 2")
    return 12.0 * fs * fs / ((2.0 * math.pi) ** 2 * snr_linear * n_obs * (n_obs ** 2 - 1))


def bit_energy(mp: ModParams) -> float:
    """Deviation energy per info bit (area below the baseband IF curve).

    Manchester: a triangle of length M and height B0*M/N gives B0*M^2/(2N);
    a p/q code's deviation is 2p/q larger in both length and height, i.e.
    (2p/q)^2 the Manchester energy (9/4 for 6b8b).
    """
    spec = get_code_spec(mp.code)
    e_man = mp.chirp.b0 * mp.m * mp.m / (2.0 * mp.chirp.n)
    return e_man * (2 * spec.p / spec.q) ** 2


def pe_crb(e_b: float, var_f: float) -> float:
    """Matched-filter error probability of a CRB-achieving estimator:
    Q(sqrt(2*E_b / var))."""
    if var_f <= 0:
        raise ConfigError("var_f must be positive")
    if e_b < 0:
        raise ConfigError("e_b must be nonnegative")
    return q_function(math.sqrt(2.0 * e_b / var_f))


def theory_curve(mp: ModParams, snr_grid_db) -> list[float]:
    """Ideal-estimator BER at each SNR (dB) of the grid, the CRB taken over
    the fair-comparison window, one coded bit (M*p/q samples).  A point
    whose power ratio overflows or underflows a float raises ConfigError
    naming it."""
    grid = list(snr_grid_db)
    if not grid:
        raise ConfigError("snr grid must be nonempty")
    e_b = bit_energy(mp)
    curve = []
    for snr in grid:
        snr_linear = db_to_linear(snr)
        if snr_linear == 0.0:
            raise ConfigError(f"{snr:g} dB underflows a float as a power ratio")
        curve.append(pe_crb(e_b, crb_variance(snr_linear, mp.coded_bit_len, mp.chirp.fs)))
    return curve


def snr_at_pe(mp: ModParams, target_pe: float) -> float:
    """SNR (dB) where the theory curve crosses target_pe, by bisection
    over [-60, 60] dB."""
    if not 0.0 < target_pe < 0.5:
        raise ConfigError("target_pe must be in (0, 0.5)")
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if theory_curve(mp, [mid])[0] > target_pe:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
