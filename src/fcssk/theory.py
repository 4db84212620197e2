"""Closed-form performance reference: frequency-estimation CRB, per-bit
deviation energy, and the resulting ideal-estimator BER curves."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codec import get_code_spec
from .errors import ConfigError
from .sigcore import ChirpParams


@dataclass(frozen=True)
class TheoryPoint:
    snr_db: float
    code: str
    bitrate: int
    n_obs: int      # observation window, samples
    var_f: float    # CRB of the IF estimate, Hz^2
    e_b: float      # per-bit deviation energy, sample-domain units
    pe: float       # ideal-estimator bit error probability


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


def observation_window(code: str, m: int) -> int:
    """Fair-comparison window: the coded-bit duration M*p/q (M/2 or 3M/4)."""
    spec = get_code_spec(code)
    return m * spec.p // spec.q


def bit_energy(code: str, params: ChirpParams, m: int) -> float:
    """Deviation energy per info bit (area below the baseband IF curve).

    Manchester: a triangle of length M and height B0*M/N gives B0*M^2/(2N);
    a p/q code's deviation is 2p/q larger in both length and height, i.e.
    (2p/q)^2 the Manchester energy (9/4 for 6b8b).
    """
    spec = get_code_spec(code)
    e_man = params.b0 * m * m / (2.0 * params.n)
    return e_man * (2 * spec.p / spec.q) ** 2


def pe_crb(e_b: float, var_f: float) -> float:
    """Matched-filter error probability of a CRB-achieving estimator:
    Q(sqrt(2*E_b / var))."""
    if var_f <= 0:
        raise ConfigError("var_f must be positive")
    if e_b < 0:
        raise ConfigError("e_b must be nonnegative")
    return q_function(math.sqrt(2.0 * e_b / var_f))


def theory_point(code: str, bitrate: int, params: ChirpParams, snr_db: float) -> TheoryPoint:
    if bitrate <= 0 or params.fs % bitrate:
        raise ConfigError(f"bitrate {bitrate} must divide fs={params.fs}")
    m = params.fs // bitrate
    n_obs = observation_window(code, m)
    var_f = crb_variance(10.0 ** (snr_db / 10.0), n_obs, params.fs)
    e_b = bit_energy(code, params, m)
    return TheoryPoint(snr_db=float(snr_db), code=code, bitrate=int(bitrate),
                       n_obs=n_obs, var_f=var_f, e_b=e_b, pe=pe_crb(e_b, var_f))


def theory_curve(code: str, bitrate: int, params: ChirpParams,
                 snr_grid_db) -> list[TheoryPoint]:
    grid = list(snr_grid_db)
    if not grid:
        raise ConfigError("snr grid must be nonempty")
    return [theory_point(code, bitrate, params, snr) for snr in grid]


def snr_at_pe(code: str, bitrate: int, params: ChirpParams, target_pe: float,
              lo_db: float = -60.0, hi_db: float = 60.0) -> float:
    """SNR (dB) where the theory curve crosses target_pe, by bisection."""
    if not 0.0 < target_pe < 0.5:
        raise ConfigError("target_pe must be in (0, 0.5)")
    for _ in range(200):
        mid = 0.5 * (lo_db + hi_db)
        if theory_point(code, bitrate, params, mid).pe > target_pe:
            lo_db = mid
        else:
            hi_db = mid
    return 0.5 * (lo_db + hi_db)
