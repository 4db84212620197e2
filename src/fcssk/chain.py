"""The receive chain and the Monte-Carlo BER engine.

``receive_chain`` runs sync -> downconvert -> IF estimation -> detection on
one capture.  ``simulate`` sweeps SNR grid points: each point is split into
trials of about ``TRIAL_BITS`` info bits, every trial draws its bits,
delay and noise from its own ``(seed, point, trial)`` streams, and the
trials of all points run on one thread per usable CPU.  Like every
``run_parallel`` item, each trial runs its block-split stages in its own
thread, so a sweep has the memory of one trial per thread.

Stages are called through their module attributes (``sync.estimate_timing``,
``codec.encode``, ...), so a tracer that wraps those attributes sees them.
"""

from __future__ import annotations

import numpy as np

from . import channel, codec, detect, ifest, sigcore, sync, txmod
from .errors import ConfigError, NonFiniteSampleError, SyncError
from .sigcore import IqBuffer, run_parallel

TRIAL_BITS = 2004          # per-trial burst size; divisible by 6 for 6b8b
# estimator -> its parameters at ModParams, those of ifest.<estimator>_track
ESTIMATORS = {"dpll": ifest.default_dpll,
              "lls": lambda mp: ifest.LlsParams(window_len=mp.coded_bit_len)}


def resolve_receive(mp: txmod.ModParams, estimator: str) -> ifest.DpllParams | ifest.LlsParams:
    """The parameters of ``ifest.<estimator>_track`` at ``mp``, all that
    ``mp`` alone decides settled before any stage runs: ConfigError for an
    estimator not in ESTIMATORS or parameters it refuses, a lowpass that
    ``ifest.lowpass`` refuses, or a period no array can hold; then both
    caches (reference period, detector ramps) are built, outside any trial."""
    if estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}, use {' or '.join(ESTIMATORS)}")
    params = ESTIMATORS[estimator](mp)
    ifest.lowpass(mp)
    sigcore.periodic_reference(mp.chirp)
    detect._ramp_coefficients(mp)
    return params


def receive_chain(rx: IqBuffer, mp: txmod.ModParams, estimator: str,
                  use_sync: bool) -> np.ndarray:
    """sync -> downconvert -> IF estimation -> detection: the int64 info bits
    of the capture ``rx``.  Checked first, before any stage: ``resolve_receive``,
    ``rx.fs == mp.chirp.fs``, then one scan for NaN and infinity in ``rx``."""
    params = resolve_receive(mp, estimator)
    if rx.fs != mp.chirp.fs:
        raise ConfigError(f"capture is at {rx.fs} S/s, the chirp at {mp.chirp.fs} S/s")
    if not np.isfinite(rx.samples).all():
        index = int(np.argmin(np.isfinite(rx.samples)))
        raise NonFiniteSampleError(f"sample {index} is {rx.samples[index]}, "
                                   f"not a finite number", index=index)
    if use_sync:
        rx = sync.align(rx, sync.estimate_timing(rx, mp.chirp).tau_hat)
    baseband = [ifest.downconvert(rx, mp)]
    # If the caller passed rx inline (as cmd_demodulate does), this frame
    # holds the last reference: CPython 3.11 moves call arguments into the
    # callee's frame, so the capture is freed here, before the estimator.
    # The baseband is handed on the same way, popped inline, so the
    # estimator frees it once it holds its phase.
    del rx
    estimate = getattr(ifest, f"{estimator}_track")   # the attribute a tracer wraps
    return detect.decide(estimate(baseband.pop(), params), mp)


def period_bits(mp: txmod.ModParams) -> int:
    """Fewest info bits whose burst spans one chirp period, which sync needs."""
    return -(-mp.chirp.n // mp.m)


def trial_sizes(total_bits: int, code: str, min_bits: int = 1) -> list[int]:
    """Info bits per trial: whole TRIAL_BITS bursts, then the remainder cut
    to whole code blocks (an empty list when not one block fits).  A
    remainder below ``min_bits`` joins the trial before it, if any."""
    block = codec.get_code_spec(code).p
    sizes = []
    remaining = total_bits
    while remaining >= TRIAL_BITS:
        sizes.append(TRIAL_BITS)
        remaining -= TRIAL_BITS
    remaining -= remaining % block
    if remaining and remaining < min_bits and sizes:
        sizes[-1] += remaining
    elif remaining:
        sizes.append(remaining)
    return sizes


def _run_trial(mp: txmod.ModParams, estimator: str, use_sync: bool, seed: int,
               snr_db: float, point_index: int, trial: int, n_bits: int) -> tuple[int, int]:
    """One trial of one SNR grid point: seeded bits, random delay, AWGN, full
    receiver.  Returns (bits scored, bit errors)."""
    bits_rng = channel.derived_rng(seed, channel.STREAM_BITS, point_index, trial)
    delay_rng = channel.derived_rng(seed, channel.STREAM_DELAY, point_index, trial)
    noise_rng = channel.derived_rng(seed, channel.STREAM_NOISE, point_index, trial)
    tx_bits = bits_rng.integers(0, 2, n_bits)
    frame = codec.encode(tx_bits, mp.code, mp.coded_bit_len)
    rx = txmod.modulate(frame, mp)       # one name, so each stage frees its input
    tau = int(delay_rng.integers(0, mp.chirp.n))
    tau = min(tau, max(len(rx) - 1, 0))  # tiny bursts: delay must fit
    rx = channel.apply_delay(rx, tau, mp.chirp)
    rx = channel.apply_awgn(rx, snr_db, noise_rng)
    try:
        rx_bits = receive_chain(rx, mp, estimator, use_sync)
    except SyncError:
        rx_bits = receive_chain(rx, mp, estimator, use_sync=False)
    k = min(len(rx_bits), len(tx_bits))
    return k, int(np.count_nonzero(rx_bits[:k] != tx_bits[:k]))


def _trial(task: tuple) -> tuple[int, int]:
    """``_run_trial(*task)``: the ``run_parallel`` item, on ``fcssk-trial-<k>`` threads."""
    return _run_trial(*task)


def simulate(mp: txmod.ModParams, estimator: str, points: list[tuple[int, float]],
             bits: int, seed: int, use_sync: bool = True) -> list[tuple[int, int]]:
    """(bits scored, bit errors) for each (point index, SNR dB) grid point,
    ``bits`` info bits sent at each.  The point index, not its position in
    ``points``, selects the point's random streams.  The trials of all
    points run as one batch on ``run_parallel``; a remainder trial shorter
    than one chirp period joins the trial before it.  Before any trial
    runs, ``resolve_receive`` refuses the receive or builds its caches;
    then ConfigError for a negative seed, or ``bits`` that fill no trial
    or, with ``use_sync``, a trial shorter than one period."""
    resolve_receive(mp, estimator)
    if bits < 1:
        raise ConfigError(f"--bits must be at least 1, got {bits}")
    if seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {seed}")
    period = period_bits(mp)
    sizes = trial_sizes(bits, mp.code, period)
    if not sizes:
        raise ConfigError(f"--bits {bits} is below one {mp.code} block")
    if use_sync and min(sizes) < period:
        raise ConfigError(f"a trial of {min(sizes)} bits is shorter than the {period} bits "
                          f"of one chirp period at {mp.bitrate} b/s, which sync needs; "
                          f"raise --bits, lower --bitrate or use --no-sync")
    results = run_parallel(_trial, [(mp, estimator, use_sync, seed, snr_db, index, trial, n_bits)
                                    for index, snr_db in points
                                    for trial, n_bits in enumerate(sizes)])
    totals = []
    for i in range(len(points)):
        trials = results[i * len(sizes):(i + 1) * len(sizes)]
        totals.append((sum(b for b, _ in trials), sum(e for _, e in trials)))
    return totals
