"""The receive chain and the Monte-Carlo BER engine.

``receive_chain`` runs sync -> downconvert -> IF estimation -> detection on
one capture.  ``simulate`` sweeps SNR grid points: each point is split into
trials of at most ``TRIAL_BITS`` info bits, every trial draws its bits,
delay and noise from its own ``(seed, point, trial)`` streams, and the
trials of all points run on one thread per usable CPU.

Stages are called through their module attributes (``sync.estimate_timing``,
``codec.encode``, ...), so a tracer that wraps those attributes sees them.
"""

from __future__ import annotations

import os

import numpy as np

from . import channel, codec, detect, ifest, sync, txmod
from .errors import FcsskError, NonFiniteSampleError, SyncError
from .sigcore import IqBuffer

TRIAL_BITS = 2004          # per-trial burst size; divisible by 6 for 6b8b


def receive_chain(rx: IqBuffer, mp: txmod.ModParams, estimator: str,
                  use_sync: bool) -> detect.Decision:
    """sync -> downconvert -> IF estimation -> detection."""
    if not np.isfinite(rx.samples).all():
        index = int(np.argmin(np.isfinite(rx.samples)))
        raise NonFiniteSampleError(f"sample {index} is {rx.samples[index]}, "
                                   f"not a finite number", index=index)
    if use_sync:
        rx = sync.align(rx, sync.estimate_timing(rx, mp.chirp))
    bb = ifest.downconvert(rx, mp)
    # If the caller passed rx inline (as cmd_demodulate does), this frame
    # holds the last reference: CPython 3.11 moves call arguments into the
    # callee's frame, so the capture is freed here, before the estimator.
    del rx
    if estimator == "dpll":
        track = ifest.dpll_track(bb, ifest.default_dpll(mp))
    elif estimator == "lls":
        track = ifest.lls_track(bb, ifest.LlsParams(window_len=mp.coded_bit_len))
    else:
        raise FcsskError(f"unknown estimator {estimator!r}")
    return detect.decide(track, mp)


def trial_sizes(total_bits: int, code: str) -> list[int]:
    """Info bits per trial: whole TRIAL_BITS bursts, then the remainder cut
    to whole code blocks (an empty list when not one block fits)."""
    block = codec.get_code_spec(code).p
    sizes = []
    remaining = total_bits
    while remaining >= TRIAL_BITS:
        sizes.append(TRIAL_BITS)
        remaining -= TRIAL_BITS
    remaining -= remaining % block
    if remaining:
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
        decision = receive_chain(rx, mp, estimator, use_sync)
    except SyncError:
        decision = receive_chain(rx, mp, estimator, use_sync=False)
    k = min(len(decision.bits), len(tx_bits))
    return k, int(np.count_nonzero(decision.bits[:k] != tx_bits[:k]))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_tasks(tasks: list[tuple]) -> list[tuple[int, int]]:
    """``_run_trial(*task)`` for every task, in task order.

    Trials share nothing but read-only caches, so they run on one thread
    per usable CPU; with one worker they run in the calling thread.  The
    first failure cancels the tasks not yet started, waits for the running
    ones and is re-raised.
    """
    workers = min(len(tasks), _usable_cpus())
    if workers <= 1:
        return [_run_trial(*task) for task in tasks]
    # imported here, so a run that starts no thread does not pay the import
    # time and memory of concurrent.futures and the logging it loads
    from concurrent.futures import ThreadPoolExecutor, as_completed
    pool = ThreadPoolExecutor(workers, thread_name_prefix="fcssk-trial")
    try:
        futures = [pool.submit(_run_trial, *task) for task in tasks]
        for future in as_completed(futures):
            future.result()             # the first failure raises here
    finally:
        pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]


def simulate(mp: txmod.ModParams, estimator: str, points: list[tuple[int, float]],
             bits: int, seed: int, use_sync: bool = True) -> list[tuple[int, int]]:
    """(bits scored, bit errors) for each (point index, SNR dB) grid point,
    ``bits`` info bits sent at each.  The point index, not its position in
    ``points``, selects the point's random streams.  The trials of all
    points run as one batch of tasks."""
    sizes = trial_sizes(bits, mp.code)
    results = _run_tasks([(mp, estimator, use_sync, seed, snr_db, index, trial, n_bits)
                          for index, snr_db in points
                          for trial, n_bits in enumerate(sizes)])
    totals = []
    for i in range(len(points)):
        trials = results[i * len(sizes):(i + 1) * len(sizes)]
        totals.append((sum(b for b, _ in trials), sum(e for _, e in trials)))
    return totals
