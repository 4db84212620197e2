"""Chirp configuration, the complex-sample container and reference synthesis.

Conventions used throughout the package:

* frequencies are in Hz, slopes in Hz per sample;
* the phase accumulates recursively, phi[n] = phi[n-1] + 2*pi*f[n]*Ts,
  with phi and the instantaneous frequency (IF) both starting at 0 at
  transmission start, so the first sample of any transmit buffer is 1+0j;
* f[n] is the sum of the per-sample slope contributions of samples 0..n-1,
  minus b0 for every completed chirp period (sawtooth wrap).  The wrap
  subtracts exactly b0 rather than resetting to zero, so any
  modulation-induced deviation survives a period boundary.

``run_parallel`` is the package's one thread helper: the trials of a sweep
run through it, and so do the per-sample stages of one long burst, split
into blocks that each write their own slice of a preallocated output.

The unmodulated reference chirp is built period by period from one
period's IF, with the phase sum carried across each wrap, and is cached
per ``ChirpParams`` (``periodic_reference``); a longer request extends
the cache by the missing periods, so no period is synthesized twice.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, ConfigError


PARALLEL_BLOCK = 1 << 16   # samples per block of a block-split stage

_SERIAL = threading.local()   # .on: run_parallel keeps its items in this thread


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parallel_workers() -> int:
    """Threads ``run_parallel`` may use here: one per usable CPU, or one
    inside ``serially``, as in every item that ``run_parallel`` runs."""
    return 1 if getattr(_SERIAL, "on", False) else _usable_cpus()


def serially(fn, *args):
    """``fn(*args)`` with every ``run_parallel`` inside it run in this thread."""
    outer = getattr(_SERIAL, "on", False)
    _SERIAL.on = True
    try:
        return fn(*args)
    finally:
        _SERIAL.on = outer


def run_parallel(fn, items) -> list:
    """``[fn(item) for item in items]``, in item order.

    Uses ``min(len(items), parallel_workers())`` threads, named
    ``fcssk-<fn name>-<k>``, each taking the next item not yet taken,
    while the calling thread waits; with one, the items run in the calling
    thread and no thread starts.  Every item runs inside ``serially``,
    on a thread or inline, so there is one level of parallelism.  The
    first failure stops the items not yet started, waits for the running
    ones and is re-raised; every thread has ended before this returns.
    """
    items = list(items)
    workers = min(len(items), parallel_workers())
    if workers <= 1:
        return [serially(fn, item) for item in items]
    results = [None] * len(items)
    failures = []
    claim = itertools.count()     # next() is atomic: every item is taken once

    def work() -> None:
        for i in claim:
            if i >= len(items) or failures:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:   # re-raised in the calling thread
                failures.append(exc)
                return

    name = fn.__name__.strip("_")
    threads = [threading.Thread(target=serially, args=(work,), name=f"fcssk-{name}-{k}")
               for k in range(1, workers + 1)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    except BaseException:          # interrupted while waiting: start no more items
        failures.append(None)
        for thread in threads:
            thread.join()
        raise
    if failures:
        raise failures[0]
    return results


def run_blocks(fn, n: int, block: int = PARALLEL_BLOCK) -> list:
    """``run_parallel(fn, ...)`` over consecutive slices of ``range(n)``,
    ``block`` long (the last one shorter): samples, or rows of a 2-D array."""
    return run_parallel(fn, [slice(lo, min(lo + block, n)) for lo in range(0, n, block)])


def first_non_finite(x: np.ndarray) -> int | None:
    """Index of the first NaN or infinity in the 1-D array ``x``, or None;
    checked block by block, so no full-length mask is built."""
    def scan(s: slice) -> int | None:
        finite = np.isfinite(x[s])
        return None if finite.all() else s.start + int(np.argmin(finite))
    return next((i for i in run_blocks(scan, len(x)) if i is not None), None)


@dataclass(frozen=True)
class ChirpParams:
    """Static chirp configuration and its derived constants."""

    b0: float        # chirp bandwidth, Hz
    rep_rate: float  # chirp repetitions per second, Hz
    fs: int          # sampling rate, samples/s
    n: int           # samples per chirp repetition
    k0: float        # nominal slope, Hz per sample


@dataclass(frozen=True)
class IqBuffer:
    """Complex baseband sample sequence."""

    samples: np.ndarray
    fs: int

    def __len__(self) -> int:
        return len(self.samples)


def derive_params(b0: float, rep_rate: float, fs: int, strict: bool = False) -> ChirpParams:
    """Build ChirpParams, validating divisibility and aliasing constraints.

    With ``strict`` on, additionally enforce the homing-signal envelope
    (2 <= rep_rate <= 4 repetitions/s, b0 >= 700 Hz).
    """
    if not (np.isfinite(b0) and np.isfinite(rep_rate)):
        raise ConfigError(f"b0 and rep_rate must be finite numbers, got {b0} and {rep_rate}")
    if b0 <= 0 or rep_rate <= 0 or fs <= 0:
        raise ConfigError("b0, rep_rate and fs must be positive")
    if b0 >= fs / 2:
        raise AliasingError(f"chirp bandwidth {b0} Hz needs fs > {2 * b0:.0f}, got {fs}")
    n_f = fs / rep_rate
    n = int(round(n_f))
    if abs(n_f - n) > 1e-9 or n < 1:
        raise ConfigError(f"fs={fs} is not divisible by rep_rate={rep_rate}")
    if strict:
        if not (2.0 <= rep_rate <= 4.0):
            raise ConfigError(f"strict mode: rep_rate must be in [2, 4] Hz, got {rep_rate}")
        if b0 < 700.0:
            raise ConfigError(f"strict mode: b0 must be >= 700 Hz, got {b0}")
    return ChirpParams(b0=float(b0), rep_rate=float(rep_rate), fs=int(fs),
                       n=n, k0=float(b0) / n)


def _scale_exp(out: np.ndarray, fs: int) -> None:
    """Turn the phase sums in ``out.imag`` (real part zero) into
    ``exp(1j * (2*pi/fs) * sum)`` in place.  Both steps are elementwise,
    and run block by block on ``run_blocks``."""
    scale = 2.0 * np.pi / fs

    def scale_exp(s: slice) -> None:
        block = out[s]
        block.imag *= scale
        np.exp(block, out=block)
    run_blocks(scale_exp, len(out))


def synthesize(freq: np.ndarray, fs: int) -> IqBuffer:
    """Unit-amplitude signal whose IF track is ``freq`` (Hz), phase 0 at start.

    The phase is summed into the imaginary part of a zeroed output, scaled
    and exponentiated there, so the only full-length array built is the
    output.  The result equals ``exp(1j * (2*pi/fs) * cumsum(freq))`` bit
    for bit: that product's real part is a zero, and exp(+-0 + j*phi) is
    the same number.  The sum runs in order; the scale and the exponential
    run on ``_scale_exp``.
    """
    out = np.zeros(len(freq), dtype=np.complex128)
    np.cumsum(freq, out=out.imag)
    _scale_exp(out, fs)
    return IqBuffer(samples=out, fs=fs)


def _reference_periods(params: ChirpParams, out: np.ndarray, carry: float) -> float:
    """Write whole reference periods into the zeroed complex128 ``out``,
    continuing a phase sum ``carry`` (0.0 at transmission start), and
    return the sum carried out of the last period.

    Every period's IF is ``k0 * arange(N)``, which equals the sawtooth
    ``k0 * (n mod N)`` bit for bit, so no full-length IF track is built.
    Each period's sum starts at ``f[0] + carry``: ``f[0]`` is 0.0, so
    that is the running sum a full-length ``cumsum`` carries across the
    wrap, and the periods equal ``synthesize`` of the sawtooth bit for bit.
    """
    n = params.n
    f = np.arange(n, dtype=np.float64)
    f *= params.k0
    for lo in range(0, len(out), n):
        f[0] = carry
        phase = out.imag[lo:lo + n]
        np.cumsum(f, out=phase)
        carry = float(phase[-1])
    _scale_exp(out, params.fs)
    return carry


def reference_chirp(params: ChirpParams, n_periods: int) -> IqBuffer:
    """Unmodulated linear chirp of ``n_periods`` repetitions.

    Within each period the IF rises from 0 to b0*(N-1)/N in steps of k0;
    at every period boundary b0 is subtracted (sawtooth reset).  Built
    period by period (``_reference_periods``): the output is the only
    full-length array.
    """
    if n_periods < 1:
        raise ConfigError("n_periods must be >= 1")
    out = np.zeros(n_periods * params.n, dtype=np.complex128)
    _reference_periods(params, out, 0.0)
    return IqBuffer(samples=out, fs=params.fs)


def reference_tail(params: ChirpParams, n_samples: int) -> np.ndarray:
    """Last ``n_samples`` of one reference period, phase-continuous into
    a following transmission that starts at phase 0.

    Used to model a receiver that starts listening mid-stream: appending a
    buffer whose first sample is 1+0j after this tail yields a
    phase-continuous periodic chirp stream.  The period is the cached
    first period of ``periodic_reference``.
    """
    if not 0 <= n_samples <= params.n:
        raise ConfigError(f"tail length must be in [0, {params.n}], got {n_samples}")
    if n_samples == 0:
        return np.zeros(0, dtype=np.complex128)
    ref = periodic_reference(params, params.n)
    # phase at the (virtual) next sample equals phase of the last one because
    # the post-wrap IF is exactly 0, so rotating by conj(last) lands at 0.
    return ref[params.n - n_samples:] * np.conj(ref[params.n - 1])


# per chirp: the cached periods, and the phase sum carried out of the last
_PERIODIC_CACHE: dict[ChirpParams, tuple[np.ndarray, float]] = {}
_PERIODIC_LOCK = threading.Lock()    # concurrent trials: each period built once


def periodic_reference(params: ChirpParams, n_samples: int) -> np.ndarray:
    """First ``n_samples`` of the endless periodic reference chirp (cached,
    read-only).

    The cache holds whole periods.  A longer request synthesizes only the
    missing periods, continuing the carried phase sum, into a new array
    that starts with a copy of the cached ones; a caller asking for a
    stream's full length at once saves that copy.
    """
    if n_samples < 0:
        raise ConfigError(f"reference length must be >= 0, got {n_samples}")
    with _PERIODIC_LOCK:
        cached, carry = _PERIODIC_CACHE.get(params, (np.zeros(0, dtype=np.complex128), 0.0))
        have = len(cached)
        if have < n_samples:
            grown = np.zeros(-(-n_samples // params.n) * params.n, dtype=np.complex128)
            grown[:have] = cached
            carry = _reference_periods(params, grown[have:], carry)
            grown.flags.writeable = False  # shared by every caller
            cached = grown
            _PERIODIC_CACHE[params] = cached, carry
    return cached[:n_samples]


def unwrap_correction(step: np.ndarray) -> np.ndarray:
    """``np.unwrap``'s correction, bit for bit, for phase steps of at least pi."""
    dmod = np.mod(step + np.pi, 2.0 * np.pi) - np.pi
    dmod[(dmod == -np.pi) & (step > 0)] = np.pi   # numpy's tie rule: a +pi step stays +pi
    dmod -= step
    return dmod


UNWRAP_BLOCK = 1 << 16   # samples per block of unwrap_in_place


def unwrap_in_place(phase: np.ndarray) -> None:
    """Write ``np.unwrap(phase)`` into ``phase``, bit for bit, for a finite
    1-D float64 array.

    ``np.unwrap`` runs its ``mod`` correction over every phase step, yet
    the correction is non-zero only where a step is at least pi: a few
    per mille of the samples of a lowpassed baseband, about a quarter of
    pure noise.  Here the same correction runs at those steps only, and
    its running sum is spread over the runs between them.  Adding 0.0
    is exact, so the result equals numpy's dense cumulative sum.  The
    array is walked in blocks of UNWRAP_BLOCK samples, carrying the
    running sum and the last wrapped sample across each block edge, so
    the temporaries stay that size whatever the length.
    """
    if len(phase) < 2:
        return
    offset = 0.0              # running correction into the block's first sample
    prev = float(phase[0])    # wrapped phase of the sample before the block
    for lo in range(1, len(phase), UNWRAP_BLOCK):
        block = phase[lo:lo + UNWRAP_BLOCK]
        step = np.diff(block, prepend=prev)
        prev = float(block[-1])
        wraps = np.flatnonzero(np.abs(step) >= np.pi)
        offsets = np.empty(len(wraps) + 1)
        offsets[0] = offset
        offsets[1:] = unwrap_correction(step[wraps])
        np.cumsum(offsets, out=offsets)
        offset = float(offsets[-1])
        block += np.repeat(offsets, np.diff(wraps, prepend=0, append=len(block)))
