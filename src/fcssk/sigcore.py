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
by ``block_slices`` into slices that each write their own part of a
preallocated output.  ``block_slices`` holds the one block rule, so a
stage states the width of its rows and never a block size.  ``run_chain``
runs a running sum over a long burst (the transmitter's phase sums, the
unwrap) on the same slices, in order, as its heads, and each slice's
elementwise rest as its tail, beside the later heads.  A pass is split
only where the split measured a gain.

The reference chirp is periodic up to a phase step per period, so it is
held as its conjugate period 0 and the step, cached per ``ChirpParams``
(``periodic_reference``, which takes no length).  ``conj_reference``
writes any span of it, and ``mix_reference`` any span of
``rx * conj(reference)``, into a buffer the caller holds, so a stage
asks for spans and never states how long a reference it reads.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, ConfigError


# samples per block of every block-split stage, read when a split runs;
# no split changes a bit of any output
PARALLEL_BLOCK = 1 << 16

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


def block_slices(n: int, width: int = 1) -> list[slice]:
    """Consecutive slices of ``range(n)``, rows of ``width`` samples (1 for
    a run of samples): each slice the fewest whole rows that reach
    PARALLEL_BLOCK samples, the last one shorter.  This is the one block
    rule; no caller counts rows or reads the block size."""
    rows = -(-PARALLEL_BLOCK // width)
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def run_chain(head, tail, n: int, carry):
    """Run ``carry = head(s, carry)`` over the slices ``s`` of
    ``block_slices(n)``, in slice order, and ``tail(s)`` after each
    slice's own head; return the last carry.

    Each head starts after the one before it has returned, on whichever
    worker took its slice, and that worker runs the slice's tail right
    after it, so the heads form one running sum (a phase sum, an unwrap)
    while the tails of earlier slices run on the other workers.  The
    items run on ``run_parallel``: with one worker (and so inside
    ``serially``) they run inline as head 0, tail 0, head 1, ...
    and no thread starts.  A head or tail that raises wakes every worker
    waiting for its turn, no later head runs, and the failure is raised.
    """
    turn = threading.Condition()
    state = {"next": 0, "carry": carry, "failed": False}   # guarded by ``turn``

    def link(s: slice) -> None:
        with turn:      # a head's turn comes when the slice before it is summed
            turn.wait_for(lambda: state["next"] == s.start or state["failed"])
            if state["failed"]:
                return
        try:
            carried = head(s, state["carry"])
            with turn:
                state["carry"], state["next"] = carried, s.stop
                turn.notify_all()
            tail(s)
        except BaseException:
            with turn:
                state["failed"] = True
                turn.notify_all()
            raise
    run_parallel(link, block_slices(n))
    return state["carry"]


@dataclass(frozen=True)
class ChirpParams:
    """Static chirp configuration and its derived constants."""

    b0: float        # chirp bandwidth, Hz
    fs: int          # sampling rate, samples/s
    n: int           # samples per chirp repetition (fs / n repetitions per second)
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
    if not (isinstance(fs, numbers.Integral) or float(fs).is_integer()):   # False for NaN and inf
        raise ConfigError(f"fs must be a whole number of samples/s, got {fs}")
    fs = int(fs)
    if b0 <= 0 or rep_rate <= 0 or fs <= 0:
        raise ConfigError("b0, rep_rate and fs must be positive")
    try:
        n_f = fs / rep_rate
        n = int(round(n_f))
    except OverflowError:   # fs, or the period, is beyond a float
        raise ConfigError(f"fs is too large: fs / rep_rate must fit a float, got "
                          f"{fs.bit_length()} bits") from None
    if b0 >= fs / 2:
        raise AliasingError(f"chirp bandwidth {b0} Hz needs fs > {2 * b0:.0f}, got {fs}")
    if abs(n_f - n) > 1e-9 or n < 1:
        raise ConfigError(f"fs={fs} is not divisible by rep_rate={rep_rate}")
    if strict:
        if not (2.0 <= rep_rate <= 4.0):
            raise ConfigError(f"strict mode: rep_rate must be in [2, 4] Hz, got {rep_rate}")
        if b0 < 700.0:
            raise ConfigError(f"strict mode: b0 must be >= 700 Hz, got {b0}")
    return ChirpParams(b0=float(b0), fs=fs, n=n, k0=float(b0) / n)


def reference_chirp(params: ChirpParams, n_periods: int) -> IqBuffer:
    """Unmodulated linear chirp of ``n_periods`` repetitions.

    Within each period the IF rises from 0 to b0*(N-1)/N in steps of k0;
    at every period boundary b0 is subtracted (sawtooth reset).  It is
    the conjugate of ``conj_reference``'s output, the bits stages mix.
    """
    if n_periods < 1:
        raise ConfigError("n_periods must be >= 1")
    out = np.empty(n_periods * params.n, dtype=np.complex128)
    conj_reference(periodic_reference(params), 0, out)
    return IqBuffer(samples=np.conj(out, out=out), fs=params.fs)


def reference_tail(params: ChirpParams, n_samples: int) -> np.ndarray:
    """Last ``n_samples`` of one reference period, phase-continuous into
    a following transmission that starts at phase 0.

    Used to model a receiver that starts listening mid-stream: appending a
    buffer whose first sample is 1+0j after this tail yields a
    phase-continuous periodic chirp stream.  The period is the conjugate
    of ``periodic_reference``'s cached one.  Its two temporaries stay: an
    ``apply_delay`` that wrote the tail straight into its output made the
    curve bench's probes peak 8 MB higher (README, Memory).
    """
    if not 0 <= n_samples <= params.n:
        raise ConfigError(f"tail length must be in [0, {params.n}], got {n_samples}")
    conj_period = periodic_reference(params)[0]
    # phase at the (virtual) next sample equals phase of the last one because
    # the post-wrap IF is exactly 0, so rotating by conj(last) lands at 0.
    return np.conj(conj_period[params.n - n_samples:]) * conj_period[params.n - 1]


# per chirp: the conjugate of period 0 (read-only), and fmod(S/fs, 1) for
# the phase sum S that it carries into period 1
_PERIODS: dict[ChirpParams, tuple[np.ndarray, float]] = {}


def periodic_reference(params: ChirpParams) -> tuple[np.ndarray, float]:
    """The endless periodic reference chirp, conjugated, as period 0
    (cached, read-only) and ``frac``, for ``conj_reference`` and
    ``mix_reference`` to write any span of: no caller states a length.

    Period 0 is ``exp(1j * (2*pi/fs) * cumsum(k0 * arange(N)))``.  Each
    period's phase sum starts where the one before ended, so period k is
    period 0 turned by ``exp(1j * 2*pi * mod(k * frac, 1))``, ``frac``
    being ``fmod(S/fs, 1)`` for period 0's sum S: in turns reduced mod 1
    the phase stays within 1e-10 rad over hundreds of periods, where one
    running ``cumsum`` drifts further.  Callers that build period 0 at
    the same time build the same bits, and ``setdefault`` keeps one.
    ConfigError names a period that numpy cannot build, such as one
    beyond the address space, which numpy refuses before it touches a page.
    """
    cached = _PERIODS.get(params)
    if cached is None:
        try:
            phase = np.arange(params.n, dtype=np.float64)
            phase *= params.k0
            np.cumsum(phase, out=phase)
            period = np.conj(np.exp(1j * ((2.0 * np.pi / params.fs) * phase)))
        except (ValueError, MemoryError):
            raise ConfigError(f"a {params.n:g}-sample chirp period exceeds memory") from None
        period.flags.writeable = False    # shared by every caller
        cached = _PERIODS.setdefault(params, (period, math.fmod(phase[-1] / params.fs, 1.0)))
    return cached


def conj_reference(ref: tuple[np.ndarray, float], lo: int, out: np.ndarray) -> np.ndarray:
    """Write the conjugate reference of samples ``lo .. lo+w-1`` into
    the complex128 ``out`` of length w, from ``ref =
    periodic_reference(...)``, and return it.  A 2-D ``out`` takes w
    samples per row, each row one period after the row before.

    Each piece of period k is its phasor ``conj(exp(1j*2*pi*mod(k*frac,
    1)))``, taken elementwise, times a slice of the conjugate period, the
    phasor first: in this order a piece equals ``conj(phasor * period)``
    bit for bit, whatever span it is written for."""
    conj_period, frac = ref
    n, rows, width = len(conj_period), out if out.ndim == 2 else out[None], out.shape[-1]
    first = lo // n
    turns = np.mod(np.arange(first, (lo + width - 1) // n + len(rows)) * frac, 1.0)
    conj_phasors = np.conj(np.exp(1j * (2.0 * np.pi) * turns))
    pos = 0
    while pos < width:
        k, j = divmod(lo + pos, n)
        take = min(n - j, width - pos)
        np.multiply(conj_phasors[k - first:k - first + len(rows), None], conj_period[j:j + take],
                    out=rows[:, pos:pos + take])
        pos += take
    return out


def mix_reference(rx: np.ndarray, ref: tuple[np.ndarray, float], lo: int,
                  out: np.ndarray) -> np.ndarray:
    """Write ``rx * conj(reference)`` of samples ``lo .. lo+w-1`` into
    the complex128 ``out`` of length w, rx[0] meeting reference sample 0,
    and return it.  A 2-D ``out`` takes rows one period apart, of both
    operands; a 1-D one is one row.  rx goes first, in every mix of the
    package: the complex multiply is not commutative bit for bit, and in
    this order a span equals the same span of one full-array product (numpy
    multiplies a lone element in place on another path, so a one-sample
    span may not)."""
    rows = conj_reference(ref, lo, out if out.ndim == 2 else out[None])
    n, (count, width) = len(ref[0]), rows.shape
    span = np.lib.stride_tricks.sliding_window_view(rx[lo:lo + (count - 1) * n + width], width)
    np.multiply(span[::n], rows, out=rows)
    return out


def unwrap_correction(step: np.ndarray) -> np.ndarray:
    """``np.unwrap``'s correction, bit for bit, for phase steps of at least pi."""
    dmod = np.mod(step + np.pi, 2.0 * np.pi) - np.pi
    dmod[(dmod == -np.pi) & (step > 0)] = np.pi   # numpy's tie rule: a +pi step stays +pi
    dmod -= step
    return dmod


def unwrap_step(block: np.ndarray, carry: tuple[float, float]) -> tuple[float, float]:
    """Unwrap one block of a finite 1-D float64 phase in place, as
    ``np.unwrap`` does, bit for bit, and return the carry into the next
    block.

    ``carry`` is the running correction into the block's first sample
    and the wrapped phase of the sample before the block, so a phase
    whose sample 0 is left as it is and whose later samples are walked
    in consecutive blocks from ``(0.0, phase[0])`` equals
    ``np.unwrap(phase)``.  ``np.unwrap`` runs its ``mod`` correction
    over every phase step, yet the correction is non-zero only where a
    step is at least pi: a few per mille of the samples of a lowpassed
    baseband, about a quarter of pure noise.  Here the same correction
    runs at those steps only, and its running sum is spread over the
    runs between them.  Adding 0.0 is exact, so the result equals
    numpy's dense cumulative sum.
    """
    offset, prev = carry
    step = np.diff(block, prepend=prev)
    prev = float(block[-1])
    wraps = np.flatnonzero(np.abs(step) >= np.pi)
    offsets = np.empty(len(wraps) + 1)
    offsets[0] = offset
    offsets[1:] = unwrap_correction(step[wraps])
    np.cumsum(offsets, out=offsets)
    block += np.repeat(offsets, np.diff(wraps, prepend=0, append=len(block)))
    return float(offsets[-1]), prev
