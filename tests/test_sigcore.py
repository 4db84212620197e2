import itertools
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fcssk import AliasingError, ConfigError, IqBuffer, derive_params, reference_chirp
from fcssk import sigcore
from fcssk.codec import CodedFrame
from fcssk.channel import apply_delay
from fcssk.sigcore import (PARALLEL_BLOCK, block_slices, conj_reference, mix_reference,
                           parallel_workers, periodic_reference, reference_tail, run_chain,
                           run_parallel, serially)
from if_reference import (instantaneous_frequency, modulated_frequency, reference_frequency,
                          synthesize, unwrap_in_place, unwrap_phase)

# (b0, rep_rate, fs): the operating point, a non-power-of-two rate, a wide
# chirp, and an odd period (N = 16383)
REFERENCE_CONFIGS = [(1024.0, 4.0, 65536), (700.0, 2.5, 48000), (3000.0, 5.0, 96000),
                     (1000.0, 3.0, 49149)]


def same_bits(got, want):
    return got.dtype == want.dtype and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


class TestDeriveParams:
    def test_simulation_operating_point(self):
        p = derive_params(1024.0, 4.0, 65536)
        assert p.n == 16384
        assert p.k0 == 0.0625
        assert p.k0 * p.n == p.b0

    def test_non_integer_period_rejected(self):
        with pytest.raises(ConfigError):
            derive_params(1024.0, 4.0, 65537)

    def test_low_rate_point(self):
        p = derive_params(700.0, 2.0, 44800)
        assert p.n == 22400
        assert p.k0 == 0.03125

    def test_aliasing(self):
        with pytest.raises(AliasingError):
            derive_params(33000.0, 4.0, 65536)

    @pytest.mark.parametrize("b0,rep_rate", [(np.nan, 4.0), (np.inf, 4.0), (-np.inf, 4.0),
                                             (1024.0, np.nan), (1024.0, np.inf)])
    def test_non_finite_rejected(self, b0, rep_rate):
        # NaN passes every comparison with 0 and fs/2, so it is refused first
        with pytest.raises(ConfigError, match="must be finite numbers"):
            derive_params(b0, rep_rate, 65536)

    @pytest.mark.parametrize("fs", [8000.5, np.nan, np.inf, -np.inf])
    def test_fractional_or_non_finite_fs_rejected(self, fs):
        # 8000.5 would be truncated to 8000 with n = 16001 (not 8000 / 0.5)
        with pytest.raises(ConfigError, match="fs must be a whole number"):
            derive_params(1024, 0.5, fs)

    @pytest.mark.parametrize("fs", [65536.0, np.float64(65536), np.int64(65536)])
    def test_integral_fs_stored_as_python_ints(self, fs):
        p = derive_params(1024.0, 4.0, fs)
        assert p == derive_params(1024.0, 4.0, 65536)
        assert type(p.fs) is int and type(p.n) is int

    @pytest.mark.parametrize("rep_rate,fs", [(4.0, 10**400), (4.0, 2**1024 - 1),
                                             (0.5, 10**308)],
                             ids=["1e400", "2**1024-1", "1e308-at-0.5"])
    def test_fs_beyond_a_float_refused(self, rep_rate, fs):
        # fs / 2, float(fs) and the period's int(round(inf)) each overflow here
        with pytest.raises(ConfigError, match="^fs is too large: fs / rep_rate must fit a float"):
            derive_params(1024.0, rep_rate, fs)

    def test_strict_envelope(self):
        with pytest.raises(ConfigError):
            derive_params(1024.0, 8.0, 65536, strict=True)
        with pytest.raises(ConfigError):
            derive_params(512.0, 4.0, 65536, strict=True)
        derive_params(700.0, 2.0, 44800, strict=True)


class TestReferenceChirp:
    def test_first_sample_is_unity(self, chirp):
        ref = reference_chirp(chirp, 1)
        assert len(ref) == 16384
        assert ref.samples[0] == 1.0 + 0.0j

    def test_if_midpoint_and_reset(self, chirp):
        freq = reference_frequency(chirp, 2 * chirp.n)
        assert abs(freq[8192] - 512.0) < 1e-9
        assert abs(freq[16384]) < 1e-9  # sawtooth reset at the period boundary

    def test_unit_envelope(self, chirp):
        ref = reference_chirp(chirp, 1)
        np.testing.assert_allclose(np.abs(ref.samples), 1.0, atol=1e-12)

    def test_deterministic(self, chirp):
        a = reference_chirp(chirp, 2).samples
        b = reference_chirp(chirp, 2).samples
        assert np.array_equal(a, b)

    def test_sweep_totals_b0(self, chirp):
        # per-sample IF increments over one period sum to exactly b0
        freq = reference_frequency(chirp, chirp.n)
        steps = np.diff(freq)
        np.testing.assert_allclose(steps, chirp.k0, atol=1e-12)
        assert abs(steps.sum() + chirp.k0 - chirp.b0) < 1e-9  # +k0 into the wrap

    def test_rejects_zero_periods(self, chirp):
        with pytest.raises(ConfigError):
            reference_chirp(chirp, 0)


class TestPeriodicReference:
    def test_is_the_reference_chirp(self, chirp):
        span = np.empty(2 * chirp.n + 5, dtype=np.complex128)
        conj_reference(periodic_reference(chirp), 0, span)
        assert same_bits(span, np.conj(reference_chirp(chirp, 3).samples[:len(span)]))

    def test_read_only(self, chirp):
        # concurrent trials share the cached period
        conj_period, _ = periodic_reference(chirp)
        with pytest.raises(ValueError):
            conj_period[0] = 0.0
        with pytest.raises(ValueError):
            conj_period *= 2.0

    def test_concurrent_callers_share_one_period(self, chirp, monkeypatch):
        # more threads than cores, switching often, on an empty cache: every
        # caller gets the one stored period, with the one-period formula's bits
        want = np.conj(np.exp(1j * ((2.0 * np.pi / chirp.fs)
                                    * np.cumsum(reference_frequency(chirp, chirp.n)))))
        monkeypatch.setattr(sigcore, "_PERIODS", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda k: periodic_reference(chirp)[0], range(32),
                                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(g is sigcore._PERIODS[chirp][0] for g in got)
        assert same_bits(got[0], want)

    def test_zero_length_is_empty(self, chirp, monkeypatch):
        monkeypatch.setattr(sigcore, "_PERIODS", {})
        ref = periodic_reference(chirp)
        assert len(ref[0]) == chirp.n
        assert len(conj_reference(ref, 0, np.empty(0, dtype=np.complex128))) == 0

    @pytest.mark.parametrize("config", REFERENCE_CONFIGS)
    def test_last_of_257_periods_holds_its_phase(self, config):
        # against exact turns: the phase sums of the float64 IF values as
        # fractions, reduced mod 1; one running cumsum over the whole
        # stream erred by 3.1e-10 rad at (1000, 3, 49149)
        chirp = derive_params(*config)
        n, k = chirp.n, 256
        sums = list(itertools.accumulate(Fraction(v) for v in (np.arange(n) * chirp.k0).tolist()))
        exact = np.array([float((k * sums[-1] + s) / chirp.fs % 1) for s in sums])
        last = conj_reference(periodic_reference(chirp), k * n,
                              np.empty(n, dtype=np.complex128))
        error = (np.angle(last) / (2.0 * np.pi) + exact + 0.5) % 1.0 - 0.5
        assert np.abs(error).max() * 2.0 * np.pi < 1e-10

    @pytest.mark.parametrize("config", REFERENCE_CONFIGS + [(1024.0, 4.0, 8000)])
    def test_spans_are_slices_of_the_reference_chirp(self, config):
        # at 8000 S/s a period (2000 samples) is shorter than a guard-2048
        # slip window (12321)
        chirp = derive_params(*config)
        n = chirp.n
        want = np.conj(reference_chirp(chirp, 9).samples)
        ref = periodic_reference(chirp)
        for lo, hi in ((0, 0), (5, 5), (n - 1, n), (3 * n, 3 * n + 1), (7, n - 3),
                       (n // 2, 3 * n + n // 3), (n - 1, n + 1), (2 * n, 4 * n),
                       (17, 17 + 12321), (0, 9 * n)):
            span = conj_reference(ref, lo, np.empty(hi - lo, dtype=np.complex128))
            assert same_bits(span, want[lo:hi]), (lo, hi)
            if hi + 2 * n <= len(want):     # rows one period apart, as the sync passes take them
                rows = conj_reference(ref, lo, np.empty((3, hi - lo), dtype=np.complex128))
                assert same_bits(rows, np.stack([want[lo + k * n:hi + k * n] for k in range(3)]))


class TestMixReference:
    """rx goes first in every mix, so each span of it, and each set of rows
    one period apart, is a slice of one full-array product."""

    @pytest.mark.parametrize("config", [(1024.0, 4.0, 8000), (300.0, 3.0, 2997)])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_spans_and_rows_are_slices_of_the_full_product(self, config, dtype):
        # 260 periods of 2000 and of 999 samples: spans past period 256 too
        chirp = derive_params(*config)
        n, periods = chirp.n, 260
        rng = np.random.default_rng(8)
        rx = (rng.standard_normal(periods * n)
              + 1j * rng.standard_normal(periods * n)).astype(dtype)
        # named: on a temporary, numpy would run ``*`` in place with the
        # operands swapped, and the complex multiply is not commutative
        conj = np.conj(reference_chirp(chirp, periods).samples)
        want = rx * conj
        ref = periodic_reference(chirp)
        # the 1-D (0, 1) span holds for these values only: numpy multiplies
        # a lone element in place on another path, which may round otherwise
        for lo, width in ((0, 1), (0, n), (n - 3, 7), (5, 3 * n), (n - 1, 2),
                          (256 * n + n // 2, n + 1), (257 * n - 2, 5)):
            span = mix_reference(rx, ref, lo, np.empty(width, dtype=np.complex128))
            assert same_bits(span, want[lo:lo + width]), (lo, width)
            rows = mix_reference(rx, ref, lo, np.empty((3, width), dtype=np.complex128))
            assert same_bits(rows, np.stack([want[lo + k * n:lo + k * n + width]
                                             for k in range(3)])), (lo, width)


class TestInstantaneousFrequency:
    def test_constant_tone(self, chirp):
        t = np.arange(4096)
        buf = IqBuffer(np.exp(2j * np.pi * 100.0 * t / chirp.fs), chirp.fs)
        track = instantaneous_frequency(buf)
        assert len(track) == 4095
        np.testing.assert_allclose(track, 100.0, atol=1e-6)

    def test_reference_ramp(self, chirp):
        track = instantaneous_frequency(reference_chirp(chirp, 1))
        expected = reference_frequency(chirp, chirp.n)[1:]
        np.testing.assert_allclose(track, expected, atol=1e-6)
        # monotone nondecreasing within the period
        assert np.all(np.diff(track) > -1e-9)

    def test_zero_sample_rejected(self, chirp):
        samples = np.ones(16, dtype=complex)
        samples[7] = 0.0
        with pytest.raises(ValueError):
            instantaneous_frequency(IqBuffer(samples, chirp.fs))

    def test_too_short(self, chirp):
        with pytest.raises(ConfigError):
            instantaneous_frequency(IqBuffer(np.ones(1, dtype=complex), chirp.fs))


class TestReferenceTail:
    def test_phase_continuous_into_restart(self, chirp):
        # tail + fresh period must look like an uninterrupted periodic chirp
        tail = reference_tail(chirp, 1024)
        ref = reference_chirp(chirp, 1).samples
        joined = IqBuffer(np.concatenate([tail, ref]), chirp.fs)
        track = instantaneous_frequency(joined)
        expected = reference_frequency(chirp, chirp.n + 1024 + 1)
        # IF of the joined stream equals the reference sawtooth shifted by -1024
        np.testing.assert_allclose(track[:1024],
                                   expected[chirp.n - 1023:chirp.n + 1], atol=1e-6)

    def test_bounds(self, chirp):
        with pytest.raises(ConfigError):
            reference_tail(chirp, chirp.n + 1)
        assert len(reference_tail(chirp, 0)) == 0

    @pytest.mark.parametrize("config", REFERENCE_CONFIGS)
    def test_tail_of_the_cached_period_is_the_synthesized_tail(self, config, monkeypatch):
        # apply_delay's prefix, read off the cached first period, equals the
        # tail of one period synthesized on its own
        chirp = derive_params(*config)
        monkeypatch.setattr(sigcore, "_PERIODS", {})
        one = synthesize(reference_frequency(chirp, chirp.n), chirp.fs).samples
        burst = IqBuffer(np.ones(chirp.n + 1, dtype=np.complex128), chirp.fs)
        for delay in (1, 3000, chirp.n - 1, chirp.n):
            want = one[chirp.n - delay:] * np.conj(one[chirp.n - 1])
            assert same_bits(reference_tail(chirp, delay), want)
            if delay < chirp.n:
                assert same_bits(apply_delay(burst, delay, chirp).samples[:delay], want)


class TestInPlaceSynthesis:
    """The in-place builds against the formulas they replaced."""

    @pytest.mark.parametrize("fs", [65536, 48000])
    @pytest.mark.parametrize("t", [0, 1, 2, 16383, 16384, 3 * 16384 + 5])
    def test_synthesize_is_exp_of_scaled_cumsum(self, man128, rng, fs, t):
        one_sample = replace(man128, coded_bit_len=1)
        frame = CodedFrame(bits=rng.integers(0, 2, t), code="manchester", coded_bit_len=1)
        for freq in (modulated_frequency(frame, one_sample), rng.uniform(-fs / 2, fs / 2, t)):
            want = np.exp(1j * ((2.0 * np.pi / fs) * np.cumsum(freq)))
            assert same_bits(synthesize(freq, fs).samples, want)

    @pytest.mark.parametrize("config", REFERENCE_CONFIGS)
    @pytest.mark.parametrize("periods", [1, 3, 17])
    def test_reference_is_synthesized_sawtooth(self, config, periods):
        # period 0 is the cumsum formula bit for bit, with no full-length IF
        # track; period k is period 0 turned by k times its phase sum, in turns
        chirp = derive_params(*config)
        freq = reference_frequency(chirp, chirp.n)
        phase = np.cumsum(freq)
        one = np.exp(1j * ((2.0 * np.pi / chirp.fs) * phase))
        frac = math.fmod(phase[-1] / chirp.fs, 1.0)
        ref = reference_chirp(chirp, periods).samples.reshape(periods, chirp.n)
        assert same_bits(ref[0], one)
        for k in range(1, periods):
            assert same_bits(ref[k], np.exp(1j * (2.0 * np.pi) * np.mod(k * frac, 1.0)) * one)

    def test_reference_does_not_depend_on_worker_count(self, chirp, monkeypatch):
        built = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(sigcore, "_usable_cpus", lambda cpus=cpus: cpus)
            monkeypatch.setattr(sigcore, "_PERIODS", {})
            built.append(reference_chirp(chirp, 5).samples[:-1].tobytes())
        assert built[0] == built[1] == built[2]

    @pytest.mark.parametrize("fs", [65536, 48000])
    @pytest.mark.parametrize("periods", [0.5, 1, 3.25])
    def test_reference_frequency_is_scaled_mod(self, fs, periods):
        chirp = derive_params(1024.0, 4.0, fs)
        n = int(periods * chirp.n)
        want = chirp.k0 * np.mod(np.arange(n, dtype=np.float64), chirp.n)
        assert same_bits(reference_frequency(chirp, n), want)


class TestUnwrapInPlace:
    """Blocks of PARALLEL_BLOCK samples start at samples 1, 1 + B, 1 + 2B, ...:
    the step into a block's first sample crosses the edge."""

    @pytest.mark.parametrize("jump", [np.pi, -np.pi, 2.5 * np.pi, -6.0, 0.5])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_matches_numpy_across_block_edges(self, jump, shift):
        b = PARALLEL_BLOCK
        rng = np.random.default_rng(11)
        phase = np.angle(np.exp(1j * np.cumsum(rng.uniform(-2.0, 2.0, 3 * b + 5))))
        for edge in (1 + b, 1 + 2 * b, 1 + 3 * b):
            k = edge + shift          # the step into sample k is exactly ``jump``
            phase[k - 1], phase[k] = 0.0, jump
        want = np.unwrap(phase)
        got = phase.copy()
        unwrap_in_place(got)
        assert same_bits(got, want)
        assert same_bits(unwrap_phase(phase), want)

    @pytest.mark.parametrize("n", [0, 1, 2, PARALLEL_BLOCK, PARALLEL_BLOCK + 1,
                                   PARALLEL_BLOCK + 2])
    def test_lengths_around_one_block(self, rng, n):
        phase = rng.uniform(-np.pi, np.pi, n)
        got = phase.copy()
        unwrap_in_place(got)
        assert same_bits(got, np.unwrap(phase))

    def test_unwrap_phase_leaves_its_input(self, rng):
        phase = rng.uniform(-np.pi, np.pi, 1000)
        kept = phase.copy()
        unwrap_phase(phase)
        assert same_bits(phase, kept)


def fcssk_threads():
    return [t for t in threading.enumerate() if t.name.startswith("fcssk-")]


class TestRunParallel:
    """The one thread helper: trials of a sweep and blocks of a long burst."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_results_in_item_order(self, monkeypatch, cpus):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: cpus)

        def square(i):
            time.sleep(0.001 * (i % 3))     # items finish out of order
            return i * i
        assert run_parallel(square, range(40)) == [i * i for i in range(40)]
        assert not fcssk_threads()

    def test_thread_count_and_names(self, monkeypatch):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 3)
        seen = set()
        barrier = threading.Barrier(3, timeout=10)

        def _block(i):
            if i < 3:
                barrier.wait()      # three items in flight at once
            seen.add(threading.current_thread().name)
        run_parallel(_block, range(12))
        assert seen == {"fcssk-block-1", "fcssk-block-2", "fcssk-block-3"}
        assert not fcssk_threads()

    @pytest.mark.parametrize("cpus,items", [(1, 10), (4, 1), (4, 0)])
    def test_one_worker_runs_in_the_calling_thread(self, monkeypatch, cpus, items):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        names = run_parallel(lambda i: (threading.current_thread().name,
                                        threading.active_count()), range(items))
        assert names == [(threading.current_thread().name, before)] * items

    def test_one_level_of_parallelism(self, monkeypatch):
        # an item that calls run_parallel runs the inner items in its own thread
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 2)

        def _outer(i):
            me = threading.current_thread().name
            inner = run_parallel(lambda j: threading.current_thread().name, range(8))
            return inner == [me] * 8
        assert run_parallel(_outer, range(6)) == [True] * 6

    def test_inline_items_follow_the_one_level_rule(self, monkeypatch):
        # a lone item runs inline, and no deeper than an item on a thread
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 2)
        assert run_parallel(lambda _: parallel_workers(), [0]) == [1]
        assert parallel_workers() == 2    # the outer state is restored

    def test_first_failure_stops_queued_items_and_is_raised(self, monkeypatch):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 2)
        started = []

        def _item(i):
            started.append(i)
            if i == 3:
                raise ConfigError(f"item {i} failed")
            time.sleep(0.01)
            return i
        with pytest.raises(ConfigError, match="^item 3 failed$"):
            run_parallel(_item, range(50))
        assert 3 in started and len(started) < 10
        assert not fcssk_threads()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_run_blocks_covers_the_range(self, monkeypatch, cpus):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: cpus)
        n = 5 * PARALLEL_BLOCK + 17
        spans = run_parallel(lambda s: (s.start, s.stop), block_slices(n))
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert len(spans) == 6 and block_slices(0) == []

    @pytest.mark.parametrize("block", [97, 65536])
    @pytest.mark.parametrize("width", [1, 7, 12321, 16384])
    def test_run_blocks_takes_the_fewest_rows_that_reach_a_block(self, monkeypatch, block,
                                                                 width):
        # the one block rule: rows of ``width`` samples, each slice but the
        # last the fewest whole rows that reach PARALLEL_BLOCK samples
        monkeypatch.setattr(sigcore, "PARALLEL_BLOCK", block)
        rows = -(-block // width)
        for n in (0, 1, rows - 1, rows, rows + 1, 5 * rows + 3):
            spans = block_slices(n, width)
            assert [i for s in spans for i in range(s.start, s.stop)] == list(range(n))
            assert all(s.stop - s.start == rows for s in spans[:-1])
            assert all(0 < s.stop - s.start <= rows for s in spans)


def finishes(fn, *args, timeout=10.0):
    """``fn(*args)`` on a helper thread: its result, or the exception it
    raised; fails if it has not returned within ``timeout`` seconds (a
    worker left waiting for its turn)."""
    box = {}

    def call():
        try:
            box["result"] = fn(*args)
        except BaseException as exc:
            box["error"] = exc
    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "run_chain did not return"
    return box


class TestRunChain:
    """Ordered heads carrying a running sum, and tails beside later heads."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_heads_carry_in_order_and_each_tail_follows_its_head(self, monkeypatch, cpus):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sigcore, "PARALLEL_BLOCK", 5)
        log, lock = [], threading.Lock()

        workers = {}

        def head(s, carry):
            with lock:
                log.append(("head", s.start, carry))
            workers[s.start] = threading.current_thread().name
            return carry + [s.start]

        def tail(s):
            time.sleep(0.001 * (s.start % 3))     # tails finish out of order
            with lock:
                log.append(("tail", s.start))
            assert workers[s.start] == threading.current_thread().name   # its head's worker
        assert run_chain(head, tail, 47, []) == list(range(0, 47, 5))
        heads = [entry for entry in log if entry[0] == "head"]
        assert heads == [("head", lo, list(range(0, lo, 5))) for lo in range(0, 47, 5)]
        for lo in range(0, 47, 5):
            assert log.index(("tail", lo)) > log.index(("head", lo, list(range(0, lo, 5))))
        assert len(log) == 20 and not fcssk_threads()

    def test_stress_more_workers_than_cores(self, monkeypatch):
        # frequent thread switches: a lost carry or a head run out of turn
        # breaks the running sum or the order
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(sigcore, "PARALLEL_BLOCK", 1)
        heads, tails = [], []

        def head(s, carry):
            heads.append(s.start)
            return carry + s.start
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                heads.clear()
                tails.clear()
                box = finishes(run_chain, head, lambda s: tails.append(s.start), 200, 0)
                assert box.get("result") == sum(range(200))
                assert heads == list(range(200)) and sorted(tails) == heads
        finally:
            sys.setswitchinterval(interval)
        assert not fcssk_threads()

    def test_a_tail_overlaps_a_later_head(self, monkeypatch):
        # tail 0 holds its worker until head 1 has started on the other one
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sigcore, "PARALLEL_BLOCK", 1)
        head_one = threading.Event()
        overlapped = []

        def head(s, carry):
            if s.start == 1:
                head_one.set()
            return carry

        def tail(s):
            if s.start == 0:
                overlapped.append(head_one.wait(10))
        finishes(run_chain, head, tail, 2, None)
        assert overlapped == [True]

    def test_a_raising_head_is_raised_and_no_later_head_runs(self, monkeypatch):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(sigcore, "PARALLEL_BLOCK", 1)
        heads = []

        def head(s, carry):
            heads.append(s.start)
            if s.start == 3:
                time.sleep(0.2)       # the other workers take items 4 and 5 and wait
                raise ConfigError("head 3 failed")
            return carry
        box = finishes(run_chain, head, lambda s: None, 20, None)
        assert isinstance(box.get("error"), ConfigError)
        assert str(box["error"]) == "head 3 failed"
        assert heads == [0, 1, 2, 3]
        assert not fcssk_threads()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_raising_tail_is_raised(self, monkeypatch, cpus):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sigcore, "PARALLEL_BLOCK", 1)

        def tail(s):
            if s.start == 2:
                raise ConfigError("tail 2 failed")
        box = finishes(run_chain, lambda s, carry: carry, tail, 10, None)
        assert isinstance(box.get("error"), ConfigError)
        assert str(box["error"]) == "tail 2 failed"
        assert not fcssk_threads()

    @pytest.mark.parametrize("cpus,inside", [(1, False), (3, True)])
    def test_one_worker_runs_inline_in_item_order(self, monkeypatch, cpus, inside):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sigcore, "PARALLEL_BLOCK", 2)
        before, me = threading.active_count(), threading.current_thread().name
        log = []

        def head(s, carry):
            log.append(("head", s.start, threading.current_thread().name,
                        threading.active_count()))
            return carry + 1

        def tail(s):
            log.append(("tail", s.start, threading.current_thread().name,
                        threading.active_count()))
        args = (head, tail, 6, 0)
        assert (serially(run_chain, *args) if inside else run_chain(*args)) == 3
        assert log == [(kind, lo, me, before) for lo in (0, 2, 4) for kind in ("head", "tail")]

    def test_nothing_to_run(self, monkeypatch):
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 2)
        ran = []
        carry = object()
        assert run_chain(lambda s, c: ran.append(s), lambda s: ran.append(s), 0, carry) is carry
        assert ran == []
