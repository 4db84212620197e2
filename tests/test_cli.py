import argparse
import hashlib
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fcssk
from fcssk import (ConfigError, FileFormatError, IqBuffer, NonFiniteSampleError, SyncError,
                   chain, ifest, sigcore, sync, txmod)
from fcssk.chain import receive_chain
from fcssk.cli import (_bits_from_args, build_parser, main, parse_csv, read_bits,
                       read_cf32, rows_to_csv, write_bits, write_cf32)
from if_reference import modulated_frequency


def run(args):
    return main([str(a) for a in args])


class TestBitsFiles:
    def test_round_trip(self, tmp_path, rng):
        bits = rng.integers(0, 2, 300)
        path = tmp_path / "bits.txt"
        write_bits(path, bits)
        assert np.array_equal(read_bits(path), bits)

    def test_whitespace_ignored(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text(" 0 1\n\t1\r\n0\n")
        assert read_bits(path).tolist() == [0, 1, 1, 0]

    def test_parse_error_reports_offset(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("01x")
        with pytest.raises(FileFormatError) as err:
            read_bits(path)
        assert err.value.offset == 2
        assert "line 1" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("")
        assert len(read_bits(path)) == 0

    @staticmethod
    def read_per_character(path):
        """The bits, or (offset, message) of the first bad byte, by the
        per-character rule: '0', '1', or whatever chr(b).isspace() skips."""
        line, col, bits = 1, 0, []
        for offset, byte in enumerate(Path(path).read_bytes()):
            ch = chr(byte)
            col += 1
            if ch == "\n":
                line, col = line + 1, 0
            elif ch in "01":
                bits.append(int(ch))
            elif not ch.isspace():
                return offset, (f"{path}: invalid character {ch!r} at offset {offset} "
                                f"(line {line}, column {col}); expected '0'/'1'/whitespace")
        return bits

    def test_every_byte_value_classified_per_character(self, tmp_path):
        path = tmp_path / "bits.txt"
        refused = 0
        for byte in range(256):
            path.write_bytes(b"01\n1 \x1c" + bytes([byte]) + b"\n0\t" + bytes([byte, 0x31]))
            want = self.read_per_character(path)
            if isinstance(want, list):
                got = read_bits(path)
                assert got.dtype == np.int64 and got.tolist() == want, byte
                continue
            refused += 1
            with pytest.raises(FileFormatError) as err:
                read_bits(path)
            assert (err.value.offset, str(err.value)) == want, byte
        assert refused == 256 - 2 - 12    # '0', '1' and 12 whitespace bytes pass

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 300])
    def test_lines_of_64_digits(self, tmp_path, rng, n):
        bits = rng.integers(0, 2, n)
        text = "".join(str(int(b)) for b in bits)
        path = tmp_path / "bits.txt"
        write_bits(path, bits)
        assert path.read_bytes() == "".join(text[i:i + 64] + "\n"
                                            for i in range(0, n, 64)).encode()


class TestCf32Files:
    def test_round_trip(self, tmp_path, rng):
        samples = (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        path = tmp_path / "x.cf32"
        write_cf32(path, samples)
        back = read_cf32(path)
        np.testing.assert_allclose(back, samples, atol=1e-6)  # float32 quantization

    def test_little_endian_interleaved_layout(self, tmp_path):
        path = tmp_path / "x.cf32"
        write_cf32(path, np.array([1.0 + 2.0j]))
        raw = path.read_bytes()
        assert len(raw) == 8
        assert np.frombuffer(raw, dtype="<f4").tolist() == [1.0, 2.0]

    def test_bytes_match_explicit_interleave(self, tmp_path, rng):
        samples = rng.standard_normal(1001) + 1j * rng.standard_normal(1001)
        samples[:4] = [0.0, -0.0 - 0.0j, 1e-40 - 1e-40j, 3.4e38 + 1.0j]  # zeros, subnormals
        flat = np.empty(2 * len(samples), dtype="<f4")
        flat[0::2] = samples.real
        flat[1::2] = samples.imag
        path = tmp_path / "x.cf32"
        write_cf32(path, samples)
        assert path.read_bytes() == flat.tobytes()
        back = read_cf32(path)
        assert back.dtype == np.complex64   # read as stored, no widening copy
        assert np.array_equal(back.real, flat[0::2]) and np.array_equal(back.imag, flat[1::2])

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.cf32"
        path.write_bytes(b"\x00" * 7)
        with pytest.raises(FileFormatError):
            read_cf32(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, capsys, bad):
        samples = np.ones(6, dtype=complex)
        samples[3] = complex(1.0, bad)  # Q of sample 3, bytes 28..31
        path, out = tmp_path / "x.cf32", tmp_path / "out.txt"
        write_cf32(path, samples)
        argv = ["demodulate", "--in", str(path), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: non-finite sample at byte offset 24\n"
        args = build_parser().parse_args(argv)
        with pytest.raises(FileFormatError) as err:
            args.func(args)
        assert err.value.offset == 24 and err.value.__cause__ is None
        assert not out.exists()


class TestModulateCommand:
    def test_output_size_manchester_128(self, tmp_path):
        # 32 info bits -> 64 coded bits x 256 samples = 16384 complex
        # samples = 131072 bytes of interleaved float32 I,Q
        bits = tmp_path / "bits.txt"
        bits.write_text("01" * 16)
        out = tmp_path / "sig.cf32"
        assert run(["modulate", "--in", bits, "--out", out,
                    "--code", "manchester", "--bitrate", 128]) == 0
        assert out.stat().st_size == 16384 * 8 == 131072

    def test_empty_bits_file(self, tmp_path):
        bits = tmp_path / "bits.txt"
        bits.write_text("")
        out = tmp_path / "sig.cf32"
        assert run(["modulate", "--in", bits, "--out", out]) == 0
        assert out.stat().st_size == 0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bits = tmp_path / "bits.txt"
        bits.write_text("01x")
        out = tmp_path / "sig.cf32"
        assert run(["modulate", "--in", bits, "--out", out]) == 1
        assert "offset 2" in capsys.readouterr().err


class TestDemodulateCommand:
    @pytest.mark.parametrize("code,estimator", [("manchester", "dpll"),
                                                ("6b8b", "lls")])
    def test_noiseless_round_trip(self, tmp_path, rng, code, estimator):
        n_bits = 192  # > one chirp period at 512 b/s, so sync has a full period
        bits = "".join(str(b) for b in rng.integers(0, 2, n_bits))
        src = tmp_path / "in.txt"
        src.write_text(bits)
        sig = tmp_path / "sig.cf32"
        back = tmp_path / "out.txt"
        args = ["--code", code, "--bitrate", 512, "--estimator", estimator]
        assert run(["modulate", "--in", src, "--out", sig] + args) == 0
        assert run(["demodulate", "--in", sig, "--out", back] + args) == 0
        assert "".join(str(b) for b in read_bits(back)) == bits

    def test_truncated_iq_file(self, tmp_path, capsys):
        sig = tmp_path / "sig.cf32"
        sig.write_bytes(b"\x01" * 15)
        out = tmp_path / "out.txt"
        assert run(["demodulate", "--in", sig, "--out", out]) == 1
        assert "multiple of 8" in capsys.readouterr().err

    def test_sync_failure_propagates(self, tmp_path, rng, capsys):
        noise = rng.standard_normal(2 * 16384) + 1j * rng.standard_normal(2 * 16384)
        sig = tmp_path / "noise.cf32"
        write_cf32(sig, noise)
        out = tmp_path / "out.txt"
        assert run(["demodulate", "--in", sig, "--out", out]) == 1
        assert "peak" in capsys.readouterr().err

    def test_all_zero_input_fails_sync(self, tmp_path, capsys):
        sig = tmp_path / "zeros.cf32"
        write_cf32(sig, np.zeros(3 * 16384, dtype=complex))  # 3 chirp periods
        out = tmp_path / "out.txt"
        assert run(["demodulate", "--in", sig, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "peak" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_no_sync_on_delayed_input_elevates_ber(self, tmp_path, rng):
        import fcssk
        from fcssk import channel, codec, txmod
        chirp = fcssk.derive_params(1024.0, 4.0, 65536)
        mp = txmod.make_mod_params(chirp, "manchester", 128)
        bits = rng.integers(0, 2, 200)
        sig = txmod.modulate(codec.encode(bits, "manchester", mp.coded_bit_len), mp)
        rx = channel.apply_awgn(channel.apply_delay(sig, 1000, chirp), 30.0, rng)
        sig_path = tmp_path / "rx.cf32"
        write_cf32(sig_path, rx.samples)
        out = tmp_path / "out.txt"
        assert run(["demodulate", "--in", sig_path, "--out", out,
                    "--no-sync", "--bitrate", 128]) == 0
        got = read_bits(out)
        k = min(len(got), len(bits))
        ber = np.count_nonzero(got[:k] != bits[:k]) / k
        assert ber > 0.1


    @pytest.fixture(scope="class")
    def long_capture(self, tmp_path_factory):
        mp = fcssk.txmod.make_mod_params(fcssk.derive_params(1024.0, 4.0, 65536),
                                         "manchester", 128)
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 4096)
        clean = fcssk.modulate(fcssk.encode(bits, "manchester", mp.coded_bit_len), mp)
        rx = fcssk.apply_awgn(fcssk.apply_delay(clean, 3000, mp.chirp), 10.0, rng)
        capture = tmp_path_factory.mktemp("long") / "rx.cf32"
        write_cf32(capture, rx.samples)
        assert len(rx) > 2_000_000
        return capture, bits, len(rx)

    @staticmethod
    def traced_copies(long_capture, tmp_path, estimator):
        """Fresh-process tracemalloc peak of one demodulate, in complex128
        copies of the capture."""
        capture, bits, n = long_capture
        decoded = tmp_path / "rx.bits"
        peak = traced_peak("""
            from fcssk.cli import main
            assert main(["demodulate", "--in", sys.argv[1], "--out", sys.argv[2],
                         "--estimator", sys.argv[3]]) == 0
        """, capture, decoded, estimator)
        assert np.array_equal(read_bits(decoded), bits)
        return peak / (16 * n)

    def test_peak_memory_of_a_long_lls_capture(self, long_capture, tmp_path):
        """Demodulating 2.1 M samples allocates under 1.9 complex128 copies
        of the capture at its peak.  Downconversion sets it: the capture
        (complex64, half a copy), the baseband (one copy) and block-sized
        temporaries; the reference is one cached period and a phasor per
        period.  The capture is freed after downconversion and the
        baseband once the estimator holds its phase, so the phase and the
        track (half a copy each) run alone."""
        copies = self.traced_copies(long_capture, tmp_path, "lls")
        assert copies < 1.9, copies

    def test_peak_memory_of_a_long_dpll_capture(self, long_capture, tmp_path):
        """The DPLL twin of the LLS bound: downconversion sets it too, and
        its phase increments and its loop error (half a copy each) run
        alone."""
        copies = self.traced_copies(long_capture, tmp_path, "dpll")
        assert copies < 1.9, copies


def traced_peak(body, *args) -> int:
    """Peak traced allocation, in bytes, of ``body`` (indented code that
    reads ``sys.argv``) run in a fresh interpreter that has imported fcssk."""
    script = "import sys, tracemalloc\nimport fcssk.cli\ntracemalloc.start()\n" + \
        textwrap.dedent(body) + "print(tracemalloc.get_traced_memory()[1])\n"
    src = str(Path(fcssk.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    return int(done.stdout)


def test_fresh_process_never_imports_numpy_ma(tmp_path):
    """``np.median`` imports ``numpy.ma``, which set-up would pay; neither a
    ``demodulate`` nor a one-point ``simulate`` pulls it in."""
    script = textwrap.dedent("""
        import sys
        from fcssk.cli import main
        assert main(["modulate", "--in", sys.argv[1], "--out", sys.argv[2],
                     "--bitrate", "512"]) == 0
        assert main(["demodulate", "--in", sys.argv[2], "--out", sys.argv[3],
                     "--bitrate", "512"]) == 0
        assert main(["simulate", "--bitrate", "512", "--bits", "600", "--snr-start", "10",
                     "--snr-stop", "10", "--out", sys.argv[4]]) == 0
        print("numpy.ma" in sys.modules)
    """)
    bits = np.random.default_rng(3).integers(0, 2, 192)
    write_bits(tmp_path / "in.bits", bits)
    paths = [tmp_path / name for name in ("in.bits", "tx.cf32", "rx.bits", "sweep.csv")]
    src = str(Path(fcssk.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, *map(str, paths)],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert np.array_equal(read_bits(tmp_path / "rx.bits"), bits)
    assert done.stdout == "False\n"


class TestReceiveChain:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("use_sync", [True, False])
    def test_non_finite_sample_named(self, man128, bad, use_sync):
        # each bad sample a new first, the later ones left in place, on both
        # sides of a block boundary; the scan runs before any stage
        b = sigcore.PARALLEL_BLOCK
        samples = np.ones(2 * b + 3, dtype=complex)
        for first in (2 * b + 2, b, b - 1, 100, 0):
            samples[first] = bad
            with pytest.raises(NonFiniteSampleError, match=rf"^sample {first} ") as info:
                receive_chain(IqBuffer(samples, man128.chirp.fs), man128, "dpll", use_sync)
            assert info.value.index == first
            assert "\n" not in str(info.value)

    def test_unknown_estimator_refused_before_any_work(self, man128, monkeypatch):
        calls = []
        for module, name in ((txmod, "modulate"), (sync, "estimate_timing"),
                             (ifest, "downconvert")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        rx = IqBuffer(np.ones(3 * man128.chirp.n, dtype=complex), man128.chirp.fs)
        with pytest.raises(ConfigError, match="^unknown estimator 'pll', use dpll or lls$"):
            chain.simulate(man128, "pll", [(0, 10.0)], 2004, 1)
        with pytest.raises(ConfigError, match="^unknown estimator 'pll', use dpll or lls$"):
            receive_chain(rx, man128, "pll", True)
        assert calls == []

    @pytest.mark.parametrize("b0,fs,bitrate,estimator,message", [
        (20000.0, 65536, 8, "dpll", "lags the chirp slope by 198.94 rad"),
        (1000.0, 8000, 2000, "dpll", "fs=8000 too low for f_nat=2000.0"),
        (1000.0, 8000, 2000, "lls", "window_len 2 must exceed degree+1")],
        ids=["dpll-lag", "dpll-rate", "lls-window"])
    def test_estimator_parameters_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                          b0, fs, bitrate, estimator, message):
        calls = []
        for module, name in ((txmod, "modulate"), (sync, "estimate_timing"),
                             (ifest, "downconvert")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        mp = txmod.make_mod_params(fcssk.derive_params(b0, 4.0, fs), "manchester", bitrate)
        samples = np.ones(3 * mp.chirp.n, dtype=complex)
        with pytest.raises(ConfigError, match=re.escape(message)):
            chain.simulate(mp, estimator, [(0, 0.0)], 4008, 1)
        with pytest.raises(ConfigError, match=re.escape(message)):
            receive_chain(IqBuffer(samples, fs), mp, estimator, True)
        samples[5] = np.nan     # the configuration is refused first
        write_cf32(tmp_path / "x.cf32", samples)
        assert run(["demodulate", "--in", tmp_path / "x.cf32", "--out", tmp_path / "out.txt",
                    "--b0", b0, "--fs", fs, "--bitrate", bitrate, "--estimator", estimator]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert calls == []


    @pytest.mark.parametrize("fs", [32768, 48000])
    @pytest.mark.parametrize("estimator", ["dpll", "lls"])
    def test_capture_at_another_rate_rejected(self, man128, rng, fs, estimator):
        # at the wrong rate the lowpass and the reference disagree, yet this
        # noiseless burst still decodes, so no later stage would notice
        bits = rng.integers(0, 2, 300)
        rx = fcssk.modulate(fcssk.encode(bits, "manchester", man128.coded_bit_len), man128)
        assert np.array_equal(receive_chain(rx, man128, estimator, False), bits)
        with pytest.raises(ConfigError, match=f"^capture is at {fs} S/s, the chirp at 65536 S/s$"):
            receive_chain(IqBuffer(rx.samples, fs), man128, estimator, False)

    def test_peak_memory_of_a_dpll_trial(self):
        """One Manchester 128 b/s DPLL trial at 20 dB, in a fresh process
        (so the cached reference period is built inside it), peaks under
        45 MiB: the coarse sync periodogram sets it, its mixed periods
        beside the capture, with no full-length reference."""
        peak = traced_peak("""
            from fcssk import chain, derive_params, txmod
            mp = txmod.make_mod_params(derive_params(1024.0, 4.0, 65536), "manchester", 128)
            scored, errors = chain._run_trial(mp, "dpll", True, 1, 20.0, 0, 0, chain.TRIAL_BITS)
            assert (scored, errors) == (chain.TRIAL_BITS, 0)
        """)
        assert peak < 45 * 2 ** 20, peak / 2 ** 20

    def test_no_cpu_spent_after_a_trial(self, tmp_path):
        """One sync'd trial per estimator, a sweep on the trial threads and
        a demodulate on block threads, then a 200 ms sleep that must cost
        under 30 ms of CPU.  A multi-threaded BLAS-3 product (matrix times
        matrix) in the chain leaves OpenBLAS's worker threads busy-waiting
        for about 130 ms of CPU after it returns, and a trial or block
        thread left running would spend it too.  With a BLAS build that does not spin, this passes
        whatever the chain calls."""
        script = textwrap.dedent("""
            import os
            import sys
            import time
            import numpy as np
            from fcssk import apply_awgn, apply_delay, cli, derive_params, encode, modulate, sigcore
            from fcssk.chain import receive_chain
            from fcssk.txmod import make_mod_params
            mp = make_mod_params(derive_params(1024.0, 4.0, 65536), "manchester", 128)
            rng = np.random.default_rng(5)
            bits = rng.integers(0, 2, 256)
            clean = modulate(encode(bits, "manchester", mp.coded_bit_len), mp)
            rx = apply_awgn(apply_delay(clean, 5000, mp.chirp), 10.0, rng)
            for estimator in ("dpll", "lls"):
                got = receive_chain(rx, mp, estimator, True)
                assert len(got) > 250 and np.array_equal(got, bits[:len(got)]), estimator
            sigcore._usable_cpus = lambda: 2      # a 2-point sweep on two pool threads
            assert cli.main(["simulate", "--bitrate", "512", "--bits", "600",
                             "--snr-start", "10", "--snr-stop", "12", "--out", os.devnull]) == 0
            # one long burst, its stages split into blocks on two threads
            cli.write_cf32(sys.argv[1], rx.samples)
            assert cli.main(["demodulate", "--in", sys.argv[1], "--out", os.devnull,
                             "--estimator", "lls"]) == 0
            start = time.process_time()
            time.sleep(0.2)
            print(time.process_time() - start)
        """)
        src = str(Path(fcssk.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "rx.cf32")],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert float(done.stdout) < 0.030


class TestSimulateCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        args = ["simulate", "--bitrate", 512, "--bits", 600, "--seed", 9,
                "--snr-start", 10, "--snr-stop", 14, "--snr-step", 2]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "snr_db,code,bitrate,estimator,bits,errors,ber"
        assert len(lines) == 4
        snrs = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert snrs == sorted(snrs)

    def test_with_theory_adds_crb_rows(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["simulate", "--bitrate", 512, "--bits", 600, "--seed", 3,
                    "--snr-start", 20, "--snr-stop", 22, "--snr-step", 2,
                    "--with-theory", "--out", out]) == 0
        rows = parse_csv(out.read_text())
        estimators = {r["estimator"] for r in rows}
        assert estimators == {"crb", "dpll"}
        # sorted by (code, bitrate, estimator, snr): crb block precedes dpll
        assert [r["estimator"] for r in rows] == ["crb", "crb", "dpll", "dpll"]

    def test_coin_flip_regime(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["simulate", "--bitrate", 128, "--bits", 10000, "--seed", 5,
                    "--snr-start", -30, "--snr-stop", -30, "--out", out]) == 0
        row = parse_csv(out.read_text())[0]
        assert 0.45 <= row["ber"] <= 0.55

    @pytest.mark.parametrize("args,bits", [([], 100_000), (["--quick"], 10_000),
                                           (["--quick", "--bits", "100000"], 100_000),
                                           (["--quick", "--bits", "600"], 600)])
    def test_quick_yields_to_explicit_bits(self, args, bits):
        parsed = build_parser().parse_args(["simulate"] + args)
        assert _bits_from_args(parsed) == bits

    @pytest.mark.parametrize("bits", [-5, 0])
    def test_non_positive_bits_rejected(self, tmp_path, capsys, bits):
        out = tmp_path / "a.csv"
        assert run(["simulate", "--quick", "--bits", bits, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: --bits must be at least 1, got {bits}\n"
        assert not out.exists()

    # sha256 of each CSV, recorded before the engine moved out of the CLI.
    # In each curve the -28 dB point takes the no-sync fallback, and some
    # points score fewer bits than were sent (e.g. 6b8b: 504 of 600 at -16 dB).
    PINNED = {
        ("manchester", "dpll"): "4a18acd287c48a89696c1568ea4226223c425fdfa507d038a4bb416602e1f21f",
        ("manchester", "lls"): "269218f5951f44abf7cdbab6a709550d5fee8f6259d9db2c394012aacbdd38a1",
        ("6b8b", "dpll"): "d7c2cc47a93df561a1975cb7b97da712c7514d8e408e685fe3c4d5e26c156a25",
        ("6b8b", "lls"): "bf3bc7279d0076caf55036f5828270e88da4d33be47f84f53af3c233ba9212e2",
    }

    @pytest.mark.parametrize("code,estimator", sorted(PINNED))
    def test_sweep_bytes_pinned(self, tmp_path, code, estimator):
        out = tmp_path / "a.csv"
        assert run(["simulate", "--code", code, "--estimator", estimator, "--bitrate", 512,
                    "--bits", 600, "--seed", 1, "--snr-start", -28, "--snr-stop", 20,
                    "--snr-step", 12, "--with-theory", "--out", out]) == 0
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.PINNED[code, estimator], data.decode()


    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_short_remainder_joins_the_trial_before_it(self, tmp_path, man128, seed):
        # 2100 = 2004 + 96 bits, and 96 bits are 12288 samples at 512 b/s,
        # under one 16384-sample period: as its own trial, whether sync saw
        # a full period depended on the random delay (seeds 2 and 4 failed)
        mp = fcssk.txmod.make_mod_params(man128.chirp, "manchester", 512)
        assert chain.period_bits(mp) == 128
        assert chain.trial_sizes(2100, "manchester", 128) == [2100]
        assert chain.trial_sizes(2100 + 128, "manchester", 128) == [2004, 224]
        out = tmp_path / "a.csv"
        assert run(["simulate", "--bitrate", 512, "--bits", 2100, "--seed", seed,
                    "--snr-start", 10, "--snr-stop", 10, "--out", out]) == 0
        assert parse_csv(out.read_text())[0]["bits"] > 2004

    def test_negative_seed_rejected(self, tmp_path, capsys, monkeypatch):
        trials = []
        monkeypatch.setattr(chain, "_run_trial", lambda *task: trials.append(task))
        out = tmp_path / "a.csv"
        assert run(["simulate", "--quick", "--seed", -1, "--out", out]) == 1
        assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
        assert not out.exists() and not trials

    @pytest.mark.parametrize("code,bits,seed,use_sync,message", [
        ("manchester", 0, 1, True, "--bits must be at least 1, got 0"),
        ("6b8b", 5, 1, False, "--bits 5 is below one 6b8b block"),
        ("manchester", 1, 1, True, "a trial of 1 bits is shorter than the 32 bits of one "
                                   "chirp period at 128 b/s"),
        ("manchester", 600, -1, False, "--seed must be at least 0, got -1")])
    def test_library_request_checked_before_any_trial(self, chirp, monkeypatch, code, bits,
                                                      seed, use_sync, message):
        trials = []
        monkeypatch.setattr(chain, "_run_trial", lambda *task: trials.append(task))
        mp = fcssk.txmod.make_mod_params(chirp, code, 128)
        with pytest.raises(ConfigError) as info:
            chain.simulate(mp, "dpll", [(0, 10.0)], bits, seed, use_sync=use_sync)
        assert str(info.value).startswith(message) and not trials

    def test_trial_shorter_than_a_period_rejected(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        args = ["simulate", "--bitrate", 512, "--bits", 20, "--snr-start", 10,
                "--snr-stop", 10, "--out", out]
        assert run(args) == 1
        assert capsys.readouterr().err == (
            "error: a trial of 20 bits is shorter than the 128 bits of one chirp period "
            "at 512 b/s, which sync needs; raise --bits, lower --bitrate or use --no-sync\n")
        assert not out.exists()
        assert run(args + ["--no-sync"]) == 0       # no sync, no period needed
        assert parse_csv(out.read_text())[0]["bits"] == 20


class TestTrialEngine:
    """The trials of a sweep run on one thread per usable CPU."""

    def test_csv_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        # 2004 + 2004 + a 600-bit remainder per point; -30 dB takes the
        # no-sync fallback in every trial
        fallbacks = []
        estimate = sync.estimate_timing

        def spy(rx, params):
            try:
                return estimate(rx, params)
            except SyncError:
                fallbacks.append(1)
                raise
        monkeypatch.setattr(sync, "estimate_timing", spy)
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(sigcore, "_usable_cpus", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            assert run(["simulate", "--bitrate", 512, "--bits", 4608, "--seed", 4,
                        "--snr-start", -30, "--snr-stop", 20, "--snr-step", 25,
                        "--with-theory", "--out", out]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert chain.trial_sizes(4608, "manchester") == [2004, 2004, 600]
        assert len(fallbacks) == 3 * 3
        scored = [r["bits"] for r in parse_csv(outputs[0].decode()) if r["estimator"] == "dpll"]
        assert scored[0] == scored[2] == 4608     # -30 and 20 dB: every trial counted

    @pytest.mark.parametrize("cpus,bits,points", [(4, 600, 1), (1, 4608, 3)])
    def test_one_worker_starts_no_thread(self, tmp_path, monkeypatch, cpus, bits, points):
        threads_before = threading.active_count()
        seen = []

        def trial(mp, estimator, use_sync, seed, snr_db, point_index, trial, n_bits):
            seen.append((threading.current_thread() is threading.main_thread(),
                         threading.active_count()))
            return n_bits, 0
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(chain, "_run_trial", trial)
        assert run(["simulate", "--bits", bits, "--snr-start", 0, "--snr-stop", points - 1,
                    "--snr-step", 1, "--out", tmp_path / "a.csv"]) == 0
        assert len(seen) == points * len(chain.trial_sizes(bits, "manchester"))
        assert seen == [(True, threads_before)] * len(seen)

    def test_failure_cancels_queued_trials(self, tmp_path, monkeypatch, capsys):
        started = []

        def trial(mp, estimator, use_sync, seed, snr_db, point_index, trial, n_bits):
            started.append((point_index, trial))
            if point_index == 1:
                raise ConfigError(f"trial {trial} of point {point_index} failed")
            time.sleep(0.05)
            return n_bits, 0
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(chain, "_run_trial", trial)
        out = tmp_path / "a.csv"
        assert run(["simulate", "--bits", 3 * 2004, "--snr-start", 0, "--snr-stop", 3,
                    "--snr-step", 1, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trial ") and err.endswith(" failed\n")
        assert err.count("\n") == 1
        assert len(started) < 4 * 3
        assert not [t for t in threading.enumerate() if t.name.startswith("fcssk-trial")]
        assert not out.exists()

    @pytest.mark.parametrize("stop,helpers", [(10, []), (12, ["fcssk-trial-1", "fcssk-trial-2"])])
    def test_trials_start_no_block_thread(self, tmp_path, monkeypatch, stop, helpers):
        """One trial (run inline, as the bench's set-up probe is) or two
        trials on two threads: each stage runs in its trial's thread, where
        run_parallel has one worker, and no block thread starts."""
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: 2)
        started, stages = [], []
        start = threading.Thread.start

        def spy_start(thread):
            started.append((threading.current_thread().name, thread.name))
            start(thread)
        monkeypatch.setattr(threading.Thread, "start", spy_start)
        downconvert = ifest.downconvert

        def spy(rx, mp):
            stages.append((threading.current_thread().name, sigcore.parallel_workers()))
            return downconvert(rx, mp)
        monkeypatch.setattr(ifest, "downconvert", spy)
        assert run(["simulate", "--bitrate", 512, "--bits", 2004, "--snr-start", 10,
                    "--snr-stop", stop, "--out", tmp_path / "a.csv"]) == 0
        main = threading.current_thread().name
        assert started == [(main, name) for name in helpers]
        assert len(stages) == (stop - 10) // 2 + 1    # one trial per 2 dB point
        assert {worker for _, worker in stages} == {1}
        assert {name for name, _ in stages} <= set(helpers or [main])


class TestBlockStages:
    """The per-sample stages of one long burst run in blocks on one thread
    per usable CPU; their output does not depend on the CPU count."""

    @pytest.fixture(scope="class")
    def burst(self, man128):
        # over six overlap-save groups
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, 6 * sigcore.PARALLEL_BLOCK // man128.m + 5)
        clean = fcssk.modulate(fcssk.encode(bits, "manchester", man128.coded_bit_len), man128)
        rx = fcssk.apply_awgn(fcssk.apply_delay(clean, 3000, man128.chirp), 5.0, rng)
        assert len(rx) > 6 * sigcore.PARALLEL_BLOCK
        return bits, rx

    def test_stages_do_not_depend_on_worker_count(self, burst, man128, monkeypatch, tmp_path):
        bits, rx = burst
        frame = fcssk.encode(bits, "manchester", man128.coded_bit_len)
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(sigcore, "_usable_cpus", lambda cpus=cpus: cpus)
            bb = ifest.downconvert(rx, man128)
            path = tmp_path / f"cpus{cpus}.cf32"
            write_cf32(path, rx.samples)
            estimate = sync.estimate_timing(rx, man128.chirp)
            outputs.append([
                fcssk.modulate(frame, man128).samples, bb.samples,
                ifest.dpll_track(bb, ifest.default_dpll(man128)),
                ifest.lls_track(bb, ifest.LlsParams(window_len=man128.coded_bit_len)),
                sync._mixed_periodogram(rx.samples, man128.chirp, 3, 20),
                np.array([estimate.tau_hat, estimate.confidence]),
                np.array([sync._measure_slips(rx.samples, man128.chirp, 2990, guard)
                          for guard in sync.SLIP_GUARDS]),
                path.read_bytes()])
        for other in outputs[1:]:
            for want, got in zip(outputs[0], other):
                assert bytes(want) == bytes(got)
        freq = modulated_frequency(frame, man128)
        formula = np.exp(1j * ((2.0 * np.pi / man128.chirp.fs) * np.cumsum(freq)))
        assert bytes(outputs[0][0]) == bytes(formula)

    def test_demodulate_bytes_do_not_depend_on_worker_count(self, burst, monkeypatch,
                                                            tmp_path):
        bits, rx = burst
        source, capture = tmp_path / "in.bits", tmp_path / "rx.cf32"
        write_bits(source, bits)
        write_cf32(capture, rx.samples)
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(sigcore, "_usable_cpus", lambda cpus=cpus: cpus)
            tx, decoded = tmp_path / f"tx{cpus}.cf32", tmp_path / f"rx{cpus}.bits"
            assert run(["modulate", "--in", source, "--out", tx]) == 0
            assert run(["demodulate", "--in", capture, "--out", decoded,
                        "--estimator", "lls"]) == 0
            outputs.append((tx.read_bytes(), decoded.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        got = read_bits(decoded)
        assert len(got) == len(bits) and np.count_nonzero(got != bits) < len(bits) // 100


class TestBlockSize:
    """Every block split reads sigcore.PARALLEL_BLOCK when it runs, and no
    split changes a bit: a burst of five chirp periods gives the same
    outputs with the block size at 97 (shorter than the LLS window, so
    most blocks end no window), 4099 and 16383 (one sample short of a
    period), on one CPU and on two, as with the default size."""

    @staticmethod
    def outputs(man128, bits, path):
        frame = fcssk.encode(bits, "manchester", man128.coded_bit_len)
        tx = fcssk.modulate(frame, man128)
        noisy = fcssk.apply_awgn(tx, 0.0, np.random.default_rng(5))
        rx = fcssk.apply_delay(noisy, 3000, man128.chirp)
        estimate = sync.estimate_timing(rx, man128.chirp)
        bb = ifest.downconvert(rx, man128)
        write_cf32(path, tx.samples)
        return [tx.samples, noisy.samples, np.array([estimate.tau_hat, estimate.confidence]),
                bb.samples, ifest.dpll_track(bb, ifest.default_dpll(man128)),
                ifest.lls_track(bb, ifest.LlsParams(window_len=man128.coded_bit_len)),
                *(receive_chain(capture, man128, estimator, use_sync)
                  for estimator in chain.ESTIMATORS
                  for capture, use_sync in ((rx, True), (noisy, False))),
                np.frombuffer(path.read_bytes(), dtype=np.uint64)]

    @pytest.fixture(scope="class")
    def burst(self, man128, tmp_path_factory):
        bits = np.random.default_rng(19).integers(0, 2, 5 * man128.chirp.n // man128.m + 3)
        return bits, self.outputs(man128, bits, tmp_path_factory.mktemp("default") / "tx.cf32")

    @pytest.mark.parametrize("size", [97, 4099, 16383])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_outputs_do_not_depend_on_block_size(self, burst, man128, monkeypatch, tmp_path,
                                                 size, cpus):
        bits, want = burst
        assert len(want[0]) > sigcore.PARALLEL_BLOCK    # two default blocks
        monkeypatch.setattr(sigcore, "PARALLEL_BLOCK", size)
        monkeypatch.setattr(sigcore, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sigcore, "_PERIODS", {})   # the reference period built afresh too
        got = self.outputs(man128, bits, tmp_path / "tx.cf32")
        assert len(got) == len(want)
        for k, (a, b) in enumerate(zip(want, got)):
            assert a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64)), k


@pytest.mark.parametrize("command", ["simulate", "theory"])
@pytest.mark.parametrize("option,value", [("--snr-start", "nan"), ("--snr-step", "nan"),
                                          ("--snr-stop", "nan"), ("--snr-start", "-inf"),
                                          ("--snr-stop", "inf"), ("--snr-step", "inf")])
def test_non_finite_snr_named(tmp_path, capsys, command, option, value):
    out = tmp_path / "a.csv"
    quick = ["--quick"] if command == "simulate" else []
    assert run([command, *quick, f"{option}={value}", "--out", out]) == 1
    assert capsys.readouterr().err == \
        f"error: {option} must be a finite number, got {float(value)}\n"
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["theory", "--snr-start", 0, "--snr-stop", 1e300, "--snr-step", 1e295],
     "error: 1e+295 dB overflows a float as a power ratio\n"),
    (["simulate", "--bitrate", 512, "--bits", 600, "--snr-start", -4000, "--snr-stop", -4000],
     "error: 4000 dB overflows a float as a power ratio\n")])
def test_overflowing_snr_named(tmp_path, capsys, args, message):
    out = tmp_path / "a.csv"
    assert run([*args, "--out", out]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_underflowing_theory_point_named(tmp_path, capsys, monkeypatch):
    trials = []
    monkeypatch.setattr(chain, "_run_trial", lambda *task: trials.append(task))
    out = tmp_path / "a.csv"
    assert run(["simulate", "--with-theory", "--snr-start", -4000, "--snr-stop", -4000,
                "--out", out]) == 1
    assert capsys.readouterr().err == "error: -4000 dB underflows a float as a power ratio\n"
    assert not out.exists() and not trials


def test_theory_refuses_the_grid_before_any_trial(tmp_path, capsys, monkeypatch):
    trials = []
    monkeypatch.setattr(chain, "_run_trial", lambda *task: trials.append(task))
    out = tmp_path / "a.csv"
    assert run(["simulate", "--with-theory", "--snr-start", 0, "--snr-stop", 1e300,
                "--snr-step", 1e295, "--out", out]) == 1
    assert capsys.readouterr().err == "error: 1e+295 dB overflows a float as a power ratio\n"
    assert not out.exists() and not trials


@pytest.mark.parametrize("start,stop,step,first,last,count",
                         [(0, 1, 0.6, 0, 0.6, 2), (-30, 30, 7, -30, 26, 9),
                          (-16, 20, 0.1, -16, 20, 361)])
def test_snr_grid_stops_at_stop(tmp_path, start, stop, step, first, last, count):
    out = tmp_path / "t.csv"
    assert run(["theory", "--snr-start", start, "--snr-stop", stop, "--snr-step", step,
                "--out", out]) == 0
    snrs = [r["snr_db"] for r in parse_csv(out.read_text())]
    assert (snrs[0], snrs[-1], len(snrs)) == (first, pytest.approx(last), count)


@pytest.mark.parametrize("command", ["simulate", "theory"])
def test_snr_step_below_csv_resolution_refused(tmp_path, capsys, command):
    out = tmp_path / "a.csv"
    assert run([command, "--snr-step", "1e-9", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --snr-step 1e-09 is below the CSV's 6-digit resolution at -30 dB")
    assert err.count("\n") == 1
    assert not out.exists()


def test_one_point_grid_has_no_step_resolution(tmp_path, capsys):
    # one point prints one row whatever the step; two points a step apart
    # that print the same are still refused
    out = tmp_path / "t.csv"
    assert run(["theory", "--snr-start", 10, "--snr-stop", 10, "--snr-step", 1e-6,
                "--out", out]) == 0
    assert [r["snr_db"] for r in parse_csv(out.read_text())] == [10]
    out.unlink()
    assert run(["theory", "--snr-start", 10, "--snr-stop", 10.000001, "--snr-step", 1e-6,
                "--out", out]) == 1
    assert "where two grid points would print the same" in capsys.readouterr().err
    assert not out.exists()


SIGNAL = {"--code", "--bitrate", "--b0", "--rep-rate", "--fs", "--strict-spec"}
RECEIVER = {"--estimator", "--no-sync"}
GRID = {"--snr-start", "--snr-stop", "--snr-step"}
SWEEP = {"--bits", "--seed", "--with-theory", "--quick"}


class TestOptions:
    """Each command accepts the options it reads and refuses the rest."""

    # modulate takes the receiver options too: one option list names both ends of a link
    OPTIONS = {"modulate": SIGNAL | RECEIVER | {"--in", "--out"},
               "demodulate": SIGNAL | RECEIVER | {"--in", "--out"},
               "simulate": SIGNAL | RECEIVER | GRID | SWEEP | {"--out"},
               "theory": SIGNAL | GRID | {"--out"},
               "plot": {"--out"}}

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_sets(self, command):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert accepted - {"-h", "--help"} == self.OPTIONS[command]

    @pytest.mark.parametrize("command,unread", [("modulate", ["--seed", "1"]),
                                                ("demodulate", ["--snr-start", "0"]),
                                                ("theory", ["--estimator", "lls"]),
                                                ("plot", ["--bogus"])])
    def test_unread_option_exits_2(self, tmp_path, capsys, command, unread):
        out = tmp_path / "out"
        args = [command, *unread, "--out", out]
        if command in ("modulate", "demodulate"):
            args += ["--in", tmp_path / "in"]
        elif command == "plot":
            args.append(tmp_path / "a.csv")
        with pytest.raises(SystemExit) as info:
            run(args)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fcssk {command} ")
        assert err.endswith(f"fcssk {command}: error: unrecognized arguments: "
                            f"{' '.join(unread)}\n")
        assert not out.exists()


class TestChirpOptions:
    @pytest.mark.parametrize("command,option", [("theory", "--b0"), ("modulate", "--b0"),
                                                ("simulate", "--b0"), ("theory", "--rep-rate")])
    def test_nan_rejected(self, tmp_path, capsys, command, option):
        out = tmp_path / "out"
        args = [command, option, "nan", "--out", out]
        if command == "simulate":
            args.append("--quick")
        if command == "modulate":
            (tmp_path / "in.txt").write_text("01" * 16)
            args += ["--in", tmp_path / "in.txt"]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite numbers" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_fs_beyond_a_float_refused(self, tmp_path, capsys):
        # argparse's int accepts a 401-digit fs, and fs / 2 overflows a float
        (tmp_path / "in.txt").write_text("01" * 16)
        out = tmp_path / "out"
        assert run(["modulate", "--in", tmp_path / "in.txt", "--out", out,
                    "--fs", "1" + "0" * 400]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fs is too large: ") and err.count("\n") == 1
        assert not out.exists()


class TestTheoryCommand:
    # sha256 of each CSV on the default grid, recorded while theory_curve
    # still returned one record per point
    PINNED = {
        ("manchester", 128): "5ffe443c9fe1974e0a3e331898794ab4ace9d508a9dbb2485f1336a8419a845a",
        ("manchester", 512): "04a34ee8a96359a29319bdb55b4901bcc9940f058e8adc40d47a5bb88764145a",
        ("6b8b", 128): "d26a2cfd17c94cb289ddaee27fb7a2fd4b51f2a4f006f8d6aac45778539df106",
        ("6b8b", 512): "f5e9e7b6f770337300bbfdb15c2279321b1c6a6d54f09ca1c3bef109673110cd",
    }

    @pytest.mark.parametrize("code,bitrate", sorted(PINNED))
    def test_theory_bytes_pinned(self, tmp_path, code, bitrate):
        out = tmp_path / "t.csv"
        assert run(["theory", "--code", code, "--bitrate", bitrate, "--out", out]) == 0
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.PINNED[code, bitrate], data.decode()

    def test_monotone_series(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["theory", "--code", "manchester", "--bitrate", 128,
                    "--out", out]) == 0
        rows = parse_csv(out.read_text())
        bers = [r["ber"] for r in rows]
        assert all(a >= b for a, b in zip(bers, bers[1:]))
        assert all(r["estimator"] == "crb" for r in rows)

    def test_fractional_coded_bit_rejected(self, tmp_path, capsys):
        # 6b8b at 16000 b/s and 48000 S/s: a coded bit of 3*6/8 samples
        out = tmp_path / "t.csv"
        assert run(["theory", "--code", "6b8b", "--fs", 48000, "--bitrate", 16000,
                    "--out", out]) == 1
        assert capsys.readouterr().err == "error: coded bit length 6*M/8 not integer for M=3\n"
        assert not out.exists()


class TestPlotCommand:
    def _theory_csv(self, tmp_path, name, bitrate):
        out = tmp_path / name
        assert run(["theory", "--bitrate", bitrate, "--out", out]) == 0
        return out

    def test_svg_structure(self, tmp_path):
        csvs = [self._theory_csv(tmp_path, f"t{r}.csv", r) for r in (128, 256, 512)]
        out = tmp_path / "plot.svg"
        assert run(["plot", *csvs, "--out", out]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        for label in ("1", "1e-1", "1e-2", "1e-3", "1e-4"):  # y decades
            assert f">{label}<" in svg
        for tick in ("-30", "-20", "-10", "0", "10", "20", "30"):  # 10 dB grid
            assert f">{tick}<" in svg
        assert svg.count("<polyline") >= 3
        assert "SNR (dB)" in svg and "BER" in svg
        assert "manchester 128 b/s crb" in svg

    def test_empty_csv_rejected(self, tmp_path, capsys):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        assert run(["plot", bad, "--out", tmp_path / "p.svg"]) == 1
        assert "empty" in capsys.readouterr().err

    def test_missing_column_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("snr_db,code,bitrate,estimator,bits,errors\n0,a,1,b,1,0\n")
        assert run(["plot", bad, "--out", tmp_path / "p.svg"]) == 1
        assert "'ber'" in capsys.readouterr().err

    def test_short_row_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("snr_db,code,bitrate,estimator,bits,errors,ber\n"
                       "0,a,1,b,1,0,0\n\n2,a,1,b,1\n")
        assert run(["plot", bad, "--out", tmp_path / "p.svg"]) == 1
        assert capsys.readouterr().err == \
            f"error: {bad}: line 4 has 5 fields, the header has 7\n"

    def test_non_numeric_field_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("snr_db,code,bitrate,estimator,bits,errors,ber\n0,a,1,b,1,0,low\n")
        assert run(["plot", bad, "--out", tmp_path / "p.svg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 2: ") and "'low'" in err
        assert err.count("\n") == 1


class TestCsvHelpers:
    def test_rows_sorted_and_formatted(self):
        rows = [(10.0, "manchester", 256, "dpll", 1000, 1, 0.001),
                (-10.0, "manchester", 256, "dpll", 1000, 500, 0.5),
                (0.0, "6b8b", 128, "lls", 999, 3, 3 / 999)]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[1].startswith("0,6b8b,128,lls,999,3,")
        assert lines[2].startswith("-10,")
        assert "0.003003" in lines[1]  # 6 significant digits

    def test_render_plot_requires_rows(self):
        with pytest.raises(FileFormatError):
            parse_csv("snr_db,code,bitrate,estimator,bits,errors,ber\n")
