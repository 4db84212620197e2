import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fcssk
from fcssk import FileFormatError, IqBuffer, NonFiniteSampleError
from fcssk.cli import (_config_from_args, build_parser, main, parse_csv, read_bits,
                       read_cf32, receive_chain, rows_to_csv, write_bits, write_cf32)


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
    def test_non_finite_sample_rejected(self, tmp_path, bad):
        samples = np.ones(6, dtype=complex)
        samples[3] = complex(1.0, bad)  # Q of sample 3, bytes 28..31
        path = tmp_path / "x.cf32"
        write_cf32(path, samples)
        with pytest.raises(FileFormatError) as err:
            read_cf32(path)
        assert err.value.offset == 24
        assert "offset 24" in str(err.value)


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


    def test_peak_memory_of_a_long_lls_capture(self, tmp_path):
        """Demodulating 2.1 M samples allocates under 3.5 complex128 copies
        of the capture at its peak: the cached reference and the baseband
        (one each), the phase and the track (half each), and block-sized
        temporaries.  The capture itself stays complex64 and is freed
        after downconversion."""
        mp = fcssk.txmod.make_mod_params(fcssk.derive_params(1024.0, 4.0, 65536),
                                         "manchester", 128)
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 4096)
        clean = fcssk.modulate(fcssk.encode(bits, "manchester", mp.coded_bit_len), mp)
        rx = fcssk.apply_awgn(fcssk.apply_delay(clean, 3000, mp.chirp), 10.0, rng)
        capture, decoded = tmp_path / "rx.cf32", tmp_path / "rx.bits"
        write_cf32(capture, rx.samples)
        script = textwrap.dedent("""
            import sys, tracemalloc
            from fcssk.cli import main
            tracemalloc.start()
            rc = main(["demodulate", "--in", sys.argv[1], "--out", sys.argv[2],
                       "--estimator", "lls"])
            print(rc, tracemalloc.get_traced_memory()[1])
        """)
        src = str(Path(fcssk.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, str(capture), str(decoded)],
                              capture_output=True, text=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": src})
        rc, peak = map(int, done.stdout.split())
        assert rc == 0 and np.array_equal(read_bits(decoded), bits)
        assert len(rx) > 2_000_000
        assert peak < 3.5 * 16 * len(rx), peak / (16 * len(rx))


class TestReceiveChain:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("use_sync", [True, False])
    def test_non_finite_sample_named(self, man128, bad, use_sync):
        samples = np.ones(3 * man128.chirp.n, dtype=complex)
        samples[100] = bad
        with pytest.raises(NonFiniteSampleError, match=r"^sample 100 ") as info:
            receive_chain(IqBuffer(samples, man128.chirp.fs), man128, "dpll", use_sync)
        assert info.value.index == 100
        assert "\n" not in str(info.value)


    def test_no_cpu_spent_after_a_trial(self):
        """One sync'd trial per estimator, then a 200 ms sleep that must cost
        under 30 ms of CPU.  A multi-threaded BLAS-3 product (matrix times
        matrix) in the chain leaves OpenBLAS's worker threads busy-waiting
        for about 130 ms of CPU after it returns.  With a BLAS build that
        does not spin, this passes whatever the chain calls."""
        script = textwrap.dedent("""
            import time
            import numpy as np
            from fcssk import apply_awgn, apply_delay, derive_params, encode, modulate
            from fcssk.cli import receive_chain
            from fcssk.txmod import make_mod_params
            mp = make_mod_params(derive_params(1024.0, 4.0, 65536), "manchester", 128)
            rng = np.random.default_rng(5)
            bits = rng.integers(0, 2, 256)
            clean = modulate(encode(bits, "manchester", mp.coded_bit_len), mp)
            rx = apply_awgn(apply_delay(clean, 5000, mp.chirp), 10.0, rng)
            for estimator in ("dpll", "lls"):
                decision, _ = receive_chain(rx, mp, estimator, True)
                got = decision.bits
                assert len(got) > 250 and np.array_equal(got, bits[:len(got)]), estimator
            start = time.process_time()
            time.sleep(0.2)
            print(time.process_time() - start)
        """)
        src = str(Path(fcssk.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
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
        assert _config_from_args(parsed).bits == bits

    @pytest.mark.parametrize("bits", [-5, 0])
    def test_non_positive_bits_rejected(self, tmp_path, capsys, bits):
        out = tmp_path / "a.csv"
        assert run(["simulate", "--quick", "--bits", bits, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: --bits must be at least 1, got {bits}\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "theory"])
@pytest.mark.parametrize("option,value", [("--snr-start", "nan"), ("--snr-step", "nan"),
                                          ("--snr-stop", "nan"), ("--snr-start", "-inf"),
                                          ("--snr-stop", "inf"), ("--snr-step", "inf")])
def test_non_finite_snr_named(tmp_path, capsys, command, option, value):
    out = tmp_path / "a.csv"
    assert run([command, "--quick", f"{option}={value}", "--out", out]) == 1
    assert capsys.readouterr().err == \
        f"error: {option} must be a finite number, got {float(value)}\n"
    assert not out.exists()


class TestTheoryCommand:
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
