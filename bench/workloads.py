"""Workload definitions: op inputs made from the workload seed, and checks
of op outputs that hold for any seed.

An op is one closed-loop request to the public CLI entry point
``fcssk.cli.main``.  Each workload seed derives a fixed pool of op seeds;
a run cycles through that pool, so every op of a run has a recorded
reference digest when the workload seed has one.

fcssk is imported inside the functions that need it, never at module
level: the worker times its own first import of fcssk as set-up.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

FS = 65536
DEFAULT_SEED = 1
HELD_OUT_SEED = 90017      # re-checks a claim on a seed a change was not tuned on
PROBE_SEED = 0             # op seed of the set-up probe, whatever the workload seed


@dataclass(frozen=True)
class Curve:
    """A BER sweep: each op is one ``fcssk simulate --with-theory`` of one
    trial per SNR point, so a pool cycle holds ``pool`` trials per point."""
    name: str
    code: str
    bitrate: int
    estimator: str
    snr_db: tuple           # start, stop, step
    pool: int
    must_reach: tuple

    @property
    def points(self) -> int:
        start, stop, step = self.snr_db
        return int(round((stop - start) / step)) + 1

    def op_bits(self) -> int:
        from fcssk.cli import TRIAL_BITS
        return self.points * TRIAL_BITS

    def argv(self, op_seed: int, out: str, probe: bool = False) -> list:
        from fcssk.cli import TRIAL_BITS
        start, stop, step = self.snr_db
        grid = (stop, stop, step) if probe else self.snr_db
        return ["simulate", "--code", self.code, "--bitrate", str(self.bitrate),
                "--estimator", self.estimator, "--snr-start", str(grid[0]),
                "--snr-stop", str(grid[1]), "--snr-step", str(grid[2]),
                "--bits", str(TRIAL_BITS), "--seed", str(op_seed), "--with-theory",
                "--out", out]


@dataclass(frozen=True)
class FileRoundTrip:
    """``fcssk modulate`` of a long bits file, then ``fcssk demodulate`` of a
    pre-generated noisy capture of the same bits."""
    name: str
    code: str
    bitrate: int
    estimator: str
    n_bits: int
    snr_db: float
    pool: int
    must_reach: tuple

    def op_bits(self) -> int:
        return self.n_bits

    def common(self) -> list:
        return ["--code", self.code, "--bitrate", str(self.bitrate),
                "--estimator", self.estimator]


CURVE_REACH = ("codec.encode", "txmod.modulate", "channel.apply_awgn",
               "channel.apply_delay", "sync.estimate_timing", "ifest.downconvert",
               "detect.decide", "theory.theory_curve", "sync.periodic_reference",
               "ifest.periodic_reference")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Curve(name="curve_man128_dpll",
          code="manchester", bitrate=128, estimator="dpll",
          snr_db=(-16.0, 20.0, 12.0), pool=4,
          must_reach=CURVE_REACH + ("ifest.dpll_track",)),
    Curve(name="curve_6b8b512_lls",
          code="6b8b", bitrate=512, estimator="lls",
          snr_db=(-16.0, 20.0, 12.0), pool=8,
          must_reach=CURVE_REACH + ("ifest.lls_track",)),
    FileRoundTrip(name="file_man128_lls",
                  code="manchester", bitrate=128, estimator="lls",
                  n_bits=8190, snr_db=10.0, pool=3,
                  must_reach=("cli.read_bits", "cli.write_cf32", "cli.read_cf32",
                              "cli.write_bits", "codec.encode", "txmod.modulate",
                              "sync.estimate_timing", "ifest.downconvert",
                              "ifest.lls_track", "detect.decide")),
)}


def op_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).hexdigest()
    return int(digest[:8], 16)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ------------------------------------------------------------ op plans

def make_plan(w, seed: int, work: str) -> list:
    """Op descriptions for one pool cycle; writes the file inputs it needs."""
    plan = []
    for i in range(w.pool):
        s = op_seed(w.name, seed, i)
        if isinstance(w, Curve):
            out = os.path.join(work, f"op{i}.csv")
            plan.append({"index": i, "op_seed": s, "bits": w.op_bits(),
                         "calls": [w.argv(s, out)], "outputs": [out], "true_tau": None})
            continue
        bits_path = os.path.join(work, f"op{i}.bits")
        capture = os.path.join(work, f"op{i}_capture.cf32")
        tx_out = os.path.join(work, f"op{i}_tx.cf32")
        dec_out = os.path.join(work, f"op{i}_decoded.bits")
        tau = make_capture(w, s, bits_path, capture)
        plan.append({"index": i, "op_seed": s, "bits": w.op_bits(),
                     "calls": [["modulate", "--in", bits_path, "--out", tx_out] + w.common(),
                               ["demodulate", "--in", capture, "--out", dec_out] + w.common()],
                     "outputs": [tx_out, dec_out], "true_tau": tau,
                     "source_bits": bits_path, "capture_sha256": sha256_file(capture)})
    return plan


def make_capture(w: FileRoundTrip, s: int, bits_path: str, capture: str) -> int:
    """Random bits file plus its delayed, noisy capture; returns the delay."""
    import numpy as np
    from fcssk import channel, codec, derive_params, txmod
    from fcssk.cli import write_bits, write_cf32

    rng = np.random.default_rng(np.random.SeedSequence([s, 0]))
    bits = rng.integers(0, 2, w.n_bits)
    write_bits(bits_path, bits)
    mp = txmod.make_mod_params(derive_params(1024.0, 4.0, FS), w.code, w.bitrate)
    signal = txmod.modulate(codec.encode(bits, w.code, mp.coded_bit_len), mp)
    tau = int(rng.integers(0, mp.chirp.n))
    rx = channel.apply_awgn(channel.apply_delay(signal, tau, mp.chirp), w.snr_db,
                            np.random.default_rng(np.random.SeedSequence([s, 1])))
    write_cf32(capture, rx.samples)
    return tau


def probe_op(w, work: str) -> dict:
    """Warm-up and set-up probe op: one trial at the top of the grid (curves),
    or one ``demodulate`` call (file; ``modulate`` fills no cache).  It is the
    same op for every workload seed, so set-up time does not vary with it."""
    if isinstance(w, Curve):
        return {"calls": [w.argv(PROBE_SEED, os.path.join(work, "probe.csv"), probe=True)]}
    capture = os.path.join(work, "probe_capture.cf32")
    make_capture(w, PROBE_SEED, os.path.join(work, "probe.bits"), capture)
    return {"calls": [["demodulate", "--in", capture,
                       "--out", os.path.join(work, "probe_decoded.bits")] + w.common()]}


# ------------------------------------------------------------ checks

def read_bits_text(path: str) -> list:
    with open(path) as fh:
        return [int(c) for c in fh.read() if c in "01"]


def check_outputs(w, op: dict) -> tuple[list, dict]:
    """Structural checks that hold for every seed; returns (problems, tallies)."""
    from fcssk.cli import CSV_HEADER
    problems, tallies = [], {}
    if isinstance(w, Curve):
        with open(op["outputs"][0]) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return ["bad CSV header"], tallies
        rows = [ln.split(",") for ln in lines[1:]]
        sim = [r for r in rows if r[3] == w.estimator]
        crb = [r for r in rows if r[3] == "crb"]
        if len(sim) != w.points or len(crb) != w.points or len(rows) != 2 * w.points:
            problems.append(f"expected {w.points} simulated and theory rows, got {len(rows)}")
        scored = sum(int(r[4]) for r in sim)
        if any(int(r[5]) > int(r[4]) for r in sim) or scored > w.op_bits():
            problems.append("errors exceed bits, or more bits scored than sent")
        tallies = {"bits_scored": scored, "theory_rows": ",".join(",".join(r) for r in crb)}
        return problems, tallies
    tx, dec = op["outputs"]
    if os.path.getsize(tx) != 8 * w.n_bits * (FS // w.bitrate):
        problems.append(f"modulated file has {os.path.getsize(tx)} bytes")
    scored = min(len(read_bits_text(op["source_bits"])), len(read_bits_text(dec)))
    return problems, {"bits_scored": scored}
