"""Command-line harness: modulate/demodulate files, Monte-Carlo BER sweeps,
theory curves, CSV output and SVG plots.

File formats:

* IQ files ("cf32"): interleaved I,Q as IEEE-754 binary32 little-endian,
  headerless;
* bits files: ASCII '0'/'1', all whitespace ignored;
* CSV: header ``snr_db,code,bitrate,estimator,bits,errors,ber`` with rows
  sorted by (code, bitrate, estimator, snr_db), LF line endings, '.'
  decimal separator, BER printed with 6 significant digits.  Theory rows
  use estimator ``crb`` with bits=errors=0.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import channel, codec, detect, ifest, sync, theory, txmod
from .errors import FcsskError, FileFormatError, NonFiniteSampleError, SyncError
from .sigcore import ChirpParams, IqBuffer, derive_params

CSV_HEADER = "snr_db,code,bitrate,estimator,bits,errors,ber"
TRIAL_BITS = 2004          # per-trial burst size; divisible by 6 for 6b8b
DEFAULT_BITS = 100_000
QUICK_BITS = 10_000


@dataclass(frozen=True)
class RunConfig:
    chirp: ChirpParams
    code: str
    bitrate: int
    estimator: str
    snr_start: float
    snr_stop: float
    snr_step: float
    bits: int
    seed: int
    use_sync: bool
    with_theory: bool


@dataclass(frozen=True)
class BerRecord:
    snr_db: float
    code: str
    bitrate: int
    estimator: str
    bits: int
    errors: int

    @property
    def ber(self) -> float:
        return self.errors / self.bits if self.bits else 0.0


# ---------------------------------------------------------------- file I/O

def read_bits(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    bits = []
    line, col = 1, 0
    for offset, byte in enumerate(data):
        ch = chr(byte)
        col += 1
        if ch == "\n":
            line += 1
            col = 0
            continue
        if ch.isspace():
            continue
        if ch in "01":
            bits.append(ord(ch) - ord("0"))
        else:
            raise FileFormatError(
                f"{path}: invalid character {ch!r} at offset {offset} "
                f"(line {line}, column {col}); expected '0'/'1'/whitespace",
                offset=offset)
    return np.array(bits, dtype=np.int64)


def write_bits(path: str, bits) -> None:
    text = "".join(str(int(b)) for b in bits)
    with open(path, "w", newline="\n") as fh:
        for i in range(0, max(len(text), 1), 64):
            chunk = text[i:i + 64]
            if chunk:
                fh.write(chunk + "\n")


def read_cf32(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % 8:
        raise FileFormatError(
            f"{path}: length {len(raw)} is not a multiple of 8 bytes "
            "(interleaved float32 I,Q pairs)", offset=len(raw) - len(raw) % 8)
    finite = np.isfinite(np.frombuffer(raw, dtype="<f4"))
    if not finite.all():
        offset = 8 * (int(np.argmin(finite)) // 2)  # start of the first bad I,Q pair
        raise FileFormatError(f"{path}: non-finite sample at byte offset {offset}",
                              offset=offset)
    return np.frombuffer(raw, dtype="<c8")   # as stored: every consumer widens it exactly


def write_cf32(path: str, samples: np.ndarray) -> None:
    with open(path, "wb") as fh:
        samples.astype("<c8").tofile(fh)


# ----------------------------------------------------------- receive chain

def receive_chain(rx: IqBuffer, mp: txmod.ModParams, estimator: str,
                  use_sync: bool) -> tuple[detect.Decision, sync.SyncEstimate | None]:
    """sync -> downconvert -> IF estimation -> detection."""
    if not np.isfinite(rx.samples).all():
        index = int(np.argmin(np.isfinite(rx.samples)))
        raise NonFiniteSampleError(f"sample {index} is {rx.samples[index]}, "
                                   f"not a finite number", index=index)
    est = None
    if use_sync:
        est = sync.estimate_timing(rx, mp.chirp)
        rx = sync.align(rx, est)
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
    return detect.decide(track, mp), est


def _trial_sizes(total_bits: int, code: str) -> list[int]:
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


def _run_trial(cfg: RunConfig, mp: txmod.ModParams, snr_db: float, point_index: int,
               trial: int, n_bits: int) -> tuple[int, int]:
    """One trial of one SNR grid point: seeded bits, random delay, AWGN, full
    receiver.  Returns (bits scored, bit errors)."""
    bits_rng = channel.derived_rng(cfg.seed, channel.STREAM_BITS, point_index, trial)
    delay_rng = channel.derived_rng(cfg.seed, channel.STREAM_DELAY, point_index, trial)
    noise_rng = channel.derived_rng(cfg.seed, channel.STREAM_NOISE, point_index, trial)
    tx_bits = bits_rng.integers(0, 2, n_bits)
    frame = codec.encode(tx_bits, cfg.code, mp.coded_bit_len)
    rx = txmod.modulate(frame, mp)       # one name, so each stage frees its input
    tau = int(delay_rng.integers(0, mp.chirp.n))
    tau = min(tau, max(len(rx) - 1, 0))  # tiny bursts: delay must fit
    rx = channel.apply_delay(rx, tau, mp.chirp)
    rx = channel.apply_awgn(rx, snr_db, noise_rng)
    try:
        decision, _ = receive_chain(rx, mp, cfg.estimator, cfg.use_sync)
    except SyncError:
        decision, _ = receive_chain(rx, mp, cfg.estimator, use_sync=False)
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


def _simulate_points(cfg: RunConfig, mp: txmod.ModParams,
                     points: list[tuple[int, float]]) -> list[BerRecord]:
    """One BerRecord per (point index, SNR dB) grid point; the trials of all
    points run as one batch of tasks."""
    sizes = _trial_sizes(cfg.bits, cfg.code)
    results = _run_tasks([(cfg, mp, snr_db, index, trial, n_bits)
                          for index, snr_db in points
                          for trial, n_bits in enumerate(sizes)])
    records = []
    for i, (_, snr_db) in enumerate(points):
        trials = results[i * len(sizes):(i + 1) * len(sizes)]
        records.append(BerRecord(snr_db=snr_db, code=cfg.code, bitrate=cfg.bitrate,
                                 estimator=cfg.estimator, bits=sum(b for b, _ in trials),
                                 errors=sum(e for _, e in trials)))
    return records


def simulate_point(cfg: RunConfig, mp: txmod.ModParams, snr_db: float,
                   point_index: int) -> BerRecord:
    """One SNR grid point: its trials summed."""
    return _simulate_points(cfg, mp, [(point_index, snr_db)])[0]


def snr_grid(cfg: RunConfig) -> list[float]:
    for option, value in (("--snr-start", cfg.snr_start), ("--snr-stop", cfg.snr_stop),
                          ("--snr-step", cfg.snr_step)):
        if not np.isfinite(value):
            raise FcsskError(f"{option} must be a finite number, got {value}")
    if cfg.snr_step <= 0:
        raise FcsskError("snr step must be positive")
    if cfg.snr_stop < cfg.snr_start:
        raise FcsskError("snr stop must be >= start")
    count = int(round((cfg.snr_stop - cfg.snr_start) / cfg.snr_step)) + 1
    return [cfg.snr_start + i * cfg.snr_step for i in range(count)]


def run_simulation(cfg: RunConfig) -> list[tuple]:
    mp = txmod.make_mod_params(cfg.chirp, cfg.code, cfg.bitrate)
    if cfg.bits < 1:
        raise FcsskError(f"--bits must be at least 1, got {cfg.bits}")
    if not _trial_sizes(cfg.bits, cfg.code):
        raise FcsskError(f"--bits {cfg.bits} is below one {cfg.code} block")
    rows = [(rec.snr_db, rec.code, rec.bitrate, rec.estimator, rec.bits, rec.errors, rec.ber)
            for rec in _simulate_points(cfg, mp, list(enumerate(snr_grid(cfg))))]
    if cfg.with_theory:
        rows.extend(theory_rows(cfg, mp))
    return rows


def theory_rows(cfg: RunConfig, mp: txmod.ModParams) -> list[tuple]:
    points = theory.theory_curve(mp, snr_grid(cfg))
    return [(p.snr_db, p.code, p.bitrate, "crb", 0, 0, p.pe) for p in points]


# ------------------------------------------------------------- CSV handling

def _num(x: float) -> str:
    return format(x, ".6g")


def rows_to_csv(rows: list[tuple]) -> str:
    ordered = sorted(rows, key=lambda r: (r[1], r[2], r[3], r[0]))
    lines = [CSV_HEADER]
    for snr_db, code, bitrate, estimator, bits, errors, ber in ordered:
        lines.append(f"{_num(snr_db)},{code},{bitrate},{estimator},"
                     f"{bits},{errors},{_num(ber)}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str, path: str = "<csv>") -> list[dict]:
    lines = [(number, ln) for number, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    if not lines:
        raise FileFormatError(f"{path}: empty CSV")
    header = lines[0][1].split(",")
    for column in CSV_HEADER.split(","):
        if column not in header:
            raise FileFormatError(f"{path}: missing column {column!r}")
    rows = []
    for number, ln in lines[1:]:
        values = ln.split(",")
        if len(values) != len(header):
            raise FileFormatError(f"{path}: line {number} has {len(values)} fields, "
                                  f"the header has {len(header)}")
        fields = dict(zip(header, values))
        try:
            rows.append({"snr_db": float(fields["snr_db"]), "code": fields["code"],
                         "bitrate": int(fields["bitrate"]), "estimator": fields["estimator"],
                         "bits": int(fields["bits"]), "errors": int(fields["errors"]),
                         "ber": float(fields["ber"])})
        except ValueError as exc:
            raise FileFormatError(f"{path}: line {number}: {exc}") from None
    if not rows:
        raise FileFormatError(f"{path}: CSV has a header but no data rows")
    return rows


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


# -------------------------------------------------------------- SVG plotting

SVG_WIDTH, SVG_HEIGHT = 760, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 210, 30, 50
Y_MIN, Y_MAX = 1e-4, 1.0
PALETTE = ("#c00000", "#1060c0", "#108030", "#b06000", "#7030a0", "#008080")
DASH_BY_ESTIMATOR = {"dpll": "", "lls": "7,4", "crb": "2,4"}


def _svg_points(series, x_lo, x_hi):
    import math
    plot_w = SVG_WIDTH - MARGIN_L - MARGIN_R
    plot_h = SVG_HEIGHT - MARGIN_T - MARGIN_B
    decades = math.log10(Y_MAX / Y_MIN)
    segments, current = [], []
    for snr, ber in series:
        if ber <= 0:
            if current:
                segments.append(current)
                current = []
            continue
        ber = max(ber, Y_MIN)
        x = MARGIN_L + (snr - x_lo) / (x_hi - x_lo) * plot_w
        y = MARGIN_T + (math.log10(Y_MAX) - math.log10(ber)) / decades * plot_h
        current.append((x, y))
    if current:
        segments.append(current)
    return segments


def render_plot_svg(rows: list[dict]) -> str:
    import math
    series: dict[tuple, list] = {}
    for row in rows:
        key = (row["code"], row["bitrate"], row["estimator"])
        series.setdefault(key, []).append((row["snr_db"], row["ber"]))
    for points in series.values():
        points.sort()
    snrs = [s for pts in series.values() for s, _ in pts]
    x_lo = math.floor(min(snrs) / 10.0) * 10
    x_hi = math.ceil(max(snrs) / 10.0) * 10
    if x_hi == x_lo:
        x_hi = x_lo + 10
    plot_w = SVG_WIDTH - MARGIN_L - MARGIN_R
    plot_h = SVG_HEIGHT - MARGIN_T - MARGIN_B

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
           f'height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
           f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>']
    # y decade gridlines, 1 down to 1e-4
    decades = int(round(math.log10(Y_MAX / Y_MIN)))
    for d in range(decades + 1):
        y = MARGIN_T + d / decades * plot_h
        label = f"1e-{d}" if d else "1"
        out.append(f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{MARGIN_L + plot_w}" '
                   f'y2="{y:.1f}" stroke="#cccccc" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">{label}</text>')
    # x gridlines every 10 dB
    x_tick = x_lo
    while x_tick <= x_hi:
        x = MARGIN_L + (x_tick - x_lo) / (x_hi - x_lo) * plot_w
        out.append(f'<line x1="{x:.1f}" y1="{MARGIN_T}" x2="{x:.1f}" '
                   f'y2="{MARGIN_T + plot_h}" stroke="#cccccc" stroke-width="1"/>')
        out.append(f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 18}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">{x_tick:g}</text>')
        x_tick += 10
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="black" stroke-width="1"/>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{SVG_HEIGHT - 12}" '
               f'font-size="12" text-anchor="middle" font-family="sans-serif">SNR (dB)</text>')
    out.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.0f}" font-size="12" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.0f})">BER</text>')

    colors: dict[tuple, str] = {}
    legend_y = MARGIN_T + 10
    for key in sorted(series):
        code, bitrate, estimator = key
        color_key = (code, bitrate)
        if color_key not in colors:
            colors[color_key] = PALETTE[len(colors) % len(PALETTE)]
        color = colors[color_key]
        dash = DASH_BY_ESTIMATOR.get(estimator, "")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        for segment in _svg_points(series[key], x_lo, x_hi):
            if len(segment) == 1:
                x, y = segment[0]
                out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="{color}"/>')
            else:
                pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in segment)
                out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                           f'stroke-width="1.6"{dash_attr}/>')
        lx = MARGIN_L + plot_w + 14
        out.append(f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 28}" '
                   f'y2="{legend_y - 4}" stroke="{color}" stroke-width="1.6"{dash_attr}/>')
        out.append(f'<text x="{lx + 34}" y="{legend_y}" font-size="11" '
                   f'font-family="sans-serif">{code} {bitrate} b/s {estimator}</text>')
        legend_y += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ------------------------------------------------------------------ commands

def _chirp_from_args(args) -> ChirpParams:
    return derive_params(args.b0, args.rep_rate, args.fs, strict=args.strict_spec)


def _config_from_args(args) -> RunConfig:
    bits = args.bits
    if bits is None:
        bits = QUICK_BITS if args.quick else DEFAULT_BITS
    return RunConfig(chirp=_chirp_from_args(args), code=args.code,
                     bitrate=args.bitrate, estimator=args.estimator,
                     snr_start=args.snr_start, snr_stop=args.snr_stop,
                     snr_step=args.snr_step, bits=bits, seed=args.seed,
                     use_sync=not args.no_sync, with_theory=args.with_theory)


def cmd_modulate(args) -> int:
    chirp = _chirp_from_args(args)
    mp = txmod.make_mod_params(chirp, args.code, args.bitrate)
    bits = read_bits(args.infile)
    frame = codec.encode(bits, args.code, mp.coded_bit_len)
    write_cf32(args.outfile, txmod.modulate(frame, mp).samples)
    return 0


def cmd_demodulate(args) -> int:
    chirp = _chirp_from_args(args)
    mp = txmod.make_mod_params(chirp, args.code, args.bitrate)
    decision, _ = receive_chain(IqBuffer(samples=read_cf32(args.infile), fs=chirp.fs),
                                mp, args.estimator, use_sync=not args.no_sync)
    write_bits(args.outfile, decision.bits)
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    _write_text(args.outfile, rows_to_csv(run_simulation(cfg)))
    return 0


def cmd_theory(args) -> int:
    cfg = _config_from_args(args)
    mp = txmod.make_mod_params(cfg.chirp, cfg.code, cfg.bitrate)
    _write_text(args.outfile, rows_to_csv(theory_rows(cfg, mp)))
    return 0


def cmd_plot(args) -> int:
    rows = []
    for path in args.csvs:
        with open(path, "r") as fh:
            rows.extend(parse_csv(fh.read(), path))
    _write_text(args.outfile, render_plot_svg(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--code", choices=list(codec.CODE_NAMES), default=codec.MANCHESTER)
    common.add_argument("--bitrate", type=int, default=128, help="info bits/s")
    common.add_argument("--b0", type=float, default=1024.0, help="chirp bandwidth, Hz")
    common.add_argument("--rep-rate", type=float, default=4.0, help="chirp repetitions/s")
    common.add_argument("--fs", type=int, default=65536, help="sampling rate")
    common.add_argument("--estimator", choices=("dpll", "lls"), default="dpll")
    common.add_argument("--snr-start", type=float, default=-30.0)
    common.add_argument("--snr-stop", type=float, default=30.0)
    common.add_argument("--snr-step", type=float, default=2.0)
    common.add_argument("--bits", type=int, default=None,
                        help=f"info bits per SNR point (default {DEFAULT_BITS})")
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--no-sync", action="store_true")
    common.add_argument("--with-theory", action="store_true")
    common.add_argument("--strict-spec", action="store_true",
                        help="enforce the homing-signal envelope constraints")
    common.add_argument("--quick", action="store_true",
                        help=f"use {QUICK_BITS} bits/point unless --bits given")

    parser = argparse.ArgumentParser(prog="fcssk",
                                     description="Fractional chirp-slope-shift-keying modem "
                                                 "and Monte-Carlo BER harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modulate", parents=[common], help="bits file -> cf32 IQ file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_modulate)

    p = sub.add_parser("demodulate", parents=[common], help="cf32 IQ file -> bits file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_demodulate)

    p = sub.add_parser("simulate", parents=[common], help="Monte-Carlo BER sweep -> CSV")
    p.add_argument("--out", dest="outfile", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("theory", parents=[common], help="CRB reference curve -> CSV")
    p.add_argument("--out", dest="outfile", default="-")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("plot", help="render BER CSVs as a log-y SVG plot")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--out", dest="outfile", default="plot.svg")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FcsskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
