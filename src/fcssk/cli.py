"""Command-line harness: argument parsing, file and CSV I/O, and the
modulate, demodulate, simulate, theory and plot commands.  The receive
chain and the BER engine are in ``fcssk.chain``, the SVG plotter in
``fcssk.plot``.

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
import math
import sys

import numpy as np

from . import chain, codec, theory, txmod
from .chain import TRIAL_BITS
from .errors import FcsskError, FileFormatError, NonFiniteSampleError
from .sigcore import IqBuffer, derive_params

CSV_HEADER = "snr_db,code,bitrate,estimator,bits,errors,ber"
DEFAULT_BITS = 100_000
QUICK_BITS = 10_000


# ---------------------------------------------------------------- file I/O

# the bytes a bits file may hold: '0', '1' and every byte whose character
# str.isspace() counts as whitespace
_BITS_BYTE_OK = np.array([chr(b) in "01" or chr(b).isspace() for b in range(256)])


def read_bits(path: str) -> np.ndarray:
    """The file's '0'/'1' digits as int64 bits, whitespace skipped;
    FileFormatError naming the offset, line and column of the first
    other byte."""
    with open(path, "rb") as fh:
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    bad = np.flatnonzero(~_BITS_BYTE_OK[data])
    if len(bad):
        offset = int(bad[0])
        newlines = np.flatnonzero(data[:offset] == ord("\n"))
        line = len(newlines) + 1
        col = offset - (int(newlines[-1]) if len(newlines) else -1)
        raise FileFormatError(
            f"{path}: invalid character {chr(data[offset])!r} at offset {offset} "
            f"(line {line}, column {col}); expected '0'/'1'/whitespace",
            offset=offset)
    bits = data[(data == ord("0")) | (data == ord("1"))]
    return bits.astype(np.int64) - ord("0")


def write_bits(path: str, bits) -> None:
    """The bits as ASCII digits, 64 to a line, each line LF-ended."""
    digits = np.asarray(bits).astype(np.uint8) + ord("0")
    index = np.arange(len(digits))
    text = np.full(len(digits) + -(-len(digits) // 64), ord("\n"), dtype=np.uint8)
    text[index + index // 64] = digits
    with open(path, "wb") as fh:
        fh.write(text.tobytes())


def read_cf32(path: str) -> np.ndarray:
    """The file's I,Q pairs as stored, a complex64 view (consumers widen it exactly), or
    FileFormatError for a partial pair; NaN and infinity are ``receive_chain``'s to find."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % 8:
        raise FileFormatError(
            f"{path}: length {len(raw)} is not a multiple of 8 bytes "
            "(interleaved float32 I,Q pairs)", offset=len(raw) - len(raw) % 8)
    return np.frombuffer(raw, dtype="<c8")


def write_cf32(path: str, samples: np.ndarray) -> None:
    """The samples as complex64, narrowed in one ``astype`` and written in
    one ``tofile``."""
    with open(path, "wb") as fh:
        samples.astype("<c8").tofile(fh)


# ---------------------------------------------------------------- SNR grid

def snr_grid(args) -> list[float]:
    """--snr-start, then steps of --snr-step that do not pass --snr-stop."""
    for option, value in (("--snr-start", args.snr_start), ("--snr-stop", args.snr_stop),
                          ("--snr-step", args.snr_step)):
        if not np.isfinite(value):
            raise FcsskError(f"{option} must be a finite number, got {value}")
    if args.snr_step <= 0:
        raise FcsskError("snr step must be positive")
    if args.snr_stop < args.snr_start:
        raise FcsskError("snr stop must be >= start")
    # the epsilon keeps a stop that the steps reach exactly (up to rounding)
    count = math.floor((args.snr_stop - args.snr_start) / args.snr_step + 1e-9) + 1
    # at the end of largest |SNR|, a finer step than the CSV prints repeats rows
    end, neighbour = max((args.snr_start, args.snr_start + args.snr_step),
                         (args.snr_stop, args.snr_stop - args.snr_step), key=lambda e: abs(e[0]))
    if count > 1 and _num(end) == _num(neighbour):
        raise FcsskError(f"--snr-step {args.snr_step:g} is below the CSV's 6-digit resolution "
                         f"at {_num(end)} dB, where two grid points would print the same")
    return [args.snr_start + i * args.snr_step for i in range(count)]


def theory_rows(mp: txmod.ModParams, grid: list[float]) -> list[tuple]:
    return [(snr_db, mp.code, mp.bitrate, "crb", 0, 0, pe)
            for snr_db, pe in zip(grid, theory.theory_curve(mp, grid))]


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


# ------------------------------------------------------------------ commands

def _mod_params_from_args(args) -> txmod.ModParams:
    chirp = derive_params(args.b0, args.rep_rate, args.fs, strict=args.strict_spec)
    return txmod.make_mod_params(chirp, args.code, args.bitrate)


def _bits_from_args(args) -> int:
    if args.bits is not None:
        return args.bits
    return QUICK_BITS if args.quick else DEFAULT_BITS


def cmd_modulate(args) -> int:
    mp = _mod_params_from_args(args)
    frame = codec.encode(read_bits(args.infile), args.code, mp.coded_bit_len)
    write_cf32(args.outfile, txmod.modulate(frame, mp).samples)
    return 0


def cmd_demodulate(args) -> int:
    mp = _mod_params_from_args(args)
    try:
        bits = chain.receive_chain(IqBuffer(samples=read_cf32(args.infile), fs=mp.chirp.fs),
                                   mp, args.estimator, use_sync=not args.no_sync)
    except NonFiniteSampleError as exc:   # named by its place in the file
        raise FileFormatError(f"{args.infile}: non-finite sample at byte offset "
                              f"{8 * exc.index}", offset=8 * exc.index) from None
    write_bits(args.outfile, bits)
    return 0


def cmd_simulate(args) -> int:
    mp = _mod_params_from_args(args)
    grid = snr_grid(args)
    # theory first, so a grid it refuses fails before any trial runs
    rows = theory_rows(mp, grid) if args.with_theory else []
    totals = chain.simulate(mp, args.estimator, list(enumerate(grid)), _bits_from_args(args),
                            args.seed, use_sync=not args.no_sync)
    rows.extend((snr_db, mp.code, mp.bitrate, args.estimator, scored, errors,
                 errors / scored if scored else 0.0)
                for snr_db, (scored, errors) in zip(grid, totals))
    _write_text(args.outfile, rows_to_csv(rows))
    return 0


def cmd_theory(args) -> int:
    mp = _mod_params_from_args(args)
    _write_text(args.outfile, rows_to_csv(theory_rows(mp, snr_grid(args))))
    return 0


def cmd_plot(args) -> int:
    from .plot import render_plot_svg
    rows = []
    for path in args.csvs:
        with open(path, "r") as fh:
            rows.extend(parse_csv(fh.read(), path))
    _write_text(args.outfile, render_plot_svg(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # each command takes the option groups it reads; modulate also takes the
    # receiver's, so one option list names both ends of a link
    signal = argparse.ArgumentParser(add_help=False)
    signal.add_argument("--code", choices=list(codec.CODE_NAMES), default=codec.MANCHESTER)
    signal.add_argument("--bitrate", type=int, default=128, help="info bits/s")
    signal.add_argument("--b0", type=float, default=1024.0, help="chirp bandwidth, Hz")
    signal.add_argument("--rep-rate", type=float, default=4.0, help="chirp repetitions/s")
    signal.add_argument("--fs", type=int, default=65536, help="sampling rate")
    signal.add_argument("--strict-spec", action="store_true",
                        help="enforce the homing-signal envelope constraints")
    receiver = argparse.ArgumentParser(add_help=False)
    receiver.add_argument("--estimator", choices=chain.ESTIMATORS, default="dpll")
    receiver.add_argument("--no-sync", action="store_true")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--snr-start", type=float, default=-30.0)
    grid.add_argument("--snr-stop", type=float, default=30.0)
    grid.add_argument("--snr-step", type=float, default=2.0)
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--bits", type=int, default=None,
                       help=f"info bits per SNR point (default {DEFAULT_BITS}), "
                            f"sent in trials of {TRIAL_BITS} and a remainder")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--with-theory", action="store_true")
    sweep.add_argument("--quick", action="store_true",
                       help=f"use {QUICK_BITS} bits/point unless --bits given")

    parser = argparse.ArgumentParser(prog="fcssk",
                                     description="Fractional chirp-slope-shift-keying modem "
                                                 "and Monte-Carlo BER harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modulate", parents=[signal, receiver], help="bits file -> cf32 IQ file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_modulate)

    p = sub.add_parser("demodulate", parents=[signal, receiver],
                       help="cf32 IQ file -> bits file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_demodulate)

    p = sub.add_parser("simulate", parents=[signal, receiver, grid, sweep],
                       help="Monte-Carlo BER sweep -> CSV")
    p.add_argument("--out", dest="outfile", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("theory", parents=[signal, grid], help="CRB reference curve -> CSV")
    p.add_argument("--out", dest="outfile", default="-")
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("plot", help="render BER CSVs as a log-y SVG plot")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--out", dest="outfile", default="plot.svg")
    p.set_defaults(func=cmd_plot)
    for p in sub.choices.values():
        p.set_defaults(command_parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:  # the command's own parser, so its usage and error lines name it
        args.command_parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.func(args)
    except (FcsskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
