"""fcssk benchmark: one closed-loop client driving ``fcssk.cli.main``.

Run from the root of a checkout:

    python3 bench/run.py --workload curve_man128_dpll --seed 1 --seconds 20 --trace 0

Inputs are made from ``--seed`` in this process; the ops run in one fresh
worker process (``worker.py``) that imports fcssk from ``src/``.  Every op
output is checked: against the sha256 digests in ``reference.json`` when
the seed has them, and for every seed against the seed-independent theory
rows, structural checks, and agreement between repeats of the same op.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
and traced pool cycles in turn and prints the per-layer metrics (self
time per op, exact counters over one cycle, tracing overhead).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import workloads
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORK_DIR = ".bench_work"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150


# --------------------------------------------------------------- environment

def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or the env setting."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name,
            "blas_threads": blas_threads(), "cpu_model": cpu_model()}


def load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {"env": {}, "workloads": {}}
    with open(REFERENCE) as fh:
        return json.load(fh)


# --------------------------------------------------------------- processes

def spawn(job: dict, path: str) -> dict:
    job_path = path + ".job.json"
    job["out"] = path + ".result.json"
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                   check=True, timeout=WORKER_TIMEOUT_S)
    with open(job["out"]) as fh:
        return json.load(fh)


def setup_probes(probe: dict, work: str, src: str) -> tuple[float, float]:
    """Fresh processes that import fcssk and run the probe op cold, then warm.

    Returns the medians of set-up time (import plus the cold op's excess
    over the warm mean) and of peak RSS.
    """
    setup, rss = [], []
    for i in range(SETUP_REPEATS):
        r = spawn({"mode": "probe", "probe": probe, "src": src},
                  os.path.join(work, f"probe{i}"))
        setup.append(r["import_s"] + r["cold_s"] - r["warm_s"])
        rss.append(r["peak_rss_mb"])
    return statistics.median(setup), statistics.median(rss)


# --------------------------------------------------------------- checking

def judge(w, seed: int, plan: list, ops: list, reference: dict) -> list:
    """Mark each op failed or not; returns the list of failure reasons."""
    ref = reference["workloads"].get(w.name, {})
    ref_ops = ref.get("seeds", {}).get(str(seed))
    stale = ref_ops is not None and [r["op_seed"] for r in ref_ops] != [
        p["op_seed"] for p in plan]
    first = {}
    reasons = []
    for n, op in enumerate(ops):
        i = op["index"]
        why = [op["error"]] if "error" in op else list(op["problems"])
        if stale:
            why.append("reference was recorded for another op plan")
        elif ref_ops is not None and plan[i].get("capture_sha256") != ref_ops[i]["capture_sha256"]:
            why.append("generated capture differs from the reference")
        if "digests" in op:
            if ref_ops is not None and not stale and op["digests"] != ref_ops[i]["digests"]:
                why.append("output digest differs from the reference")
            if first.setdefault(i, op["digests"]) != op["digests"]:
                why.append("output differs from an earlier run of the same op")
            if "theory_rows" in op and ref.get("theory_rows") not in (None, op["theory_rows"]):
                why.append("theory rows differ from the reference")
        op["failed"] = bool(why)
        reasons += [f"op {n} (pool entry {i}): {r}" for r in why]
    return reasons


def bits_per_s(w, ops: list) -> float:
    return len(ops) * w.op_bits() / sum(op["wall_s"] for op in ops)


# --------------------------------------------------------------- metrics

def end_to_end(w, ops: list, setup_s: float, rss_mb: float) -> dict:
    done = [op for op in ops if "wall_s" in op]
    return {
        "bits_per_s": (bits_per_s(w, done), "bit/s"),
        "op_s.p50": (statistics.median(op["wall_s"] for op in done), "s"),
        "cpu_s_per_op": (statistics.median(op["cpu_s"] for op in done), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(w, ops: list, result: dict) -> dict:
    trace = result["trace"]
    traced = [op for op in ops if op["phase"] == "traced" and "wall_s" in op]
    untraced = [op for op in ops if op["phase"] == "untraced" and "wall_s" in op]
    cycle = trace["cycle"]
    counts = cycle["counts"]
    first_cycle = [op for op in ops if op["phase"] == "traced"][:w.pool]
    scored = sum(op.get("bits_scored", 0) for op in first_cycle)
    metrics = {f"{layer}.ms": (trace["self_ms"][layer] / len(traced), "ms")
               for layer in LAYERS}
    attempts = counts["sync.attempts"]
    metrics.update({
        "sigcore.periodic_reference.calls":
            (counts["sigcore.periodic_reference.calls"] / w.pool, "count"),
        "ifest.samples": (counts["ifest.samples"] / w.pool, "count"),
        "cli.io.bytes": (counts["cli.io.bytes"] / w.pool, "B"),
        "sync.attempts": (attempts, "count"),
        "sync.hits": (counts["sync.hits"], "count"),
        "sync.hit_rate": (counts["sync.hits"] / attempts if attempts else 0.0, "ratio"),
        "sync.fallbacks": (counts["sync.fallbacks"], "count"),
        "cli.bits_sent": (counts["cli.bits_sent"], "count"),
        "cli.bits_scored": (scored, "count"),
        "cli.bits_dropped": (counts["cli.bits_sent"] - scored, "count"),
        "trace.untraced_bits_per_s": (bits_per_s(w, untraced), "bit/s"),
        "trace.traced_bits_per_s": (bits_per_s(w, traced), "bit/s"),
    })
    metrics["trace.bits_per_s_ratio"] = (
        metrics["trace.traced_bits_per_s"][0] / metrics["trace.untraced_bits_per_s"][0],
        "ratio")
    return metrics


STAGES = (("sync", ("sync.estimate_timing",)),
          ("DPLL/LLS", ("ifest.dpll_track", "ifest.lls_track")),
          ("downconvert", ("ifest.downconvert",)),
          ("modulate", ("txmod.modulate",)),
          ("channel", ("channel.apply_awgn", "channel.apply_delay")),
          ("detect", ("detect.decide",)))


def stage_row(name: str, metrics: dict) -> str:
    total = sum(metrics[f"{layer}.ms"][0] for layer in LAYERS)
    cells = [f"{sum(metrics[f'{l}.ms'][0] for l in layers):.0f}" for _, layers in STAGES]
    return f"| {name} | {total:.0f} ms | " + " | ".join(cells) + " |"


def stage_header() -> str:
    names = [s for s, _ in STAGES]
    return ("| workload | total/op | " + " | ".join(names) + " |\n"
            + "|---" * (len(names) + 2) + "|")


# --------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fcssk", "__init__.py")):
        print(f"error: no fcssk sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    w = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, WORK_DIR, w.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    reference = load_reference()
    env = environment()
    for key, value in reference.get("env", {}).items():
        if env.get(key) != value:
            print(f"warning: {key} is {env.get(key)!r}, baseline recorded {value!r}",
                  file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))

    try:
        plan = workloads.make_plan(w, args.seed, work)
        probe = workloads.probe_op(w, work)
        setup_s, rss_mb = setup_probes(probe, work, src) if not args.trace else (None, None)
        result = spawn({"mode": "run", "workload": w.name, "plan": plan, "probe": probe,
                        "src": src, "seconds": args.seconds, "trace": args.trace,
                        "spans": os.path.join(work, "spans.tsv")},
                       os.path.join(work, "run"))
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in glob.glob(os.path.join(work, "*.cf32")):
            os.remove(path)

    ops = result["ops"]
    reasons = judge(w, args.seed, plan, ops, reference)
    failed = sum(op["failed"] for op in ops)
    for reason in reasons[:20]:
        print(f"failed {reason}", file=sys.stderr)
    if not any("wall_s" in op for op in ops):
        print("error: no op completed", file=sys.stderr)
        return 1
    recorded = str(args.seed) in reference["workloads"].get(w.name, {}).get("seeds", {})
    print(f"workload {w.name} seed {args.seed}: {len(ops)} ops in {result['elapsed_s']:.1f} s; "
          f"failed_ops {failed}/{len(ops)} = {failed / len(ops):.3f} "
          f"({'checked against' if recorded else 'seed has no'} reference digests); "
          f"worker peak RSS {result['peak_rss_mb']:.1f} MB")

    if args.trace:
        calls = result["trace"]["cycle"]["calls"]
        missing = [p for p in w.must_reach if calls.get(p, 0) == 0]
        if missing:
            print(f"error: wrap points recorded zero calls on {w.name}: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 3
        metrics = per_layer(w, ops, result)
        print(stage_header())
        print(stage_row(w.name, metrics))
        print(f"tracing overhead: traced/untraced bits_per_s = "
              f"{metrics['trace.traced_bits_per_s'][0]:.1f}/"
              f"{metrics['trace.untraced_bits_per_s'][0]:.1f} = "
              f"{metrics['trace.bits_per_s_ratio'][0]:.4f}")
    else:
        metrics = end_to_end(w, ops, setup_s, rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
