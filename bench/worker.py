"""Op runner: the one process that imports fcssk and runs a workload's ops.

Usage: python3 bench/worker.py JOB.json

The job names the workload, the op plan, the run length, the trace flag
and where to write the result.  The loop is closed with one client: the
next op starts only after the previous one has returned.  Only the call
to ``fcssk.cli.main`` is inside the timed region; digests and output
checks run after it.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_op(main, op: dict, tracer=None, op_id: int = 0) -> tuple[float, float]:
    """Run every CLI call of ``op``; returns (wall s, cpu s)."""
    if tracer is not None:
        tracer.true_tau = op.get("true_tau")
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    for argv in op["calls"]:
        rc = tracer.run_op(op_id, main, argv) if tracer else main(argv)
        if rc != 0:
            raise RuntimeError(f"fcssk {argv[0]} exited with {rc}")
    return time.perf_counter() - wall0, cpu_seconds() - cpu0


def check_op(w, op: dict) -> dict:
    problems, tallies = workloads.check_outputs(w, op)
    digests = [workloads.sha256_file(p) for p in op["outputs"]]
    return {"digests": digests, "problems": problems, **tallies}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(job: dict) -> dict:
    """Fresh-process set-up cost: import, then the probe op cold and twice warm."""
    t0 = time.perf_counter()
    import fcssk.cli
    import_s = time.perf_counter() - t0
    cold, _ = run_op(fcssk.cli.main, job["probe"])
    warm = [run_op(fcssk.cli.main, job["probe"])[0] for _ in range(2)]
    return {"import_s": import_s, "cold_s": cold, "warm_s": sum(warm) / len(warm),
            "peak_rss_mb": peak_rss_mb()}


def record(w, op: dict, phase: str, op_id: int, main, tracer=None) -> dict:
    entry = {"index": op["index"], "phase": phase}
    try:
        entry["wall_s"], entry["cpu_s"] = run_op(main, op, tracer, op_id)
        entry.update(check_op(w, op))
    except Exception as exc:    # an op that raises is a failed op, not a crash
        entry["error"] = f"{type(exc).__name__}: {exc}"
    return entry


def run(job: dict) -> dict:
    import fcssk.cli
    from tracer import Tracer

    w = workloads.WORKLOADS[job["workload"]]
    plan, main = job["plan"], fcssk.cli.main
    run_op(main, job["probe"])      # lazy caches fill before timing starts
    ops, cycle_snapshot = [], None
    tracer = Tracer() if job["trace"] else None
    start = time.perf_counter()
    deadline = start + job["seconds"]
    if not job["trace"]:
        # whole pool cycles until the deadline, so every run times the same mix
        while not ops or time.perf_counter() < deadline:
            for op in plan:
                ops.append(record(w, op, "untraced", len(ops), main))
    else:
        # pairs of whole pool cycles, untraced then traced, while a pair still fits
        pair_s = 0.0
        while not ops or time.perf_counter() + pair_s < deadline:
            pair_start = time.perf_counter()
            for op in plan:
                ops.append(record(w, op, "untraced", len(ops), main))
            tracer.install()
            try:
                for op in plan:
                    ops.append(record(w, op, "traced", len(ops), main, tracer))
            finally:
                tracer.uninstall()
            if cycle_snapshot is None:
                cycle_snapshot = {"counts": dict(tracer.counts),
                                  "calls": dict(tracer.calls)}
            pair_s = time.perf_counter() - pair_start
    result = {"ops": ops, "elapsed_s": time.perf_counter() - start,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.write_spans(job["spans"])
        result["trace"] = {"self_ms": tracer.self_ms(), "cycle": cycle_snapshot}
    return result


def main(argv) -> int:
    with open(argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    result = probe(job) if job["mode"] == "probe" else run(job)
    with open(job["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
