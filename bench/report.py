"""Per-stage table from traced runs, one row per workload.

Run from a checkout root:

    python3 bench/report.py [--seed 1] [--seconds 20] [--workload NAME ...]

It runs ``run.py --trace 1`` for each workload and prints self ms per op in
the columns of the ROADMAP baseline table (sync, DPLL/LLS, downconvert,
modulate, channel, detect), then the tracing overhead as traced over
untraced bits_per_s with both bases, and the exact sync and bit counters.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads
from run import stage_header, stage_row

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_metrics(name: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: run.py exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name}: {result['failed']} of {result['attempted']} ops failed\n"
                         f"{proc.stderr}")
    return {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    runs = {name: traced_metrics(name, args.seed, args.seconds) for name in args.workload}
    print(stage_header())
    for name, m in runs.items():
        print(stage_row(name, m))
    print()
    print("| workload | traced bits/s | untraced bits/s | ratio | sync hits/attempts "
          "| fallbacks | bits dropped/sent |")
    print("|---|---|---|---|---|---|---|")
    for name, m in runs.items():
        v = {k: value for k, (value, _) in m.items()}
        print(f"| {name} | {v['trace.traced_bits_per_s']:.0f} | "
              f"{v['trace.untraced_bits_per_s']:.0f} | {v['trace.bits_per_s_ratio']:.3f} | "
              f"{v['sync.hits']:.0f}/{v['sync.attempts']:.0f} | {v['sync.fallbacks']:.0f} | "
              f"{v['cli.bits_dropped']:.0f}/{v['cli.bits_sent']:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
