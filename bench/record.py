"""Record the reference digests and the baseline environment.

Run from a checkout root:

    python3 bench/record.py                      # default and held-out seeds
    python3 bench/record.py --seeds 0 1 2 --workload file_man128_lls

For every workload and seed it runs one pool cycle of ops and stores the
sha256 of each op output (and of each generated capture) in
``bench/reference.json``; entries for other seeds are kept.  A run of
``run.py`` on a recorded seed fails every op whose output differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import workloads
from run import REFERENCE, WORK_DIR, environment, load_reference
from worker import check_op, run_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
    parser.add_argument("--workload", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import fcssk.cli

    reference = load_reference()
    reference["env"] = environment()
    for name in args.workload:
        w = workloads.WORKLOADS[name]
        entry = reference["workloads"].setdefault(name, {"seeds": {}})
        for seed in args.seeds:
            work = os.path.join(os.getcwd(), WORK_DIR, f"record-{name}-{seed}")
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            ops = []
            for op in workloads.make_plan(w, seed, work):
                run_op(fcssk.cli.main, op)
                checked = check_op(w, op)
                if checked["problems"]:
                    raise SystemExit(f"{name} seed {seed}: {checked['problems']}")
                if "theory_rows" in checked:
                    entry["theory_rows"] = checked["theory_rows"]
                ops.append({"op_seed": op["op_seed"], "digests": checked["digests"],
                            "capture_sha256": op.get("capture_sha256")})
            entry["seeds"][str(seed)] = ops
            shutil.rmtree(work)
            print(f"{name} seed {seed}: {len(ops)} ops recorded", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
