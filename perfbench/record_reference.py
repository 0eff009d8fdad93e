#!/usr/bin/env python3
"""Record the final accuracies the output check expects, per workload and seed.

    python3 perfbench/record_reference.py --workload NAME --seeds 0-9

Runs each seed once, untimed, checks it like a benchmark run, and merges the
final PM and GM accuracies into ``reference.json``.  Re-record only when a
change to the program is meant to change what it computes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

from run import REFERENCE, RUN_LIMIT_S, RUNS_DIR, check_seed, run_child
from tracing import now
from workloads import WORKLOADS


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = p.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    workload = WORKLOADS[args.workload]
    with open(REFERENCE) as f:
        reference = json.load(f)
    entries = reference.setdefault(workload.name, {})
    run_dir = os.path.join(RUNS_DIR, f"record-{workload.name}-{os.getpid()}")
    os.makedirs(run_dir)
    for seed in range(first, last + 1):
        run = run_child(run_dir, f"seed{seed}", workload, seed,
                        now() + RUN_LIMIT_S)
        got = check_seed(run, workload, seed, None)
        entries[str(seed)] = {k: got[k] for k in ("final_pm_acc",
                                                   "final_gm_acc")}
        print(f"{workload.name} seed {seed}: {entries[str(seed)]}", flush=True)
    reference[workload.name] = dict(sorted(entries.items(),
                                           key=lambda kv: int(kv[0])))
    with open(REFERENCE, "w") as f:
        json.dump(dict(sorted(reference.items())), f, indent=1)
        f.write("\n")
    shutil.rmtree(run_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
