#!/usr/bin/env python3
"""Run one config under every scheme and print a comparison table.

    python3 scripts/run_benchmark.py configs/synth_conceptdrift.cfg [--workers N]

Each scheme writes its reports under <out>/<scheme>/; the table shows the
final-round personalized (PM) and global (GM) accuracies, mean +/- SEM over
the configured seeds.
"""

import argparse
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fedvem.cli import run_experiment
from fedvem.config import load_config, validate

SCHEMES = ("pfedvem", "fedavg", "fedprox", "local")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--schemes", default=",".join(SCHEMES))
    args = parser.parse_args()

    base = load_config(args.config)
    rows = []
    for scheme in args.schemes.split(","):
        cfg = replace(base, scheme=scheme)
        bad = validate(cfg)
        if bad:
            for v in bad:
                print(f"{scheme}: {v}", file=sys.stderr)
            return 2
        summary = run_experiment(cfg, workers=args.workers,
                                 out=os.path.join(cfg.out, scheme))
        rows.append((scheme, summary))
        print(f"done: {scheme}")

    print(f"\n{'scheme':10} {'PM':>16} {'GM':>16}")
    for scheme, s in rows:
        def fmt(mean, err):
            if mean is None or mean != mean:
                return f"{'-':>16}"
            return f"{mean:.4f} +/- {err:.4f}"
        print(f"{scheme:10} {fmt(s['mean_pm'], s['sem_pm'])} "
              f"{fmt(s['mean_gm'], s['sem_gm'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
