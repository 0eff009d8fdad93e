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


def _fmt(mean, err) -> str:
    """``mean +/- err``, or ``-`` for a run with no rounds (no mean)."""
    if mean is None or mean != mean:
        return f"{'-':>16}"
    return f"{mean:.4f} +/- {err:.4f}"


def compare(label: str, variants, workers: int) -> int:
    """Run each ``(name, config, out dir)`` in turn, then print one line per
    run: its final PM and GM accuracies, mean +/- SEM over the seeds.
    Returns 2, after printing why, if a config is invalid."""
    rows = []
    for name, cfg, out in variants:
        bad = validate(cfg)
        if bad:
            for v in bad:
                print(f"{name}: {v}", file=sys.stderr)
            return 2
        rows.append((name, run_experiment(cfg, workers=workers, out=out)))
        print(f"done: {name}")

    width = max(len(label), *(len(name) for name, _ in rows))
    print(f"\n{label:{width}} {'PM':>16} {'GM':>16}")
    for name, s in rows:
        print(f"{name:{width}} {_fmt(s['mean_pm'], s['sem_pm'])} "
              f"{_fmt(s['mean_gm'], s['sem_gm'])}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--schemes", default=",".join(SCHEMES))
    args = parser.parse_args()

    base = load_config(args.config)
    return compare("scheme", [
        (scheme, replace(base, scheme=scheme), os.path.join(base.out, scheme))
        for scheme in args.schemes.split(",")], args.workers)


if __name__ == "__main__":
    sys.exit(main())
