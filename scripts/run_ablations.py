#!/usr/bin/env python3
"""Confidence-mode ablation sweep over one config.

    python3 scripts/run_ablations.py configs/synth_conceptdrift.cfg [--workers N]

Runs the federated scheme three times: with the full confidence denominator
(posterior uncertainty + deviation from the shared head), with uncertainty
only, and with deviation only; prints final PM accuracy per mode.
"""

import argparse
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fedvem.cli import run_experiment
from fedvem.config import load_config, validate

MODES = ("full", "uncertainty_only", "deviation_only")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    base = load_config(args.config)
    results = {}
    for mode in MODES:
        cfg = replace(base, scheme="pfedvem",
                      train=replace(base.train, confidence_mode=mode))
        bad = validate(cfg)
        if bad:
            for v in bad:
                print(f"{mode}: {v}", file=sys.stderr)
            return 2
        summary = run_experiment(cfg, workers=args.workers,
                                 out=os.path.join(cfg.out, f"ablation_{mode}"))
        results[mode] = summary
        print(f"done: {mode}")

    print(f"\n{'confidence mode':18} {'PM':>16} {'GM':>16}")
    for mode, s in results.items():
        print(f"{mode:18} {s['mean_pm']:.4f} +/- {s['sem_pm']:.4f} "
              f"{s['mean_gm']:.4f} +/- {s['sem_gm']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
