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

from fedvem.config import load_config
from run_benchmark import compare

MODES = ("full", "uncertainty_only", "deviation_only")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    base = load_config(args.config)
    return compare("confidence mode", [
        (mode, replace(base, scheme="pfedvem",
                       train=replace(base.train, confidence_mode=mode)),
         os.path.join(base.out, f"ablation_{mode}"))
        for mode in MODES], args.workers)


if __name__ == "__main__":
    sys.exit(main())
