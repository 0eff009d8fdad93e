#!/bin/sh
# Quick sanity check: validate and run the smoke config with one worker.
# Runs the package from src/, so it works without installing the fvem script.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m fedvem.cli validate --config configs/smoke.cfg
python -m fedvem.cli run --config configs/smoke.cfg --workers 1 --out reports/smoke
echo "reports written to reports/smoke"
