#!/bin/sh
# Quick sanity check: validate the smoke config, run it with one worker and
# with a two-worker pool, fail unless the two runs' per-seed report, client
# table and summary are byte-identical, then run it under every scheme.
# Runs the package from src/, so it works without installing the fvem
# script.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m fedvem.cli validate --config configs/smoke.cfg
python -m fedvem.cli run --config configs/smoke.cfg --workers 1 --out reports/smoke
python -m fedvem.cli run --config configs/smoke.cfg --workers 2 --out reports/smoke-w2
for f in seed0.jsonl seed0_clients.csv summary.jsonl; do
    cmp "reports/smoke/$f" "reports/smoke-w2/$f"
done
python scripts/run_benchmark.py configs/smoke.cfg
echo "reports written to reports/smoke and reports/smoke-w2 (byte-identical)"
echo "and to reports/smoke/<scheme> for every scheme"
