#!/bin/sh
# Quick sanity check: validate the smoke config, run it on 23 clients (head
# groups of 10, 10 and 3, so both pool workers get jobs) with a checkpoint
# every round with one worker and with a two-worker pool, fail unless the
# two runs' per-seed report, client table, summary and every checkpoint are
# byte-identical, then run it under every scheme.
# Runs the package from src/, so it works without installing the fvem
# script.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m fedvem.cli validate --config configs/smoke.cfg
mkdir -p reports
cfg=reports/smoke-checkpoints.cfg
{ sed 's/^partition\.clients = .*/partition.clients = 23/' configs/smoke.cfg
  echo "checkpoint_every = 1"; } > "$cfg"
rm -rf reports/smoke/checkpoints_seed0 reports/smoke-w2/checkpoints_seed0
python -m fedvem.cli run --config "$cfg" --workers 1 --out reports/smoke
python -m fedvem.cli run --config "$cfg" --workers 2 --out reports/smoke-w2
for f in seed0.jsonl seed0_clients.csv summary.jsonl; do
    cmp "reports/smoke/$f" "reports/smoke-w2/$f"
done
for f in reports/smoke/checkpoints_seed0/round*.fvem; do
    cmp "$f" "reports/smoke-w2/checkpoints_seed0/${f##*/}"
done
python scripts/run_benchmark.py configs/smoke.cfg
echo "reports written to reports/smoke and reports/smoke-w2 (byte-identical,"
echo "checkpoints included) and to reports/smoke/<scheme> for every scheme"
