#!/bin/sh
# Byte-identity check against another revision: exports REV with
# `git archive`, runs the same eighteen configs under REV and under this
# working tree, and fails unless every output file (per-seed JSONL, client
# CSV, summary, every checkpoint) is byte-identical.
#   - the smoke config (3 classes, 23 clients) on one worker;
#   - the smoke config under quantity_only, seeds 0-2, on one worker;
#   - a 5-class concept_drift config, seeds 0-2, on one worker;
#   - a 10-class label_skew config, seeds 0-2, on a two-worker pool;
#   - the smoke config under fedavg, fedprox and local, seeds 0-2;
#   - the smoke config under fedprox with 300 points per subclass, 10
#     rounds and a local rate of 0.1, seeds 0-2, where the proximal pull
#     changes the reports (at smoke scale FedProx writes FedAvg's bytes);
#   - a 10-class label_skew config over IDX files, seeds 0-1, on one
#     worker: 600 + 100 generated 8x8 uint8 images, which both trees read;
#   - the smoke config with two hidden layers (16,8), seeds 0-2, under
#     pFedVEM with 23 clients on a two-worker pool, and under fedavg, so
#     the backward pass through a hidden layer into the one below runs;
#   - the smoke config under quantity_only with every client reporting
#     (train.s = 1.0) and baseline.batch = 8, seeds 0-2, under fedavg and
#     local: one SGD group of all 4 clients, 6-121 rows each, whose
#     batches differ in size at many steps;
#   - the smoke config under fedavg with 23 clients all reporting and
#     baseline.batch = 4, seeds 0-2: more reporters than nn's group size
#     (federation.HEAD_GROUP), so each round trains in three groups;
#   - the same under fedprox with 300 points per subclass and a local rate
#     of 0.1, seeds 0-2: groups of 10, 10 and 3 whose clients run out of
#     batches at different steps, so the proximal pull acts on a shrinking
#     prefix of each group (these files differ from fedavg's on the same
#     data, unlike at the smoke config's 30 points);
#   - the smoke config with 160 input dimensions, seeds 0-1, on one worker:
#     the only config here past 32 dimensions, where the synthetic centers
#     come from a QR of the first 32 columns of the drawn matrix;
#   - the smoke config with 23 clients, seeds 0-1, under each confidence
#     ablation (train.confidence_mode = uncertainty_only, deviation_only),
#     on one worker: the only runs whose tau has one denominator term.
# The nine pFedVEM runs write a checkpoint every round; the nine baseline
# runs write none.  The configs are generated with sed from the shipped
# ones, with few rounds and points so the check takes seconds.
# Usage: scripts/same_outputs.sh REV
set -e
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
here=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev" "$tmp/cfg"
git archive "$1" | tar -x -C "$tmp/rev"

{ sed 's/^partition\.clients = .*/partition.clients = 23/' configs/smoke.cfg
  echo "checkpoint_every = 1"; } > "$tmp/cfg/smoke.cfg"
{ sed -e 's/^partition\.scenario = .*/partition.scenario = quantity_only/' \
      -e 's/^seeds = .*/seeds = 0,1,2/' configs/smoke.cfg
  echo "checkpoint_every = 1"; } > "$tmp/cfg/quantity.cfg"
{ sed -e 's/^dataset\.points_per_subclass = .*/dataset.points_per_subclass = 40/' \
      -e 's/^dataset\.test_points_per_subclass = .*/dataset.test_points_per_subclass = 10/' \
      -e 's/^partition\.clients = .*/partition.clients = 23/' \
      -e 's/^train\.T = .*/train.T = 3/' \
      -e 's/^seeds = .*/seeds = 0,1,2/' configs/synth_conceptdrift.cfg
  echo "checkpoint_every = 1"; } > "$tmp/cfg/drift5.cfg"
{ sed -e 's/^dataset\.classes = .*/dataset.classes = 10/' \
      -e 's/^dataset\.subclasses_per_class = .*/dataset.subclasses_per_class = 1/' \
      -e 's/^dataset\.points_per_subclass = .*/dataset.points_per_subclass = 60/' \
      -e 's/^dataset\.test_points_per_subclass = .*/dataset.test_points_per_subclass = 10/' \
      -e 's/^partition\.scenario = .*/partition.scenario = label_skew/' \
      -e 's/^partition\.clients = .*/partition.clients = 23/' \
      -e 's/^train\.T = .*/train.T = 3/' \
      -e 's/^seeds = .*/seeds = 0,1,2/' configs/synth_conceptdrift.cfg
  echo "partition.labels_per_client = 5"
  echo "checkpoint_every = 1"; } > "$tmp/cfg/skew10.cfg"
# class-dependent pixels from a fixed seed, labels 0-9 in turn
python - "$tmp" <<'GEN'
import struct
import sys

import numpy as np

rng = np.random.default_rng(0)
centers = rng.integers(0, 256, size=(10, 64))
for split, n in (("train", 600), ("test", 100)):
    labels = np.arange(n) % 10
    pixels = np.clip(centers[labels] + rng.normal(0, 40, (n, 64)), 0, 255)
    with open(f"{sys.argv[1]}/{split}-images", "wb") as f:
        f.write(struct.pack(">IIII", 2051, n, 8, 8)
                + pixels.astype(np.uint8).tobytes())
    with open(f"{sys.argv[1]}/{split}-labels", "wb") as f:
        f.write(struct.pack(">II", 2049, n) + labels.astype(np.uint8).tobytes())
GEN
{ sed -e '/^dataset\./d' -e '/^partition\./d' -e 's/^seeds = .*/seeds = 0,1/' \
      configs/smoke.cfg
  echo "dataset.kind = fmnist"
  for split in train test; do
      echo "dataset.${split}_images = $tmp/$split-images"
      echo "dataset.${split}_labels = $tmp/$split-labels"
  done
  echo "partition.scenario = label_skew"
  echo "partition.clients = 23"
  echo "partition.labels_per_client = 5"
  echo "checkpoint_every = 1"; } > "$tmp/cfg/idx.cfg"
{ sed -e 's/^dataset\.dim = .*/dataset.dim = 160/' \
      -e 's/^seeds = .*/seeds = 0,1/' configs/smoke.cfg
  echo "checkpoint_every = 1"; } > "$tmp/cfg/wide.cfg"
for mode in uncertainty_only deviation_only; do
    { sed -e 's/^partition\.clients = .*/partition.clients = 23/' \
          -e 's/^seeds = .*/seeds = 0,1/' configs/smoke.cfg
      echo "train.confidence_mode = $mode"
      echo "checkpoint_every = 1"; } > "$tmp/cfg/$mode.cfg"
done
for scheme in fedavg fedprox local; do
    sed -e "s/^scheme = .*/scheme = $scheme/" -e 's/^seeds = .*/seeds = 0,1,2/' \
        configs/smoke.cfg > "$tmp/cfg/$scheme.cfg"
done
sed -e 's/^scheme = .*/scheme = fedprox/' \
    -e 's/^dataset\.points_per_subclass = .*/dataset.points_per_subclass = 300/' \
    -e 's/^train\.T = .*/train.T = 10/' -e 's/^seeds = .*/seeds = 0,1,2/' \
    configs/smoke.cfg > "$tmp/cfg/prox.cfg"
echo "baseline.lr = 0.1" >> "$tmp/cfg/prox.cfg"
{ sed -e 's/^model\.hidden = .*/model.hidden = 16,8/' \
      -e 's/^partition\.clients = .*/partition.clients = 23/' \
      -e 's/^seeds = .*/seeds = 0,1,2/' configs/smoke.cfg
  echo "checkpoint_every = 1"; } > "$tmp/cfg/deep.cfg"
sed -e 's/^scheme = .*/scheme = fedavg/' \
    -e 's/^model\.hidden = .*/model.hidden = 16,8/' \
    -e 's/^seeds = .*/seeds = 0,1,2/' configs/smoke.cfg > "$tmp/cfg/deepavg.cfg"
for scheme in fedavg local; do
    { sed -e "s/^scheme = .*/scheme = $scheme/" \
          -e 's/^partition\.scenario = .*/partition.scenario = quantity_only/' \
          -e 's/^train\.s = .*/train.s = 1.0/' \
          -e 's/^seeds = .*/seeds = 0,1,2/' configs/smoke.cfg
      echo "baseline.batch = 8"; } > "$tmp/cfg/ragged$scheme.cfg"
done
{ sed -e 's/^scheme = .*/scheme = fedavg/' \
      -e 's/^partition\.clients = .*/partition.clients = 23/' \
      -e 's/^train\.s = .*/train.s = 1.0/' \
      -e 's/^seeds = .*/seeds = 0,1,2/' configs/smoke.cfg
  echo "baseline.batch = 4"; } > "$tmp/cfg/split.cfg"
{ sed -e 's/^scheme = .*/scheme = fedprox/' \
      -e 's/^dataset\.points_per_subclass = .*/dataset.points_per_subclass = 300/' \
      "$tmp/cfg/split.cfg"
  echo "baseline.lr = 0.1"; } > "$tmp/cfg/splitprox.cfg"

for tree in "$tmp/rev" "$here"; do
    side=$( [ "$tree" = "$here" ] && echo here || echo rev )
    for run in smoke:1 quantity:1 drift5:1 skew10:2 fedavg:1 fedprox:1 \
               prox:1 local:1 idx:1 deep:2 deepavg:1 raggedfedavg:1 \
               raggedlocal:1 split:1 splitprox:1 wide:1 uncertainty_only:1 \
               deviation_only:1; do
        name=${run%:*}
        (cd "$tree" && PYTHONPATH=src python -m fedvem.cli run \
            --config "$tmp/cfg/$name.cfg" --workers "${run#*:}" \
            --out "$tmp/out-$side/$name" > /dev/null)
    done
done
diff -rq "$tmp/out-rev" "$tmp/out-here"
echo "$(find "$tmp/out-here" -type f | wc -l) output files byte-identical" \
     "to $1's"
