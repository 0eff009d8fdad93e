#!/bin/sh
# Byte-identity check against another revision: exports REV with
# `git archive`, runs every run in scripts/same_outputs.py's table under
# REV and under this working tree, one Python process per tree, and fails
# unless every output file (per-seed JSONL, client CSV, summary, every
# checkpoint) is byte-identical.
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
mkdir "$tmp/rev"
git archive "$1" | tar -x -C "$tmp/rev"
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
for side in rev here; do
    tree=$tmp/rev
    [ $side = here ] && tree=$here
    (cd "$tree" && PYTHONPATH=src python "$here/scripts/same_outputs.py" \
        "$tmp" $side)
done
diff -rq "$tmp/out-rev" "$tmp/out-here"
echo "$(ls "$tmp/cfg" | wc -l) runs, $(find "$tmp/out-here" -type f | wc -l)" \
     "output files byte-identical to $1's"
