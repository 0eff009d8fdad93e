"""The table of runs `scripts/same_outputs.sh` compares, and their driver.

A run is a shipped config with its keys set (``key=value``) or deleted
(``-key``), with few rounds and points so the check takes seconds; every
pFedVEM run writes a checkpoint every round.  ``{tmp}`` is the harness's
scratch directory, which holds the generated IDX files.

Usage: python scripts/same_outputs.py TMP SIDE, with a tree's src on
PYTHONPATH, writes each run's config to TMP/cfg and runs it through
``fedvem.cli.main`` into TMP/out-SIDE/<run>, all in this one process.
"""

import contextlib
import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from fedvem.cli import main as fvem

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SMOKE, DRIFT = "smoke.cfg", "synth_conceptdrift.cfg"


@dataclass(frozen=True)
class Run:
    name: str
    base: str        # file under configs/
    workers: int
    keys: str        # space-separated key=value to set, -key to delete
    why: str

    def config_text(self, tmp: str) -> str:
        lines = (line.split("#", 1)[0] for line in
                 (CONFIGS / self.base).read_text().splitlines())
        kv = dict(map(str.strip, line.split("=", 1))
                  for line in lines if line.strip())
        for item in self.keys.split():
            if item.startswith("-"):
                del kv[item[1:]]
            else:
                key, value = item.split("=", 1)
                kv[key] = value.format(tmp=tmp)
        return "".join(f"{key} = {value}\n" for key, value in kv.items())


RUNS = [
    Run("smoke", SMOKE, 1, "partition.clients=23 checkpoint_every=1",
        "the smoke config on 23 clients"),
    Run("quantity", SMOKE, 1, "partition.scenario=quantity_only seeds=0,1,2 "
        "checkpoint_every=1", "the quantity_only partition"),
    Run("drift5", DRIFT, 1, "dataset.points_per_subclass=40 "
        "dataset.test_points_per_subclass=10 partition.clients=23 train.T=3 "
        "seeds=0,1,2 checkpoint_every=1", "a 5-class concept_drift config"),
    Run("skew10", DRIFT, 2, "dataset.classes=10 "
        "dataset.subclasses_per_class=1 dataset.points_per_subclass=60 "
        "dataset.test_points_per_subclass=10 partition.scenario=label_skew "
        "partition.clients=23 train.T=3 seeds=0,1,2 "
        "partition.labels_per_client=5 checkpoint_every=1",
        "a 10-class label_skew config on a two-worker pool"),
    Run("fedavg", SMOKE, 1, "scheme=fedavg seeds=0,1,2", "FedAvg"),
    Run("fedprox", SMOKE, 1, "scheme=fedprox seeds=0,1,2",
        "FedProx, which at smoke scale writes FedAvg's bytes"),
    Run("prox", SMOKE, 1, "scheme=fedprox dataset.points_per_subclass=300 "
        "train.T=10 seeds=0,1,2 baseline.lr=0.1",
        "FedProx where the proximal pull changes the reports"),
    Run("local", SMOKE, 1, "scheme=local seeds=0,1,2", "Local"),
    Run("idx", SMOKE, 1, "-dataset.classes -dataset.subclasses_per_class "
        "-dataset.dim -dataset.points_per_subclass "
        "-dataset.test_points_per_subclass -partition.scenario "
        "-partition.clients seeds=0,1 dataset.kind=fmnist "
        "dataset.train_images={tmp}/train-images "
        "dataset.train_labels={tmp}/train-labels "
        "dataset.test_images={tmp}/test-images "
        "dataset.test_labels={tmp}/test-labels partition.scenario=label_skew "
        "partition.clients=23 partition.labels_per_client=5 "
        "checkpoint_every=1",
        "10-class label_skew over 600 + 100 generated 8x8 IDX images"),
    Run("deep", SMOKE, 2, "model.hidden=16,8 partition.clients=23 "
        "seeds=0,1,2 checkpoint_every=1",
        "two hidden layers on a pool: backward into the layer below"),
    Run("deepavg", SMOKE, 1, "scheme=fedavg model.hidden=16,8 seeds=0,1,2",
        "FedAvg's backward through two hidden layers"),
    Run("raggedfedavg", SMOKE, 1, "scheme=fedavg "
        "partition.scenario=quantity_only train.s=1.0 seeds=0,1,2 "
        "baseline.batch=8",
        "one SGD group of 4 clients whose batches differ in size"),
    Run("raggedlocal", SMOKE, 1, "scheme=local "
        "partition.scenario=quantity_only train.s=1.0 seeds=0,1,2 "
        "baseline.batch=8", "the same under Local"),
    Run("split", SMOKE, 1, "scheme=fedavg partition.clients=23 train.s=1.0 "
        "seeds=0,1,2 baseline.batch=4",
        "23 reporters: SGD groups of 10, 10 and 3 ending at different steps"),
    Run("splitprox", SMOKE, 1, "scheme=fedprox "
        "dataset.points_per_subclass=300 partition.clients=23 train.s=1.0 "
        "seeds=0,1,2 baseline.batch=4 baseline.lr=0.1",
        "the same under FedProx: the pull acts on a shrinking prefix"),
    Run("wide", SMOKE, 1, "dataset.dim=160 seeds=0,1 checkpoint_every=1",
        "past 32 dimensions, where a QR of 32 columns gives the centers"),
    Run("uncertainty_only", SMOKE, 1, "partition.clients=23 seeds=0,1 "
        "train.confidence_mode=uncertainty_only checkpoint_every=1",
        "tau with its uncertainty term only"),
    Run("deviation_only", SMOKE, 1, "partition.clients=23 seeds=0,1 "
        "train.confidence_mode=deviation_only checkpoint_every=1",
        "tau with its deviation term only"),
    Run("sparse", SMOKE, 1, "partition.clients=23 train.s=0.05 seeds=0,1,2 "
        "checkpoint_every=1",
        "rounds no client reports in, whose w and theta carry over"),
    Run("sparseavg", SMOKE, 1, "scheme=fedavg partition.clients=23 "
        "train.s=0.05 seeds=0,1,2", "the same under FedAvg"),
]


def main(tmp: str, side: str) -> None:
    (Path(tmp) / "cfg").mkdir(exist_ok=True)
    with open(os.devnull, "w") as devnull:
        for run in RUNS:
            cfg = Path(tmp) / "cfg" / f"{run.name}.cfg"
            cfg.write_text(run.config_text(tmp))
            try:
                with contextlib.redirect_stdout(devnull):
                    code = fvem(["run", "--config", str(cfg), "--workers",
                                 str(run.workers), "--out",
                                 f"{tmp}/out-{side}/{run.name}"])
            except Exception:   # what `python -m fedvem.cli` would die of
                traceback.print_exc()
                code = 1
            if code:
                sys.exit(f"same_outputs: {side} {run.name}: exit {code}")


if __name__ == "__main__":
    main(*sys.argv[1:])
