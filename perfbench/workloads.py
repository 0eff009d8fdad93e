"""The benchmark's workloads: one fedvem config each, parameterised by seed.

Every workload is a flat ``key = value`` config in the format of
``fedvem.config``; the workload seed becomes the config's single ``seeds``
entry, so the program sees only the generated config and that seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# Acceptance-5 shape: 5 classes x 3 subclasses, dim 20, 50 clients.
_DRIFT50_DATA = """\
dataset.kind = synth
dataset.classes = 5
dataset.subclasses_per_class = 3
dataset.dim = 20
dataset.points_per_subclass = 200
dataset.test_points_per_subclass = 50
dataset.noise = 0.3
dataset.separation = 1.0
dataset.subclass_spread = 0.5
partition.scenario = concept_drift
partition.clients = 50
model.hidden = 32
"""

# Fashion-MNIST-shaped synthetic load: 10 classes, dim 784, 100 clients
# holding 5 of the 10 labels each.
_WIDE100_DATA = """\
dataset.kind = synth
dataset.classes = 10
dataset.subclasses_per_class = 1
dataset.dim = 784
dataset.points_per_subclass = 600
dataset.test_points_per_subclass = 100
dataset.noise = 0.3
dataset.separation = 2.0
dataset.subclass_spread = 0.5
partition.scenario = label_skew
partition.clients = 100
partition.labels_per_client = 5
model.hidden = 100
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str      # config text without the seeds/out keys
    T: int           # rounds, also checked against the report
    classes: int
    workers: int

    def config_text(self, seed: int, out: str) -> str:
        return f"{self.config}seeds = {seed}\nout = {out}\n"


WORKLOADS = {w.name: w for w in [
    Workload(
        name="drift50-pfedvem",
        why="acceptance-5 shape on one worker; the head-posterior fit "
            "dominates the run",
        config=_DRIFT50_DATA + """\
scheme = pfedvem
train.T = 50
train.R = 10
train.K = 5
train.eta = 0.01
train.base_lr = 0.01
train.base_epochs = 5
train.base_batch = 50
train.s = 0.1
train.rho0_sq = 0.1
""",
        T=50, classes=5, workers=1),
    Workload(
        name="drift50-fedavg",
        why="same data as drift50-pfedvem run as FedAvg; no head fit, "
            "evaluation and base SGD dominate",
        config=_DRIFT50_DATA + """\
scheme = fedavg
train.T = 1000
train.s = 0.1
baseline.lr = 0.01
baseline.epochs = 5
baseline.batch = 50
""",
        T=1000, classes=5, workers=1),
    # s = 0.2 rather than 0.1: with 10 reporters the final global model
    # depends on which labels the last reporters hold, and its accuracy
    # ranges 0.60-0.98 across seeds; with 20 it stays within 0.90-0.98.
    Workload(
        name="wide100-pfedvem-pool2",
        why="FMNIST-shaped load on a 2-worker pool with a checkpoint every "
            "round; the only workload with pool traffic and BLAS-sized matmuls",
        config=_WIDE100_DATA + """\
scheme = pfedvem
train.T = 10
train.R = 10
train.K = 5
train.eta = 0.01
train.base_lr = 0.05
train.base_epochs = 5
train.base_batch = 50
train.s = 0.2
train.rho0_sq = 0.1
checkpoint_every = 1
""",
        T=10, classes=10, workers=2),
]}
