"""Reference schemes: Local, FedAvg, FedProx.

All three share pFedVEM's MLP, partition and seeded initialization, and
train by ``nn.sgd_epochs``, ``federation.HEAD_GROUP`` clients at a time
(``_train``), into flat rows; FedProx adds only its ``mu_prox``.  FedAvg
and FedProx also share its reporter draw (``federation.select_reporters``)
and fold the rows by its weighted fold (``federation.aggregate_base``), so
paired comparisons isolate the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import metrics, rng as rng_mod
from .data import Dataset, Partition, client_rows, pm_test_indices
from .federation import (HEAD_GROUP, TrainConfig, TrainingError,
                         aggregate_base, select_reporters)
from .nn import (InputError, Layer, NumericError, forward, init_mlp,
                 sgd_epochs, unflatten)

SCHEMES = ("local", "fedavg", "fedprox")


@dataclass(frozen=True)
class BaselineConfig:
    """The ``baseline.*`` section; rounds, reporting, seed and width come
    from the shared ``TrainConfig``."""
    lr: float = 1e-2
    epochs: int = 5            # R, local epochs per round (Local: total epochs)
    batch: int = 50
    mu_prox: float = 0.0       # FedProx proximal constant

    def violations(self, scheme: str) -> list[str]:
        out = []
        if self.lr < 0:
            out.append("baseline.lr: must be >= 0")
        if self.epochs < 1:
            out.append("baseline.epochs: must be >= 1")
        if self.batch < 1:
            out.append("baseline.batch: must be >= 1")
        if scheme == "fedprox" and not self.mu_prox > 0:
            out.append(f"baseline.mu_prox: fedprox needs mu_prox > 0, "
                       f"got {self.mu_prox}")
        elif self.mu_prox < 0:
            out.append("baseline.mu_prox: must be >= 0")
        return out


def _train(layers: list[Layer], clients_xy: list, ids, stream,
           bl: BaselineConfig, where: str):
    """(j, flat model row) for each client j of ``ids`` in order, trained
    from ``layers`` by ``bl`` on ``stream(j)``, HEAD_GROUP at a time."""
    for start in range(0, len(ids), HEAD_GROUP):
        group = ids[start:start + HEAD_GROUP]
        try:
            yield from zip(group, sgd_epochs(
                layers, [clients_xy[j] for j in group], bl.lr, bl.epochs,
                bl.batch, [stream(j) for j in group], mu_prox=bl.mu_prox))
        except NumericError as exc:
            raise TrainingError(
                f"{where}client {group[exc.row]}: {exc}") from exc


def fedavg_round(theta_full: list[Layer],
                 clients_xy: list[tuple[np.ndarray, np.ndarray]],
                 cfg: TrainConfig, bl: BaselineConfig,
                 t: int) -> tuple[list[Layer], int]:
    """One round: reporters run local SGD from the broadcast, server averages.

    Returns the new global model and the reporter count.  With
    ``bl.mu_prox > 0`` local gradients carry the proximal pull towards the
    broadcast (FedProx); FedAvg is the case ``mu_prox = 0``.
    The reporters are pFedVEM's (``select_reporters``) for a given seed.
    Non-reporting clients are stateless here, so their training is skipped.
    """
    reporters = select_reporters(cfg, t, len(clients_xy))
    if len(reporters) == 0:
        return theta_full, 0
    sums = None
    for j, row in _train(
            theta_full, clients_xy, reporters,
            lambda j: rng_mod.stream(cfg.seed, rng_mod.TAG_CLIENT, t, int(j)),
            bl, f"round {t}, "):
        sums = aggregate_base(sums, row, len(clients_xy[j][1]))
    total = float(sum(len(clients_xy[j][1]) for j in reporters))
    return (unflatten(sums / total, [w.shape for w, _ in theta_full]),
            len(reporters))


def _gm_report(t: int, model: list[Layer], sizes: list[int], test_ds: Dataset,
               pm_idx: tuple[np.ndarray, np.ndarray],
               reporter_count: int) -> metrics.RoundReport:
    """One forward of the global model over the test set serves every client:
    client j's PM accuracy is the hit rate on its PM test rows.  ``pm_idx``
    holds every client's row indices end to end and each one's count; a hit
    count is an exact integer, so count / n has the bits of the mean."""
    idx, counts = pm_idx
    hits = forward(model, test_ds.images).argmax(axis=1) == test_ds.labels
    running = np.concatenate(([0], np.cumsum(hits[idx])))
    ends = np.cumsum(counts)
    rates = (running[ends] - running[ends - counts]) / np.maximum(counts, 1)
    pm = [rate if n else None for rate, n in zip(rates.tolist(), counts)]
    return metrics.round_report(t, float(hits.mean()), pm, sizes,
                                reporter_count)


def run_baseline(scheme: str, cfg: TrainConfig, bl: BaselineConfig,
                 train_ds: Dataset, test_ds: Dataset, partition: Partition,
                 on_round: Callable[[metrics.RoundReport], None]) -> None:
    """Run a baseline end to end, handing each round's report to
    ``on_round`` as the round ends.

    ``cfg`` supplies the rounds ``T``, the reporting probability ``s``, the
    seed and the hidden widths, as for pFedVEM; ``bl`` the local SGD.
    For `local`, a single report is produced after per-client training; its
    pm_accuracies are the clients' own models on their filtered test sets.
    For `fedavg`/`fedprox`, pm_accuracies hold the global model applied to
    each client's filtered test set; only `fedprox` reads ``bl.mu_prox``.
    """
    if scheme not in SCHEMES:
        raise InputError(f"scheme: unknown baseline scheme {scheme!r}")
    bad = cfg.violations() + bl.violations(scheme)
    if bad:
        raise InputError("; ".join(bad))
    init_rng = rng_mod.stream(cfg.seed, rng_mod.TAG_INIT)
    params0 = init_mlp(train_ds.input_dim, tuple(cfg.hidden), train_ds.classes,
                       init_rng)
    clients_xy = [client_rows(train_ds, ix) for ix in partition.client_indices]
    pm_idx = [pm_test_indices(partition, test_ds, j)
              for j in range(len(clients_xy))]

    if scheme != "fedprox":
        bl = replace(bl, mu_prox=0.0)
    if scheme == "local":
        shapes = [w.shape for w, _ in params0]
        pm = [metrics.accuracy(unflatten(row, shapes),
                               test_ds.images[pm_idx[j]],
                               test_ds.labels[pm_idx[j]])
              if len(pm_idx[j]) else None
              for j, row in _train(
                  params0, clients_xy, range(len(clients_xy)),
                  lambda j: rng_mod.stream(cfg.seed, rng_mod.TAG_BASELINE, j),
                  bl, "")]
        on_round(metrics.round_report(0, float("nan"), pm, partition.sizes, 0))
        return

    pm_rows = (np.concatenate(pm_idx).astype(np.intp),
               np.array([len(idx) for idx in pm_idx]))
    params = params0
    for t in range(cfg.T):
        params, reporter_count = fedavg_round(params, clients_xy, cfg, bl, t)
        on_round(_gm_report(t, params, partition.sizes, test_ds, pm_rows,
                            reporter_count))
