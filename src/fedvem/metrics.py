"""Evaluation and per-round statistics.

PM accuracy = a client's posterior-mean head on its label/subclass-filtered
test data; GM accuracy = the shared (latent head, base) pair on the complete
test set.  Reports are line-delimited JSON records, one per round, with an
optional trailing summary record (mean and SEM across seeds).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .nn import MlpParams, forward


def accuracy(params: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    logits = forward(params, x)
    return float((logits.argmax(axis=1) == np.asarray(y)).mean())


def stats_snapshot(clients, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Confidence ratios tau_j / sum(tau) and deviations ||mu_j - w||^2 / d.

    Raw per-client values; density estimation is left to downstream tooling.
    """
    taus = np.array([c.tau for c in clients], dtype=float)
    ratios = taus / taus.sum()
    d = len(w)
    deviations = np.array(
        [float(((c.posterior.mu - w) ** 2).sum()) / d for c in clients])
    return ratios, deviations


@dataclass
class RoundReport:
    round: int
    gm_accuracy: float
    client_ids: list[int]
    client_sizes: list[int]
    pm_accuracies: list[float | None]   # None flags an empty filtered test set
    confidence_ratios: list[float]
    model_deviations: list[float]
    reporter_count: int
    no_reporters: bool = False

    def mean_pm(self) -> float:
        """Uniform (not size-weighted) mean over clients with a usable test set."""
        vals = [a for a in self.pm_accuracies if a is not None]
        return float(np.mean(vals)) if vals else float("nan")

    def to_record(self) -> dict:
        # the fields themselves, not the deep copy ``asdict`` makes
        return {"type": "round", **vars(self)}

    @classmethod
    def from_record(cls, rec: dict) -> "RoundReport":
        rec = {k: v for k, v in rec.items() if k != "type"}
        return cls(**rec)


def sem(values) -> float:
    """Standard error of the mean with sample (n-1) standard deviation."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(len(values)))


def write_report(reports: list[RoundReport], path, summary: dict | None = None) -> None:
    """One JSON record per round, optionally followed by a summary record."""
    with open(path, "w") as f:
        for rep in reports:
            f.write(json.dumps(rep.to_record()) + "\n")
        if summary is not None:
            f.write(json.dumps({"type": "summary", **summary}) + "\n")


def read_report(path) -> tuple[list[RoundReport], list[dict]]:
    rounds, summaries = [], []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("type") == "round":
                rounds.append(RoundReport.from_record(rec))
            else:
                summaries.append(rec)
    return rounds, summaries


def write_client_csv(path, report: RoundReport) -> None:
    """Per-client accuracy-vs-data-size table (client_id, n_j, pm_accuracy)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["client_id", "n_j", "pm_accuracy"])
        for cid, n, acc in zip(report.client_ids, report.client_sizes,
                               report.pm_accuracies):
            writer.writerow([cid, n, "" if acc is None else repr(acc)])
