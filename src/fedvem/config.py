"""Experiment configuration: flat key-value files with section prefixes.

Example::

    dataset.kind = synth
    partition.scenario = concept_drift
    partition.clients = 50
    scheme = pfedvem
    train.T = 50
    train.eta = 0.001
    seeds = 0,1,2,3,4
    out = reports/synth

Each key sets exactly one field.  `model.hidden` and `train.*` fill the
`TrainConfig` that every scheme reads: the baselines take its `T`, `s` and
`hidden` (Local trains once and ignores `T` and `s`), pFedVEM all of it.
`baseline.*` holds the local SGD of Local, FedAvg and FedProx, and FedProx's
`mu_prox`, which must be positive under `fedprox`.

A float value must be finite: `nan` and `inf` are parse errors naming the
key, as are unknown keys.  Out-of-range values are validation errors:
`validate` checks every `train.*` field whatever the scheme, and returns the
full list of violations, one per bad value, each starting with its key.
Every config is frozen: `build_config` makes it once from the defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from .baselines import SCHEMES, BaselineConfig
from .data import PartitionSpec, SynthSpec
from .federation import TrainConfig

ALL_SCHEMES = ("pfedvem",) + SCHEMES


class ConfigError(ValueError):
    """Unparseable or invalid configuration; message names the key."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_kind: str = "synth"
    # fmnist paths
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    synth: SynthSpec = field(default_factory=SynthSpec)
    partition: PartitionSpec = field(
        default_factory=lambda: PartitionSpec(scenario="iid_equal", clients=2))
    scheme: str = "pfedvem"
    train: TrainConfig = field(default_factory=TrainConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    seeds: tuple = (0,)
    out: str = "reports"
    checkpoint_every: int = 0


def parse_kv(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _convert(key: str, value: str, kind):
    try:
        parsed = kind(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {value!r} as {kind.__name__}") from exc
    if kind is float and not math.isfinite(parsed):
        raise ConfigError(f"{key}: must be finite, got {value!r}")
    return parsed


def _int_tuple(key: str, value: str) -> tuple:
    try:
        return tuple(int(v) for v in value.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {value!r} as int list") from exc


# key -> (target object name, attribute, type)
_SCHEMA = {
    "dataset.kind": ("root", "dataset_kind", str),
    "dataset.train_images": ("root", "train_images", str),
    "dataset.train_labels": ("root", "train_labels", str),
    "dataset.test_images": ("root", "test_images", str),
    "dataset.test_labels": ("root", "test_labels", str),
    "dataset.classes": ("synth", "classes", int),
    "dataset.subclasses_per_class": ("synth", "subclasses_per_class", int),
    "dataset.dim": ("synth", "dim", int),
    "dataset.points_per_subclass": ("synth", "points_per_subclass", int),
    "dataset.test_points_per_subclass": ("synth", "test_points_per_subclass", int),
    "dataset.noise": ("synth", "noise", float),
    "dataset.separation": ("synth", "separation", float),
    "dataset.subclass_spread": ("synth", "subclass_spread", float),
    "partition.scenario": ("partition", "scenario", str),
    "partition.clients": ("partition", "clients", int),
    "partition.labels_per_client": ("partition", "labels_per_client", int),
    "scheme": ("root", "scheme", str),
    "model.hidden": ("train", "hidden", "int_tuple"),
    "train.T": ("train", "T", int),
    "train.R": ("train", "R", int),
    "train.K": ("train", "K", int),
    "train.eta": ("train", "eta", float),
    "train.base_lr": ("train", "base_lr", float),
    "train.base_epochs": ("train", "base_epochs", int),
    "train.base_batch": ("train", "base_batch", int),
    "train.s": ("train", "s", float),
    "train.rho0_sq": ("train", "rho0_sq", float),
    "train.confidence_mode": ("train", "confidence_mode", str),
    "baseline.lr": ("baseline", "lr", float),
    "baseline.epochs": ("baseline", "epochs", int),
    "baseline.batch": ("baseline", "batch", int),
    "baseline.mu_prox": ("baseline", "mu_prox", float),
    "seeds": ("root", "seeds", "int_tuple"),
    "out": ("root", "out", str),
    "checkpoint_every": ("root", "checkpoint_every", int),
}


def build_config(kv: dict[str, str]) -> ExperimentConfig:
    """The defaults with every key's parsed value, built once."""
    parsed: dict[str, dict] = {"root": {}, "synth": {}, "partition": {},
                               "train": {}, "baseline": {}}
    for key, value in kv.items():
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown configuration key")
        target, attr, kind = _SCHEMA[key]
        parsed[target][attr] = (_int_tuple(key, value) if kind == "int_tuple"
                                else _convert(key, value, kind))
    cfg = ExperimentConfig()
    root = parsed.pop("root")
    return replace(cfg, **root, **{name: replace(getattr(cfg, name), **values)
                                   for name, values in parsed.items()})


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return build_config(parse_kv(f.read()))


def validate(cfg: ExperimentConfig) -> list[str]:
    """Every invariant of every referenced type; empty list iff valid."""
    out: list[str] = []
    if cfg.dataset_kind not in ("synth", "fmnist"):
        out.append(f"dataset.kind: unknown dataset kind {cfg.dataset_kind!r}")
    if cfg.dataset_kind == "fmnist":
        for attr, key in [("train_images", "dataset.train_images"),
                          ("train_labels", "dataset.train_labels"),
                          ("test_images", "dataset.test_images"),
                          ("test_labels", "dataset.test_labels")]:
            path = getattr(cfg, attr)
            if not path:
                out.append(f"{key}: required for dataset.kind=fmnist")
            elif not os.path.exists(path):
                out.append(f"{key}: path does not exist: {path}")
        if cfg.partition.scenario == "concept_drift":
            out.append("partition.scenario: concept_drift needs subclass "
                       "annotations, which dataset.kind=fmnist lacks")
    else:
        out.extend(cfg.synth.violations())
    # IDX data's class count is known once loaded; make_partition checks it
    out.extend(cfg.partition.violations(
        None if cfg.dataset_kind == "fmnist" else cfg.synth.classes))
    if cfg.scheme not in ALL_SCHEMES:
        out.append(f"scheme: unknown scheme {cfg.scheme!r}")
    out.extend(cfg.train.violations())
    if cfg.scheme in SCHEMES:
        out.extend(cfg.baseline.violations(cfg.scheme))
    if not cfg.seeds:
        out.append("seeds: at least one seed required")
    elif min(cfg.seeds) < 0:
        out.append(f"seeds: must be >= 0, got {min(cfg.seeds)}")
    if dup := [s for i, s in enumerate(cfg.seeds) if s in cfg.seeds[:i]]:
        out.append(f"seeds: seed {dup[0]} appears more than once")
    if not cfg.out:
        out.append("out: must name an output directory")
    if cfg.checkpoint_every < 0:
        out.append("checkpoint_every: must be >= 0")
    return out
