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

Each key sets exactly one field.  Every field of a section but the per-seed
`seed` is a key: `dataset.*` sets `SynthSpec`, and `partition.*`, `train.*`
and `baseline.*` their namesakes; `_OTHER_KEYS` names the ten keys that set
a root field or `model.hidden`.  `train.*` and `model.hidden` fill the
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
from typing import get_type_hints

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


# Every section field but the per-seed ``seed`` is the key
# "<prefix>.<field>"; these keys set a root field or a field of another name.
_PREFIXES = {"synth": "dataset", "partition": "partition", "train": "train",
             "baseline": "baseline"}
_OTHER_KEYS = {
    "model.hidden": ("train", "hidden"),
    "dataset.kind": ("root", "dataset_kind"),
    **{f"dataset.{attr}": ("root", attr) for attr in
       ("train_images", "train_labels", "test_images", "test_labels")},
    **{key: ("root", key) for key in ("scheme", "seeds", "out",
                                      "checkpoint_every")},
}


def _schema() -> dict[str, tuple]:
    """key -> (target, field, parser), the parser read from the field's
    annotation: int, float, str, or tuple for an int list."""
    hints = {"root": get_type_hints(ExperimentConfig)}
    hints.update((t, get_type_hints(hints["root"][t])) for t in _PREFIXES)
    keys = {f"{prefix}.{attr}": (target, attr)
            for target, prefix in _PREFIXES.items() for attr in hints[target]
            if attr != "seed" and (target, attr) not in _OTHER_KEYS.values()}
    keys.update(_OTHER_KEYS)
    for key, (target, attr) in keys.items():
        kind = hints[target][attr]
        if kind not in (int, float, str, tuple):
            raise TypeError(f"{key}: no parser for a {kind} field")
        keys[key] = (target, attr, kind)
    return keys


_SCHEMA = _schema()


def build_config(kv: dict[str, str]) -> ExperimentConfig:
    """The defaults with every key's parsed value, built once."""
    parsed: dict[str, dict] = {"root": {}, **{t: {} for t in _PREFIXES}}
    for key, value in kv.items():
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown configuration key")
        target, attr, kind = _SCHEMA[key]
        parsed[target][attr] = (_int_tuple(key, value) if kind is tuple
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
