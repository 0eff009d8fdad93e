"""Experiment driver.

    fvem run --config PATH [--workers N] [--out PATH]
    fvem validate --config PATH
    fvem compare --config PATH --vary KEY=V1,V2,... [--workers N] [--out PATH]

For each seed in the config: load and partition its data (``load_seed``)
and run the configured scheme (``run_seed``), appending one JSONL record
per round as the round ends; then write a cross-seed summary.  ``validate``
loads and partitions every seed as ``run`` does.  ``compare`` runs the
config once per value V of KEY, as ``run`` runs the file with ``KEY = V``,
into ``<out>/KEY=V/``, then prints each variant's final PM and GM (mean +/-
SEM over seeds) and their per-seed differences from the first variant.
Exit codes: 0 success, 1 runtime numeric failure, 2 invalid configuration
or malformed data file; ``compare`` prefixes each line with ``KEY=V: ``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import metrics
from .baselines import run_baseline
from .config import (ConfigError, ExperimentConfig, build_config, parse_kv,
                     validate)
from .data import (Dataset, FormatError, Partition, group_by_client,
                   load_idx, make_partition, synth_pair)
from .federation import TrainingError, run_training, write_checkpoint
from .nn import InputError


def load_seed(cfg: ExperimentConfig, seed: int,
              ) -> tuple[Dataset, Dataset, Partition]:
    """Seed ``seed``'s (train, test, partition), as run and validate read
    them; ``FormatError`` or ``InputError`` if they cannot be trained on."""
    if cfg.dataset_kind == "fmnist":
        train = load_idx(cfg.train_images, cfg.train_labels)
        test = load_idx(cfg.test_images, cfg.test_labels)
        if test.input_dim != train.input_dim:
            raise FormatError(f"{cfg.test_images}: {test.input_dim} pixels per "
                              f"image, training images have {train.input_dim}")
        if test.classes > train.classes:   # a label no head can output
            raise FormatError(f"{cfg.test_labels}: label {test.classes - 1}, "
                              f"training labels lie in [0, {train.classes})")
    else:
        train, test = synth_pair(replace(cfg.synth, seed=seed))
    return train, test, make_partition(train, replace(cfg.partition, seed=seed))


def run_seed(cfg: ExperimentConfig, seed: int, out_dir: str,
             workers: int = 1) -> tuple[float, float] | None:
    """One seeded run of the configured scheme, the only writer of its files
    in ``out_dir``, made once the seed's data loads; returns the final
    (mean PM, GM), or None if no round ran.

    Each round's record is appended to ``seed<s>.jsonl`` as the round ends,
    pFedVEM's checkpoint to ``checkpoints_seed<s>/`` every
    ``cfg.checkpoint_every`` rounds, and ``seed<s>_clients.csv`` after the
    last round.  ``cfg`` is left as it is; every section that draws gets
    ``seed`` in a copy.  The training set is regrouped by client in place,
    so every client's rows are a view of the one array loaded.
    """
    train, test, partition = load_seed(cfg, seed)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"out: cannot create output directory "
                         f"{out_dir!r}: {exc.strerror}") from exc
    train, partition = group_by_client(train, partition)
    run_cfg = replace(cfg.train, seed=seed)
    ckpt_dir = os.path.join(out_dir, f"checkpoints_seed{seed}")
    last = None
    # pool workers fork with this file open; flushing every record keeps
    # their copy of its buffer empty
    with open(os.path.join(out_dir, f"seed{seed}.jsonl"), "w") as f:
        def record(report, *state):   # pFedVEM's state: (globals_, clients)
            nonlocal last
            last = report
            metrics.append_record(f, report.to_record())
            if state and cfg.checkpoint_every and (
                    state[0].t % cfg.checkpoint_every == 0):
                write_checkpoint(os.path.join(
                    ckpt_dir, f"round{state[0].t:04d}.fvem"), *state)

        if cfg.scheme != "pfedvem":
            run_baseline(cfg.scheme, run_cfg, cfg.baseline, train, test,
                         partition, record)
        else:
            if cfg.checkpoint_every:
                os.makedirs(ckpt_dir, exist_ok=True)
            run_training(run_cfg, train, test, partition, record,
                         workers=workers)
    if last is None:
        return None
    metrics.write_client_csv(
        os.path.join(out_dir, f"seed{seed}_clients.csv"), last)
    return last.mean_pm(), last.gm_accuracy


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   out: str | None = None) -> dict:
    """Run every seed into ``out`` (default ``cfg.out``), write the
    cross-seed ``summary.jsonl`` and return the summary."""
    if not cfg.seeds:
        raise InputError("seeds: at least one seed required")
    out_dir = out or cfg.out
    finals = [run_seed(cfg, seed, out_dir, workers) for seed in cfg.seeds]
    summary = {"scheme": cfg.scheme, "seeds": list(cfg.seeds)}
    for i, key in enumerate(("pm", "gm")):
        vals = [final[i] for final in finals if final is not None]
        summary[f"mean_{key}"] = float(np.mean(vals)) if vals else None
        summary[f"sem_{key}"] = metrics.sem(vals) if vals else None
    metrics.write_report([], os.path.join(out_dir, "summary.jsonl"),
                         summary=summary)
    return summary


def _vary(text: str) -> tuple[str, list[str]]:
    """``--vary KEY=V1,V2,...`` as (KEY, values)."""
    key, eq, values = text.partition("=")
    if not (key.strip() and eq):
        raise argparse.ArgumentTypeError(f"expected KEY=V1,V2,..., got {text!r}")
    values = [v.strip() for v in values.split(",")]
    for i, value in enumerate(values):   # each names a directory
        if value in values[:i] or "/" in value:
            raise argparse.ArgumentTypeError(
                f"value {value!r} repeats or holds '/'")
    return key.strip(), values


def _variants(args) -> list[tuple[str, ExperimentConfig, str | None]]:
    """(line prefix, config, output directory) of each run: the file's own
    for run and validate; for compare, one per value V, ``KEY=V: `` and
    ``<out>/KEY=V``, with any ``ConfigError`` naming its variant."""
    with open(args.config) as f:
        kv = parse_kv(f.read())
    if args.command != "compare":
        return [("", build_config(kv), getattr(args, "out", None))]
    key, values = args.vary
    variants = []
    for value in values:
        name = f"{key}={value}"
        try:
            cfg = build_config({**kv, key: value})
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        variants.append((f"{name}: ", cfg, os.path.join(args.out or cfg.out,
                                                        name)))
    return variants


def _cell(values: np.ndarray) -> str:
    if not np.isfinite(values).all():
        return f"{'-':>18}"
    return f"{values.mean():7.4f} +/- {metrics.sem(values):.4f}"


def _print_table(variants) -> None:
    """Each variant's final PM and GM, mean +/- SEM over the seeds as read
    back from its reports, then its per-seed difference from the first
    variant; ``-`` where a value is missing or the seeds are not paired."""
    finals = []   # (seeds, 2) per variant; NaN for a seed no round ran
    for _, cfg, out in variants:
        reports = [metrics.read_report(os.path.join(out, f"seed{s}.jsonl"))[0]
                   for s in cfg.seeds]
        finals.append(np.array([(r[-1].mean_pm(), r[-1].gm_accuracy) if r
                                else (np.nan, np.nan) for r in reports],
                               dtype=float))
    width = max(len(prefix) for prefix, _, _ in variants)
    print(f"{'':{width}}{'PM':>18} {'GM':>18} {'PM - first':>18} "
          f"{'GM - first':>18}")
    for (prefix, cfg, _), final in zip(variants, finals):
        diff = (final - finals[0] if cfg.seeds == variants[0][1].seeds
                else np.full_like(final, np.nan))
        print(f"{prefix[:-2]:{width}}"
              + " ".join(_cell(col) for col in (*final.T, *diff.T)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fvem")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "compare":
            p.add_argument("--vary", required=True, type=_vary)
        if name != "validate":
            p.add_argument("--workers", type=int, default=1)
            p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.command != "validate" and args.workers < 1:
        print(f"--workers: must be >= 1, got {args.workers}", file=sys.stderr)
        return 2

    try:
        variants = _variants(args)
    except FileNotFoundError:
        print(f"config: file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2

    violations = [prefix + v for prefix, cfg, _ in variants
                  for v in validate(cfg)]
    try:
        for prefix, cfg, out in [] if violations else variants:
            if args.command == "validate":
                for seed in cfg.seeds:   # what run reads, failing as run fails
                    load_seed(cfg, seed)
                continue
            # numpy warnings would print before the failure line; the
            # explicit finiteness checks are what detect a numeric failure
            with np.errstate(all="ignore"):
                summary = run_experiment(cfg, workers=args.workers, out=out)
    except (TrainingError, FloatingPointError) as exc:
        print(f"runtime failure: {prefix}{exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        violations = [prefix + str(exc)]
    except InputError as exc:
        violations = [f"config: {prefix}{exc}"]
    for v in violations:
        print(v, file=sys.stdout if args.command == "validate" else sys.stderr)
    if violations or args.command == "validate":
        return 2 if violations else 0
    if args.command == "compare":
        _print_table(variants)
    else:
        print(f"scheme={summary['scheme']} mean_pm={summary['mean_pm']} "
              f"mean_gm={summary['mean_gm']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
