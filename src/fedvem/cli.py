"""Experiment driver.

    fvem run --config PATH [--workers N] [--out PATH]
    fvem validate --config PATH

For each seed in the config: load and partition its data (``load_seed``)
and run the configured scheme (``run_seed``), appending one JSONL record
per round as the round ends; then write a cross-seed summary.  ``validate``
loads and partitions every seed as ``run`` does.  Exit codes: 0 success,
1 runtime numeric failure, 2 invalid configuration or malformed data file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import metrics
from .baselines import run_baseline
from .config import (ConfigError, ExperimentConfig, load_config, validate)
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
        def record(report):
            nonlocal last
            last = report
            metrics.append_record(f, report.to_record())

        def record_and_checkpoint(report, globals_, clients):
            record(report)
            if cfg.checkpoint_every and globals_.t % cfg.checkpoint_every == 0:
                write_checkpoint(
                    os.path.join(ckpt_dir, f"round{globals_.t:04d}.fvem"),
                    globals_, clients)

        if cfg.scheme != "pfedvem":
            run_baseline(cfg.scheme, run_cfg, cfg.baseline, train, test,
                         partition, record)
        else:
            if cfg.checkpoint_every:
                os.makedirs(ckpt_dir, exist_ok=True)
            run_training(run_cfg, train, test, partition,
                         record_and_checkpoint, workers=workers)
    if last is None:
        return None
    metrics.write_client_csv(
        os.path.join(out_dir, f"seed{seed}_clients.csv"), last)
    return last.mean_pm(), last.gm_accuracy


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   out: str | None = None) -> dict:
    """Run every seed into ``out`` (default ``cfg.out``), write the
    cross-seed ``summary.jsonl`` and return the summary."""
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fvem")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "run":
            p.add_argument("--workers", type=int, default=1)
            p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.command == "run" and args.workers < 1:
        print(f"--workers: must be >= 1, got {args.workers}", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"config: file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2

    violations = validate(cfg)
    try:
        if not violations and args.command == "validate":
            for seed in cfg.seeds:   # what run reads, failing as run fails
                load_seed(cfg, seed)
        elif not violations:
            # numpy warnings would print before the failure line; the
            # explicit finiteness checks are what detect a numeric failure
            with np.errstate(all="ignore"):
                summary = run_experiment(cfg, workers=args.workers,
                                         out=args.out)
    except (TrainingError, FloatingPointError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        violations = [str(exc)]
    except InputError as exc:
        violations = [f"config: {exc}"]
    for v in violations:
        print(v, file=sys.stdout if args.command == "validate" else sys.stderr)
    if violations or args.command == "validate":
        return 2 if violations else 0
    print(f"scheme={summary['scheme']} mean_pm={summary['mean_pm']} "
          f"mean_gm={summary['mean_gm']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
