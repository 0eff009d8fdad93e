"""Experiment driver.

    fvem run --config PATH [--workers N] [--out PATH] [--seed-offset N]
    fvem validate --config PATH

For each seed: build the dataset and partition, run the configured scheme,
write one report file per seed plus a cross-seed summary.  Exit codes:
0 success, 1 runtime numeric failure, 2 invalid configuration.
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
from .data import Dataset, load_idx, make_partition, synth_pair
from .federation import TrainingError, run_training, write_checkpoint
from .nn import InputError


def _datasets(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    if cfg.dataset_kind == "fmnist":
        train = load_idx(cfg.train_images, cfg.train_labels)
        test = load_idx(cfg.test_images, cfg.test_labels)
        return train, test
    return synth_pair(replace(cfg.synth, seed=seed))


def run_seed(cfg: ExperimentConfig, seed: int, workers: int = 1,
             checkpoint_dir=None) -> list[metrics.RoundReport]:
    """One seeded end-to-end run of the configured scheme.

    ``cfg`` is left as it is; every section that draws gets ``seed`` in a
    copy.  With a ``checkpoint_dir``, pFedVEM writes a checkpoint every
    ``cfg.checkpoint_every`` rounds.
    """
    train, test = _datasets(cfg, seed)
    partition = make_partition(train, replace(cfg.partition, seed=seed))
    run_cfg = replace(cfg.train, seed=seed)
    if cfg.scheme != "pfedvem":
        return run_baseline(cfg.scheme, run_cfg, cfg.baseline, train, test,
                            partition)

    def checkpoint(globals_, clients):
        if globals_.t % cfg.checkpoint_every == 0:
            write_checkpoint(
                os.path.join(checkpoint_dir, f"round{globals_.t:04d}.fvem"),
                globals_, clients)

    on_round = checkpoint if checkpoint_dir and cfg.checkpoint_every else None
    _, _, reports = run_training(run_cfg, train, test, partition,
                                 workers=workers, on_round=on_round)
    return reports


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   out: str | None = None, seed_offset: int = 0) -> dict:
    """Run every seed, write reports, and return the cross-seed summary."""
    out_dir = out or cfg.out
    os.makedirs(out_dir, exist_ok=True)
    seeds = [s + seed_offset for s in cfg.seeds]
    final_pm, final_gm = [], []
    for seed in seeds:
        ckpt_dir = None
        if cfg.checkpoint_every > 0:
            ckpt_dir = os.path.join(out_dir, f"checkpoints_seed{seed}")
            os.makedirs(ckpt_dir, exist_ok=True)
        reports = run_seed(cfg, seed, workers=workers, checkpoint_dir=ckpt_dir)
        metrics.write_report(reports, os.path.join(out_dir, f"seed{seed}.jsonl"))
        if reports:
            metrics.write_client_csv(
                os.path.join(out_dir, f"seed{seed}_clients.csv"), reports[-1])
            final_pm.append(reports[-1].mean_pm())
            final_gm.append(reports[-1].gm_accuracy)
    summary = {
        "scheme": cfg.scheme,
        "seeds": seeds,
        "mean_pm": float(np.mean(final_pm)) if final_pm else None,
        "sem_pm": metrics.sem(final_pm) if final_pm else None,
        "mean_gm": float(np.mean(final_gm)) if final_gm else None,
        "sem_gm": metrics.sem(final_gm) if final_gm else None,
    }
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
            p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
            p.add_argument("--out", default=None)
            p.add_argument("--seed-offset", type=int, default=0)
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
    if args.command == "validate":
        for v in violations:
            print(v)
        return 0 if not violations else 2
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return 2

    try:
        # numpy warnings would print before the failure line; the explicit
        # finiteness checks are what detect a numeric failure
        with np.errstate(all="ignore"):
            summary = run_experiment(cfg, workers=args.workers, out=args.out,
                                     seed_offset=args.seed_offset)
    except (TrainingError, FloatingPointError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    print(f"scheme={summary['scheme']} mean_pm={summary['mean_pm']} "
          f"mean_gm={summary['mean_gm']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
