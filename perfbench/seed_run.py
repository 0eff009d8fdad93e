"""One seed of one workload in a fresh process, driven by ``run.py``.

    python3 perfbench/seed_run.py --config CFG --out DIR --workers N
        [--trace] [--setup-only]

Runs ``fedvem.cli.run_experiment`` from the repository's ``src/`` on the
generated config and writes ``DIR/result.json``: the clock reading at the
start of every round and at the end of the round loop, the run summary,
BLAS facts and, with ``--trace``, the span totals of this process (pool
workers write theirs into DIR too).  With ``--setup-only`` the process stops
as the second round begins, to sample set-up and the first round alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

import tracing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class SetupDone(Exception):
    """Raised at the second round of a set-up-only run."""


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def blas_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads()}


def install_markers(marks: dict, setup_only: bool) -> None:
    """Clock the start of every round and the end of the round loop."""
    def round_start(fn):
        def wrapper(*args, **kwargs):
            marks["round_starts"].append(tracing.now())
            if setup_only and len(marks["round_starts"]) == 2:
                raise SetupDone
            return fn(*args, **kwargs)
        return wrapper

    def loop_end(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            marks["loop_end"] = tracing.now()
            return result
        return wrapper

    tracing.patch("federation", "run_round", round_start)
    tracing.patch("baselines", "fedavg_round", round_start)
    tracing.patch("federation", "run_training", loop_end)
    tracing.patch("baselines", "run_baseline", loop_end)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, SRC)
    from fedvem import cli
    from fedvem.config import load_config, validate

    tracer = tracing.install(args.out) if args.trace else None
    marks = {"round_starts": [], "loop_end": None}
    install_markers(marks, args.setup_only)

    cfg = load_config(args.config)
    bad = validate(cfg)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2
    summary = None
    try:
        summary = cli.run_experiment(cfg, workers=args.workers, out=args.out)
    except SetupDone:
        pass
    result = {"round_starts": marks["round_starts"],
              "loop_end": marks["loop_end"], "done": tracing.now(),
              "summary": summary, "blas": blas_info(),
              "trace": tracer.totals() if tracer else None}
    with open(os.path.join(args.out, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
