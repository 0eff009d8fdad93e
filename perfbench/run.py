#!/usr/bin/env python3
"""fedvem benchmark: end-to-end seed timings and a per-module layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  Each seed of the workload runs in a fresh
process (``seed_run.py``) with BLAS pinned to one thread.  With ``--trace 0``
the benchmark repeats the seed, each time followed by a few set-up-only
processes that stop after the first round, until ``--seconds`` would be
exceeded, and reports the end-to-end metrics.  With ``--trace 1`` it runs
the seed once untraced and once with every fedvem module entry point
wrapped, and reports per-layer metrics.  Every seed's output is checked;
the last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 on a run that measured every metric (``correct`` says whether
every output check passed), 1 if a metric could not be measured, 2 if the
program is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading

from tracing import MODULES, now
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(BENCH_DIR, ".runs")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

PROBE_SHARE = 0.25      # set-up-only processes after each seed, as a
                        # share of that seed's wall time
RUN_LIMIT_S = 170.0     # a benchmark run ends within 180 s, whatever the seed
ACC_TOL = 0.01          # recorded accuracies: exact while the float
                        # operation order is unchanged, this otherwise

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# The end-to-end metrics of BENCHMARK.json, which a change may not worsen
# beyond their bounds.  Set-up time runs to the end of the first round,
# which also pays one-off costs such as starting the pool.  Set-up and the
# later rounds are gated as 90th percentiles: on a shared host the host's
# speed flips between levels from run to run, so medians and seed wall
# times move by a quarter, while the slow level repeats (see README.md).
END_TO_END = [("setup_s", "s"), ("round_p90_ms", "ms"), ("peak_rss_mb", "MB"),
              ("final_pm_acc", "ratio"), ("final_gm_acc", "ratio")]
# Seed-level figures, printed with every run but not gated.
SEED_LEVEL = [("seed_wall_s", "s"), ("seed_wall_high_s", "s"),
              ("seed_wall_samples", "count"),
              ("rounds_per_s", "1/s"), ("cpu_s", "s"), ("failed_share", "ratio")]

_COUNTED = ["variational.fit_posterior", "variational.mc_objective",
            "variational.head_loss", "variational.confidence", "nn.backward",
            "nn.sgd_step", "nn.forward_base", "federation.client_update",
            "data.pm_test_indices", "metrics.accuracy", "rng.stream"]
PER_LAYER = (
    [(f"{n}.calls", "count") for n in _COUNTED]
    + [(f"{n}.s", "s") for n in _COUNTED]
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [("federation.base_sgd.useful_share", "ratio"),
       ("federation.upload.bytes", "B"), ("federation.upload.s", "s"),
       ("federation.aggregate.s", "s"), ("federation.round_report.s", "s"),
       ("baselines.gm_report.s", "s"),
       ("federation.pool.map_s", "s"), ("federation.pool.wait_s", "s"),
       ("federation.pool.bytes_out", "B/round"),
       ("federation.pool.bytes_out.client_rows", "B/round"),
       ("federation.pool.bytes_out.broadcast_globals", "B/round"),
       ("federation.pool.bytes_out.theta_local", "B/round"),
       ("federation.pool.bytes_in", "B/round"),
       ("federation.pool.bytes_in.client_rows", "B/round"),
       ("federation.pool.bytes_in.theta_local", "B/round"),
       ("federation.checkpoint.s", "s"), ("federation.checkpoint.bytes", "B"),
       ("metrics.write_report.s", "s"), ("metrics.write_report.bytes", "B"),
       ("data.synth_pair.s", "s"), ("data.make_partition.s", "s"),
       ("federation.init_state.s", "s"),
       ("round.p50_ms", "ms"), ("round.high_ms", "ms"),
       ("round.samples", "count"),
       ("trace.overhead", "ratio"), ("trace.self_share", "ratio")])


class CheckFailed(Exception):
    """A seed's output failed the benchmark's output check."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# one child process

def run_child(run_dir: str, tag: str, workload, seed: int, deadline: float,
              *, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one seed (or its set-up and first round alone) in a fresh
    process and time it."""
    out = os.path.join(run_dir, tag)
    os.makedirs(out)
    cfg_path = os.path.join(out, "workload.cfg")
    with open(cfg_path, "w") as f:
        f.write(workload.config_text(seed, out))
    cmd = [sys.executable, os.path.join(BENCH_DIR, "seed_run.py"),
           "--config", cfg_path, "--out", out,
           "--workers", str(workload.workers)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **CHILD_ENV}
    with open(os.path.join(out, "stderr.txt"), "w") as err:
        t0 = now()
        proc = subprocess.Popen(cmd, stdout=err, stderr=err, env=env,
                                cwd=ROOT, start_new_session=True)
        killer = threading.Timer(max(deadline - t0, 0.0), _kill_group,
                                 (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)   # no pool worker outlives its seed
    run = {"tag": tag, "out": out, "wall_s": t1 - t0,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode != 0:
        with open(os.path.join(out, "stderr.txt")) as f:
            tail = f.read()[-2000:]
        raise CheckFailed(f"{tag}: exit code {proc.returncode}\n{tail}")
    with open(os.path.join(out, "result.json")) as f:
        run["result"] = json.load(f)
    starts = run["result"]["round_starts"]
    if len(starts) < 2:
        raise CheckFailed(f"{tag}: the second round never started")
    run["setup_s"] = starts[1] - t0
    return run


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# --------------------------------------------------------------------------
# output check

def check_seed(run: dict, workload, seed: int, reference: dict | None) -> dict:
    """Check the seed's JSONL report and return its accuracies and hash."""
    path = os.path.join(run["out"], f"seed{seed}.jsonl")
    with open(path, "rb") as f:
        raw = f.read()
    rounds = [json.loads(line) for line in raw.decode().splitlines()]
    rounds = [r for r in rounds if r.get("type") == "round"]
    if len(rounds) != workload.T:
        raise CheckFailed(f"{run['tag']}: {len(rounds)} round records, "
                          f"expected {workload.T}")
    for rec in rounds:
        accs = [rec["gm_accuracy"]] + [a for a in rec["pm_accuracies"]
                                       if a is not None]
        if not all(isinstance(a, (int, float)) and math.isfinite(a)
                   for a in accs):
            raise CheckFailed(f"{run['tag']}: non-finite accuracy in round "
                              f"{rec['round']}")
    last = rounds[-1]
    pm = [a for a in last["pm_accuracies"] if a is not None]
    got = {"final_pm_acc": sum(pm) / len(pm),
           "final_gm_acc": float(last["gm_accuracy"])}
    summary = run["result"]["summary"]
    for key, skey in (("final_pm_acc", "mean_pm"), ("final_gm_acc", "mean_gm")):
        if not math.isclose(got[key], summary[skey], rel_tol=1e-12):
            raise CheckFailed(f"{run['tag']}: {key} {got[key]} disagrees with "
                              f"the run summary {summary[skey]}")
        if not got[key] > 1.0 / workload.classes:
            raise CheckFailed(f"{run['tag']}: {key} {got[key]} is not above "
                              f"chance")
        if reference is not None and abs(got[key] - reference[key]) > ACC_TOL:
            raise CheckFailed(f"{run['tag']}: {key} {got[key]} differs from "
                              f"the recorded {reference[key]}")
    got["reference"] = "recorded" if reference is not None else "none"
    got["sha256"] = hashlib.sha256(raw).hexdigest()
    return got


def load_reference(workload, seed: int) -> dict | None:
    with open(REFERENCE) as f:
        reference = json.load(f).get(workload.name, {}).get(str(seed))
    if reference is None:
        log(f"WARNING {workload.name} seed {seed}: no recorded accuracies in "
            f"reference.json; the final accuracies are not compared")
    return reference


# --------------------------------------------------------------------------
# machine block

def machine(workload, trace: bool, blas: dict | None) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            **(blas or {}), "git_revision": git_revision(),
            "workers": workload.workers, "trace": trace,
            "child_env": CHILD_ENV}


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next((line.split()[0] for line in f
                         if line.rstrip().endswith(ref)), None)
    except OSError:
        return None


# --------------------------------------------------------------------------
# the two kinds of run

def high_percentile(values: list[float]) -> float:
    """The highest percentile with at least ten samples above it: the 11th
    largest value, or the maximum when there are fewer than eleven."""
    vals = sorted(values)
    return vals[-11] if len(vals) >= 11 else vals[-1]


def round_durations(result: dict) -> list[float]:
    marks = result["round_starts"] + [result["loop_end"]]
    return [b - a for a, b in zip(marks, marks[1:])]


class Tally:
    """Attempted and failed child runs of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args, **kwargs):
        """Call ``fn``, which starts one child run; None if it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except CheckFailed as exc:
            self.fail(str(exc))
            return None

    def fail(self, msg: str) -> None:
        self.failed += 1
        log(f"FAILED {msg}")


def seed_and_check(run_dir, tag, workload, seed, deadline, reference,
                   trace=False):
    run = run_child(run_dir, tag, workload, seed, deadline, trace=trace)
    run["check"] = check_seed(run, workload, seed, reference)
    emit({"run": tag, "wall_s": run["wall_s"], "setup_s": run["setup_s"],
          "cpu_s": run["cpu_s"], "peak_rss_mb": run["peak_rss_mb"],
          **run["check"]})
    return run


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def check_same_outputs(runs: list[dict], tally: Tally) -> None:
    """Runs of one seed must agree: accuracies and report bytes."""
    for run in runs[1:]:
        if run["check"] != runs[0]["check"]:
            tally.fail(f"{run['tag']}: output differs from {runs[0]['tag']} "
                       f"for the same seed")


def untraced(workload, seed: int, seconds: float, deadline: float,
             run_dir: str, tally: Tally) -> dict:
    reference = load_reference(workload, seed)
    runs: list[dict] = []
    probes: list[dict] = []
    start = now()
    while True:
        run = tally.run(seed_and_check, run_dir, f"seed{len(runs)}",
                        workload, seed, deadline, reference)
        if run is None:
            break
        runs.append(run)
        # set-up probes spread over the run, so that set-up time samples
        # the host over the same window as the rounds
        probe_end = now() + PROBE_SHARE * run["wall_s"]
        while True:
            probe = tally.run(run_child, run_dir, f"setup{len(probes)}",
                              workload, seed, deadline, setup_only=True)
            if probe is None:
                break
            emit({"run": probe["tag"], "setup_s": probe["setup_s"]})
            probes.append(probe)
            per_probe = statistics.median(p["wall_s"] for p in probes)
            if now() + per_probe > probe_end:
                break
        typical = (statistics.median(r["wall_s"] for r in runs)
                   * (1 + PROBE_SHARE))
        if (now() - start + typical > seconds
                or now() + 1.5 * typical > deadline):
            break
    if not runs:
        return {}
    check_same_outputs(runs, tally)
    setups = [r["setup_s"] for r in runs + probes]
    walls = [r["wall_s"] for r in runs]
    rates = [workload.T / (r["result"]["loop_end"] - r["result"]["round_starts"][0])
             for r in runs]
    # the first round also pays one-off costs, such as starting the pool
    rounds = [d for r in runs for d in round_durations(r["result"])[1:]]
    # inclusive, so that a high value among few samples is not extrapolated
    setup_p90 = (statistics.quantiles(setups, n=10, method="inclusive")[8]
                 if len(setups) > 1 else setups[0])
    return {"setup_s": setup_p90,
            "round_p90_ms": 1e3 * statistics.quantiles(rounds, n=10)[8],
            "seed_wall_s": statistics.median(walls),
            "seed_wall_high_s": high_percentile(walls),
            "seed_wall_samples": len(walls),
            "rounds_per_s": statistics.median(rates),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "final_pm_acc": runs[0]["check"]["final_pm_acc"],
            "final_gm_acc": runs[0]["check"]["final_gm_acc"],
            "_blas": runs[0]["result"]["blas"]}


def traced(workload, seed: int, deadline: float, run_dir: str,
           tally: Tally) -> dict:
    reference = load_reference(workload, seed)
    plain = tally.run(seed_and_check, run_dir, "untraced", workload, seed,
                      deadline, reference)
    run = tally.run(seed_and_check, run_dir, "traced", workload, seed,
                    deadline, reference, trace=True)
    if plain is None or run is None:
        return {}
    check_same_outputs([plain, run], tally)
    totals = [run["result"]["trace"]]
    for name in sorted(os.listdir(run["out"])):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(run["out"], name)) as f:
                totals.append(json.load(f))
    values = layer_metrics(totals, round_durations(run["result"]))
    values["trace.overhead"] = run["wall_s"] / plain["wall_s"]
    share = max(sum(t["self"].values()) for t in totals) / run["wall_s"]
    values["trace.self_share"] = share
    if share > 1.0:
        tally.fail(f"layer self times sum to {share:.3f} of the traced wall")
    values["_blas"] = run["result"]["blas"]
    return values


def layer_metrics(totals: list[dict], rounds: list[float]) -> dict:
    """Per-layer values from the seed process's and pool workers' totals."""
    def total(kind, name):
        return sum(t[kind].get(name, 0) for t in totals)

    main = totals[0]
    v = {}
    for name in _COUNTED:
        v[f"{name}.calls"] = total("calls", name)
        v[f"{name}.s"] = total("busy", name)
    for module in MODULES:
        v[f"{module}.self_s"] = total("self", module)

    reporters = {int(t): set(r) for t, r in main["reporters"].items()}
    steps = [s for t in totals for s in t["client_steps"]]
    in_updates = sum(n for _, _, n in steps)
    useful = sum(n for t, j, n in steps if j in reporters.get(t, ()))
    # base SGD outside client_update is the baselines', which trains
    # reporters only
    all_steps = v["nn.sgd_step.calls"]
    v["federation.base_sgd.useful_share"] = (
        (useful + all_steps - in_updates) / all_steps if all_steps else 0.0)

    v["federation.upload.bytes"] = total("counters", "federation.upload.bytes")
    v["federation.upload.s"] = (total("busy", "federation.serialize_upload")
                                + total("busy", "federation.deserialize_upload"))
    v["federation.aggregate.s"] = (total("busy", "federation.aggregate_heads")
                                   + total("busy", "federation.aggregate_base"))
    v["federation.round_report.s"] = total("busy", "federation.round_report")
    v["baselines.gm_report.s"] = total("busy", "baselines.gm_report")

    maps = main["counters"].get("federation.pool.maps", 0)
    v["federation.pool.map_s"] = main["busy"].get("federation.pool.map", 0.0)
    worker_busy = sum(t["busy"].get("federation.update_worker", 0.0)
                      for t in totals[1:])
    workers = main["counters"].get("federation.pool.workers", 1)
    v["federation.pool.wait_s"] = (max(v["federation.pool.map_s"]
                                       - worker_busy / workers, 0.0)
                                   if maps else 0.0)
    for name, unit in PER_LAYER:
        if unit == "B/round":
            v[name] = main["counters"].get(name, 0) / maps if maps else 0.0

    v["federation.checkpoint.s"] = total("busy", "federation.write_checkpoint")
    v["federation.checkpoint.bytes"] = total("counters",
                                             "federation.checkpoint.bytes")
    v["metrics.write_report.s"] = total("busy", "metrics.write_report")
    v["metrics.write_report.bytes"] = total("counters",
                                            "metrics.write_report.bytes")
    for name in ("data.synth_pair", "data.make_partition",
                 "federation.init_state"):
        v[f"{name}.s"] = total("busy", name)

    v["round.p50_ms"] = 1e3 * statistics.median(rounds)
    v["round.high_ms"] = 1e3 * high_percentile(rounds)
    v["round.samples"] = len(rounds)
    return v


# --------------------------------------------------------------------------

def bench_one(workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = now() + RUN_LIMIT_S
    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = os.path.join(RUNS_DIR, f"{workload.name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tally = Tally()
    values = (traced(workload, seed, deadline, run_dir, tally) if trace
              else untraced(workload, seed, seconds, deadline, run_dir, tally))
    blas = values.pop("_blas", None)
    emit({"machine": machine(workload, trace, blas)})
    names = PER_LAYER if trace else END_TO_END
    complete = bool(values) and all(n in values for n, _ in names)
    if tally.failed == 0 and complete:
        shutil.rmtree(run_dir)
    else:
        log(f"kept {run_dir} for inspection")
    values["failed_share"] = tally.failed / max(tally.attempted, 1)
    extra = [] if trace else SEED_LEVEL
    if extra:
        emit({"seed_level": {n: {"value": values.get(n), "unit": u}
                             for n, u in extra}})
    log(f"{workload.name} seed {seed}: {tally.attempted} runs")
    for name, unit in names + extra:
        if name in values:
            log(f"  {name:48s} {values[name]:>16.6g} {unit}")
    return {"correct": tally.failed == 0 and complete,
            "attempted": max(tally.attempted, 1),
            "failed": tally.failed if complete else max(tally.failed, 1),
            "metrics": {n: {"value": values[n], "unit": u}
                        for n, u in names if n in values},
            "_complete": complete}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "fedvem", "__init__.py")):
        log(f"fedvem sources not found under {SRC}; run from a checkout "
            f"of the repository")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [bench_one(WORKLOADS[n], args.seed, args.seconds,
                         bool(args.trace)) for n in names]
    complete = all(r.pop("_complete") for r in results)
    for name, res in zip(names, results):
        if len(names) > 1:
            print(f"# {name}")
        print(json.dumps(res), flush=True)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
