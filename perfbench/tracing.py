"""Layer spans recorded from outside the program.

The tracer wraps the public entry points of each fedvem module where their
callers look them up: a function imported by name into another module
(``nn.backward`` into ``federation`` and ``baselines``) is replaced in every
module namespace that holds it.  No code under ``src/`` changes.

Each wrapped call is a span with a name and a module.  A span's time counts
towards its entry's busy time (``.s``, nested spans included) and, minus the
time of nested spans, towards its module's self time.  Spans stay in memory;
pool workers write their totals to ``worker-<pid>.json`` in the trace
directory after every job, and the seed process returns its own at the end.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
import types
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

MODULES = ("variational", "nn", "federation", "baselines", "metrics", "data",
           "rng")

# Entry points wrapped as spans named "<module>.<function>", leading
# underscore dropped.
ENTRY_POINTS = {
    "variational": ("fit_posterior", "mc_objective", "head_loss_closure",
                    "confidence"),
    "nn": ("backward", "sgd_step", "forward_base", "forward"),
    "federation": ("run_training", "run_round", "client_update",
                   "_update_worker", "serialize_upload", "deserialize_upload",
                   "aggregate_heads", "aggregate_base", "_round_report",
                   "write_checkpoint", "init_state"),
    "baselines": ("run_baseline", "fedavg_round", "_gm_report"),
    "metrics": ("accuracy", "write_report", "write_client_csv",
                "stats_snapshot"),
    "data": ("synth_pair", "make_partition", "pm_test_indices"),
    "rng": ("stream",),
}

# Self-time labels outside the program's modules: the seed process waiting
# on the pool, and the benchmark's own byte counting inside a run.
POOL = "pool"
BENCH = "bench"


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _fedvem_modules() -> dict:
    import fedvem.cli   # importing the CLI imports every other fedvem module
    return {name: mod for name, mod in vars(fedvem).items()
            if isinstance(mod, types.ModuleType)}


def patch(module_name: str, attr: str, make_wrapper) -> None:
    """Replace ``fedvem.<module_name>.<attr>`` and every alias of it.

    Any fedvem module attribute that is the same object as the original is
    rebound to ``make_wrapper(original)``, so callers that imported the name
    directly see the wrapper too.
    """
    mods = _fedvem_modules()
    original = getattr(mods[module_name], attr)
    wrapper = make_wrapper(original)
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class Tracer:
    """Per-process span totals, counters and per-client records."""

    def __init__(self, trace_dir: str, worker: bool):
        self.trace_dir = trace_dir
        self.reset(worker)

    def reset(self, worker: bool) -> None:
        self.worker = worker
        self.pid = os.getpid()
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.client_steps: list[tuple[int, int, int]] = []   # (t, id, steps)
        self.reporters: dict[int, list[int]] = {}
        self.stack: list[list] = []   # [name, module, start, nested time]

    def enter(self, name: str, module: str) -> None:
        self.stack.append([name, module, now(), 0.0])

    def exit(self) -> None:
        name, module, start, nested = self.stack.pop()
        dur = now() - start
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_time[module] += dur - nested
        if self.stack:
            self.stack[-1][3] += dur
        elif self.worker:
            self.flush()

    def span(self, name: str, fn, module: str | None = None, after=None):
        """Wrap ``fn`` as a span; ``after(args, result)`` runs once the span
        has ended and returns the result handed to the caller."""
        module = module or name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name, module)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            return result if after is None else after(args, result)
        return wrapper

    def totals(self) -> dict:
        return {"pid": self.pid, "calls": dict(self.calls),
                "busy": dict(self.busy), "self": dict(self.self_time),
                "counters": dict(self.counters),
                "client_steps": self.client_steps,
                "reporters": {str(t): r for t, r in self.reporters.items()}}

    def flush(self) -> None:
        path = os.path.join(self.trace_dir, f"worker-{self.pid}.json")
        with open(path + ".tmp", "w") as f:
            json.dump(self.totals(), f)
        os.replace(path + ".tmp", path)


_tracer: Tracer | None = None   # this process's tracer, once installed


def install(trace_dir: str, worker: bool = False) -> Tracer:
    """Wrap every entry point of every fedvem module in this process."""
    global _tracer
    tracer = _tracer = Tracer(trace_dir, worker)

    def count(key, amount):
        def after(args, result):
            tracer.counters[key] += amount(args, result)
            return result
        return after

    def on_round(args, result):
        tracer.reporters[int(args[0].t)] = [int(j) for j in result[2]]
        return result

    def client_update(fn):
        # base-SGD steps per (round, client), to split useful from wasted
        def wrapper(client, globals_, *args, **kwargs):
            before = tracer.calls["nn.sgd_step"]
            result = fn(client, globals_, *args, **kwargs)
            tracer.client_steps.append((int(globals_.t), int(client.id),
                                        tracer.calls["nn.sgd_step"] - before))
            return result
        return functools.wraps(fn)(wrapper)

    after = {
        # the closure's own calls are the head-loss evaluations
        "variational.head_loss_closure":
            lambda args, fn: tracer.span("variational.head_loss", fn),
        "federation.serialize_upload":
            count("federation.upload.bytes", lambda a, r: len(r)),
        "federation.write_checkpoint":
            count("federation.checkpoint.bytes",
                  lambda a, r: os.path.getsize(a[0])),
        "metrics.write_report":
            count("metrics.write_report.bytes",
                  lambda a, r: os.path.getsize(a[1])),
        "federation.run_round": on_round,
    }
    for module, names in ENTRY_POINTS.items():
        for fn_name in names:
            name = f"{module}.{fn_name.lstrip('_')}"
            patch(module, fn_name, functools.partial(
                tracer.span, name, after=after.get(name)))
    patch("federation", "client_update", client_update)
    _fedvem_modules()["federation"].ProcessPoolExecutor = TracedPool
    return tracer


def worker_init(trace_dir: str, initializer=None, initargs=()) -> None:
    """Pool initializer: fresh totals in a forked worker, a new install in a
    spawned one, then the program's own initializer, if it passed one."""
    if _tracer is not None:
        _tracer.reset(worker=True)
    else:
        install(trace_dir, worker=True)
    if initializer is not None:
        initializer(*initargs)


class TracedPool(ProcessPoolExecutor):
    """The federation pool with timed dispatch and computed pickle traffic.

    ``map`` returns a list instead of an iterator; ``run_round`` consumes the
    iterator with ``list`` at once, so the round sees the same results.
    """

    def __init__(self, max_workers=None, mp_context=None, initializer=None,
                 initargs=(), **kwargs):
        self.workers = max_workers
        super().__init__(max_workers, mp_context, initializer=worker_init,
                         initargs=(_tracer.trace_dir, initializer, initargs),
                         **kwargs)

    def map(self, fn, jobs, **kwargs):
        jobs = list(jobs)
        _tracer.enter("federation.pool.map", POOL)
        try:
            results = list(super().map(fn, jobs, **kwargs))
        finally:
            _tracer.exit()
        _tracer.counters["federation.pool.maps"] += 1
        _tracer.counters["federation.pool.workers"] = self.workers
        _tracer.enter("bench.pool_bytes", BENCH)
        try:
            _count_pool_bytes(_tracer.counters, jobs, results)
        finally:
            _tracer.exit()
        return results


def _nbytes(layers) -> int:
    return sum(w.nbytes + b.nbytes for w, b in layers)


def _count_pool_bytes(counters, jobs, results) -> None:
    """Pickled sizes of one round's jobs and results, split by content.

    Client rows and ``theta_local`` are array sizes; the broadcast globals
    are the pickled ``(globals_, cfg)`` that every job carries a copy of.
    """
    key = "federation.pool.bytes"
    for (client, globals_, cfg), res in zip(jobs, results):
        counters[f"{key}_out"] += len(pickle.dumps((client, globals_, cfg)))
        counters[f"{key}_out.client_rows"] += client.x.nbytes + client.y.nbytes
        counters[f"{key}_out.theta_local"] += _nbytes(client.theta_local)
        counters[f"{key}_out.broadcast_globals"] += len(
            pickle.dumps((globals_, cfg)))
        counters[f"{key}_in"] += len(pickle.dumps(res))
        counters[f"{key}_in.client_rows"] += res.x.nbytes + res.y.nbytes
        counters[f"{key}_in.theta_local"] += _nbytes(res.theta_local)
