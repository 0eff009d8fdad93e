"""The benchmark (``perfbench/``) wraps fedvem functions by module and name
and reads their arguments, so renaming one or changing its shape breaks
``perfbench/run.py``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from fedvem import baselines, cli, federation, metrics
from fedvem.data import PartitionSpec, SynthSpec, make_partition, synth_pair

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}"
               for module, names in tracing.ENTRY_POINTS.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"fedvem.{module}"), name, None))]
    assert missing == []
    # the tracer swaps the pool class where run_training looks it up
    assert hasattr(importlib.import_module("fedvem.federation"),
                   "ProcessPoolExecutor")


def test_timed_loops_are_plain_functions():
    # perfbench/seed_run.py clocks a seed's round loop from the first
    # run_round/fedavg_round call to run_training/run_baseline's return; a
    # generator would return before its first round
    for fn in (federation.run_training, federation.run_round,
               baselines.run_baseline, baselines.fedavg_round):
        assert not inspect.isgeneratorfunction(fn), fn.__name__


def test_write_report_takes_the_path_second():
    # the tracer counts metrics.write_report.bytes by the size of args[1]
    params = list(inspect.signature(metrics.write_report).parameters)
    assert params[1] == "path"


def test_client_update_takes_the_client_then_the_broadcast():
    # the tracer counts each client's base-SGD steps by client.id and
    # globals_.t, read from client_update's first two arguments
    params = list(inspect.signature(federation.client_update).parameters)
    assert params[:2] == ["client", "globals_"]


def test_run_round_reads_the_broadcast_first_and_returns_reporters_third():
    # the tracer records args[0].t and result[2] as a round's reporter ids;
    # every client reports at s = 1, so the ids are every client's
    params = list(inspect.signature(federation.run_round).parameters)
    assert params[0] == "globals_"
    train, _ = synth_pair(SynthSpec(classes=2, subclasses_per_class=1, dim=3,
                                    points_per_subclass=8, seed=0))
    part = make_partition(train, PartitionSpec(scenario="iid_equal",
                                               clients=3, seed=0))
    cfg = federation.TrainConfig(T=1, R=1, K=1, s=1.0, hidden=(2,))
    gs, clients, rows = federation.init_state(cfg, train, part)
    result = federation.run_round(gs, clients, rows, cfg)
    assert len(result) == 3 and result[0].t == gs.t + 1
    assert [int(j) for j in result[2]] == [0, 1, 2]
    assert np.array_equal(result[2], federation.select_reporters(cfg, 0, 3))


def test_upload_bytes_are_the_payload_length():
    # the tracer sums len() of each serialize_upload result as upload bytes
    payload = federation.serialize_upload(np.zeros(3), 1.0, np.zeros(4))
    assert isinstance(payload, bytes) and len(payload) == 8 * (3 + 4 + 1)


def test_run_experiment_takes_workers_and_out():
    # perfbench/seed_run.py calls run_experiment(cfg, workers=..., out=...)
    params = inspect.signature(cli.run_experiment).parameters
    assert {"workers", "out"} <= set(params)
