"""The benchmark (``perfbench/``) wraps fedvem functions by module and name
and reads their arguments, so renaming one or changing its shape breaks
``perfbench/run.py``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from fedvem import baselines, federation, metrics

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
