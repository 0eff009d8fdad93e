"""The benchmark's tracer (``perfbench/tracing.py``) wraps fedvem functions by
module and name, so renaming one breaks ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

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
