"""Golden outputs of the smoke run.

Every scheme runs ``configs/smoke.cfg`` and the SHA-256 of its per-seed
report (and, for pFedVEM, of the last checkpoint) must equal the recorded
value, so a refactor that claims to leave the computation alone can prove it
byte for byte.  The hashes were recorded with numpy 2.4.6 on OpenBLAS
0.3.31; another numpy or BLAS build may round differently and then needs its
own recording.

At smoke scale FedProx writes the same report as FedAvg (the proximal pull
does not change any accuracy), so the FedProx unit tests in
``test_baselines.py`` remain the guard on the proximal term itself.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fedvem.cli import run_experiment
from fedvem.config import build_config, parse_kv

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "smoke.cfg"

PFEDVEM_JSONL = \
    "279c0ab738d9577c77dd0c3c88dc6c5ba858c24911643f40683699106621069a"
PFEDVEM_ROUND3 = \
    "49b1becb3da3fa11263fee359a9a9915d4b02a42d728816bd3b2c835f5f46807"
BASELINE_JSONL = {
    "fedavg": "5c90e7c1d3593f39a034c883d2cad237aacde0d5f52edd27c4551c1e789473a3",
    "fedprox": "5c90e7c1d3593f39a034c883d2cad237aacde0d5f52edd27c4551c1e789473a3",
    "local": "a7cb43b08208bdf7fba87e9509a33eb0d05e0bf4540e8938a6338583e48fba16",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def smoke_run(tmp_path: Path, overrides: dict[str, str],
              workers: int = 1) -> Path:
    """Run the smoke config with some keys replaced; returns the report dir."""
    kv = {**parse_kv(SMOKE.read_text()), **overrides}
    out = tmp_path / "out"
    run_experiment(build_config(kv), workers=workers, out=str(out))
    return out


def versions() -> str:
    """The build in use, for the failure message (recorded on 2.4.6/0.3.31)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_pfedvem_report_and_checkpoint(tmp_path, workers):
    out = smoke_run(tmp_path, {"checkpoint_every": "1"}, workers)
    assert sha256(out / "seed0.jsonl") == PFEDVEM_JSONL, versions()
    assert sha256(out / "checkpoints_seed0" / "round0003.fvem") \
        == PFEDVEM_ROUND3, versions()


@pytest.mark.parametrize("scheme,extra", [
    ("fedavg", {}),
    ("fedprox", {"baseline.mu_prox": "0.1"}),
    ("local", {}),
])
def test_golden_baseline_reports(tmp_path, scheme, extra):
    out = smoke_run(tmp_path, {"scheme": scheme, **extra})
    assert sha256(out / "seed0.jsonl") == BASELINE_JSONL[scheme], versions()
