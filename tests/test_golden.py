"""Golden outputs of the smoke run.

Every scheme runs ``configs/smoke.cfg`` and the SHA-256 of its per-seed
report (and, for pFedVEM, of the last checkpoint) must equal the recorded
value, so a refactor that claims to leave the computation alone can prove it
byte for byte.  The hashes were recorded in ``RECORDED_ENV``, the numeric
environment key of ``helpers.numeric_env``.  Another numpy or BLAS build,
OpenBLAS kernel core or numpy dispatch target may round differently and then
needs its own recording; a failure names both keys.

At smoke scale FedProx writes the same report as FedAvg (the proximal pull
does not change any accuracy), so the FedProx unit tests in
``test_baselines.py`` remain the guard on the proximal term itself.

The smoke run has 3 classes, so the head fit is also pinned on its own at
the benchmarks' 5 and 10 classes: the bytes of the fitted (mu, pi) of a
stack of clients with uneven row counts (one with none), and of the local
objective with its gradients.

A second set pins every file a three-seed smoke run writes (per-seed
reports, client CSVs, the summary and, for pFedVEM, every checkpoint),
under each scheme and, for pFedVEM, on one worker and on a pool of two.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fedvem.cli import run_experiment
from fedvem.config import build_config, parse_kv
from fedvem.variational import (IsotropicPrior, VariationalPosterior,
                                fit_posterior, head_loss_closure,
                                mc_objective)

from helpers import numeric_env

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "smoke.cfg"
RECORDED_ENV = ("numpy 2.4.6, scipy-openblas 0.3.31.188.0, core SkylakeX, "
                "exp X86_V4, log X86_V4")

PFEDVEM_JSONL = \
    "279c0ab738d9577c77dd0c3c88dc6c5ba858c24911643f40683699106621069a"
PFEDVEM_ROUND3 = \
    "49b1becb3da3fa11263fee359a9a9915d4b02a42d728816bd3b2c835f5f46807"
BASELINE_JSONL = {
    "fedavg": "5c90e7c1d3593f39a034c883d2cad237aacde0d5f52edd27c4551c1e789473a3",
    "fedprox": "5c90e7c1d3593f39a034c883d2cad237aacde0d5f52edd27c4551c1e789473a3",
    "local": "a7cb43b08208bdf7fba87e9509a33eb0d05e0bf4540e8938a6338583e48fba16",
}

# sha256 of the "<relative path> <sha256>" manifest of every file a run
# with seeds 0,1,2 writes; pFedVEM checkpoints every round
MULTI_SEED_FILES = {
    "pfedvem":
        "bf208768b3f9c28c3e57b479d0a513bb319642ad2d09100ca56203e3a4c107a1",
    "fedavg":
        "1dab291546783572a4a0bfce55e520596154d804b6052948d39e1078a466e546",
    "fedprox":
        "5bb7d029720b292c94f8a7f24a4aa8df8b739bd10494ffecadbf6e3ea32f53ff",
    "local":
        "bd8acdf5cf5c6b9a7e846a118bc2c464723283badf397e6a7aa13bc7d9a71307",
}

HEAD_FIT = {
    5: "0e79e5440b08b4958567a59120e5eb10b5a9afd3187a9a424fd221674d510ea8",
    10: "e4861dbca9dbb867ab767fd75ff7c05d4d6a304394c2aaeff33dd0f6be67199a",
}
HEAD_OBJECTIVE = {
    5: "b631d449540e3b46537daceee3aa301ebb31ac156af07fd1473ddc498a1fccca",
    10: "869c773913d0c43ddf4efae1f85bd8d8c553d3fe6c3d3902275fdc6dbf0c8f84",
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
    """The numeric environment in use, for the failure message; the hashes
    were recorded in ``RECORDED_ENV``."""
    return f"{numeric_env()} (recorded: {RECORDED_ENV})"


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


def manifest(out: Path) -> str:
    """One "<relative path> <sha256>" line per file under ``out``, sorted."""
    return "\n".join(f"{p.relative_to(out)} {sha256(p)}"
                     for p in sorted(out.rglob("*")) if p.is_file())


@pytest.mark.parametrize("scheme,workers", [
    ("pfedvem", 1), ("pfedvem", 2), ("fedavg", 1), ("fedprox", 1),
    ("local", 1),
])
def test_golden_multi_seed_files(tmp_path, scheme, workers):
    out = smoke_run(tmp_path, {"scheme": scheme, "seeds": "0,1,2",
                               "checkpoint_every": "1"}, workers)
    files = manifest(out)
    digest = hashlib.sha256(files.encode()).hexdigest()
    assert digest == MULTI_SEED_FILES[scheme], f"{versions()}\n{files}"


def head_stack(classes: int):
    """A posterior stack, per-row prior and head-loss closure of seven
    clients with 8 features and ``classes`` classes."""
    sizes = [23, 0, 41, 1, 7, 60, 12]
    width = 8
    rng = np.random.default_rng(classes)
    d = classes * (width + 1)
    feats = [np.maximum(rng.standard_normal((n, width)), 0.0) for n in sizes]
    labels = [rng.integers(0, classes, size=n) for n in sizes]
    post = VariationalPosterior(rng.normal(0, 0.5, (len(sizes), d)),
                                rng.normal(-1, 0.5, (len(sizes), d)))
    prior = IsotropicPrior(rng.normal(0, 0.5, d),
                           rng.uniform(0.5, 5.0, len(sizes)))
    return post, prior, head_loss_closure(feats, labels)


@pytest.mark.parametrize("classes", [5, 10])
def test_golden_head_fit(classes):
    post, prior, closure = head_stack(classes)
    rngs = [np.random.default_rng([classes, j]) for j in range(len(post.mu))]
    out = fit_posterior(post, prior, closure, steps=20, lr=0.01, K=5,
                        rngs=rngs)
    digest = hashlib.sha256(out.mu.tobytes() + out.pi.tobytes()).hexdigest()
    assert digest == HEAD_FIT[classes], versions()


@pytest.mark.parametrize("classes", [5, 10])
def test_golden_head_objective(classes):
    post, prior, closure = head_stack(classes)
    noise = np.random.default_rng(classes + 1).standard_normal(
        (len(post.mu), 5, post.d))
    out = mc_objective(post, prior, closure, noise)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()
    assert digest == HEAD_OBJECTIVE[classes], versions()
