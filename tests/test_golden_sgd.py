"""Golden parameters of the baselines' mini-batch SGD paths.

The smoke-run report of FedProx equals FedAvg's (the proximal pull changes
no accuracy at that scale), so the report hashes in ``test_golden.py`` do not
pin the proximal term.  These tests hash the float64 bytes of the parameters
that Local's ``sgd_epochs`` call and ``fedavg_round`` return on the
``configs/smoke.cfg`` data instead, from the start ``init_state`` gives
every scheme, so any change to the batch order, the proximal gradient or
the step shows up byte for byte.  Recorded with numpy 2.4.6 on OpenBLAS
0.3.31.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedvem import rng as rng_mod
from fedvem.baselines import fedavg_round
from fedvem.config import load_config
from fedvem.data import make_partition, synth_pair
from fedvem.federation import init_state
from fedvem.nn import sgd_epochs, unflatten_head

from test_golden import versions

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "smoke.cfg"
SEED = 0

LOCAL_PARAMS = \
    "92df92420380b9e43264775f8d749a00c34fc5220cb7f56e1bdeb7c65381be68"
FEDAVG_PARAMS = {
    0.0: "3eca79db0dd6ef67e04750bdd0083efaeec3a3e9f456d9055553da39412a5f99",
    0.1: "c6f5dd88a9537b65b016b3a0c38488ab859b7fc7e531df012982394a1941247e",
}


def smoke_setup():
    """The smoke config, its seed-0 run config, and its client rows and
    initial state from ``init_state``, as every scheme starts."""
    cfg = load_config(SMOKE)
    train, _ = synth_pair(replace(cfg.synth, seed=SEED))
    partition = make_partition(train, replace(cfg.partition, seed=SEED))
    run_cfg = replace(cfg.train, seed=SEED)
    globals_, _, rows = init_state(run_cfg, train, partition)
    return cfg, run_cfg, rows, globals_


def state_layers(globals_) -> list:
    """The state's layers in order: theta's, then the head w lays out."""
    return [*globals_.theta,
            unflatten_head(globals_.w, globals_.theta[-1][0].shape[0])]


def param_bytes(model: list) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                    for layer in model for a in layer)


def test_golden_local_train_params():
    cfg, _, rows, globals_ = smoke_setup()
    bl = cfg.baseline
    digest = hashlib.sha256()
    for j, (x, y) in enumerate(rows):
        rng = rng_mod.stream(SEED, rng_mod.TAG_BASELINE, j)
        row = sgd_epochs(state_layers(globals_), [(x, y)], bl.lr, bl.epochs, bl.batch,
                         [rng])[0]   # flatten's layout: the layers' bytes
        digest.update(row.astype("<f8").tobytes())
    assert digest.hexdigest() == LOCAL_PARAMS, versions()


def fedavg_digest(mu_prox: float) -> str:
    cfg, run_cfg, rows, globals_ = smoke_setup()
    bl = replace(cfg.baseline, mu_prox=mu_prox)
    digest = hashlib.sha256()
    for t in range(run_cfg.T):
        globals_, reporters = fedavg_round(globals_, rows, run_cfg, bl)
        assert len(reporters) > 0 and globals_.t == t + 1
        digest.update(param_bytes(state_layers(globals_)))
    return digest.hexdigest()


def test_golden_fedavg_round_params():
    assert fedavg_digest(0.0) == FEDAVG_PARAMS[0.0], versions()


def test_golden_fedprox_round_params():
    assert fedavg_digest(0.1) == FEDAVG_PARAMS[0.1], versions()
