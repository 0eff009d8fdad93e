import os
import subprocess
import sys
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedvem
from fedvem import federation, nn
from fedvem.data import Dataset, PartitionSpec, SynthSpec, make_partition, synth_pair
from fedvem.federation import (HEAD_GROUP, ClientState, GlobalState,
                               TrainConfig, TrainingError, aggregate_base,
                               aggregate_heads, client_pool,
                               deserialize_upload, init_state,
                               read_checkpoint, run_round,
                               run_training, select_reporters,
                               serialize_upload, update_clients,
                               write_checkpoint)
from fedvem.nn import InputError, flatten, unflatten
from fedvem.variational import VariationalPosterior, confidence

from helpers import training_reports


def tiny_problem(clients=3, seed=0):
    spec = SynthSpec(classes=3, subclasses_per_class=2, dim=6,
                     points_per_subclass=20, test_points_per_subclass=5,
                     seed=seed)
    train, test = synth_pair(spec)
    part = make_partition(train, PartitionSpec(
        scenario="label_skew", clients=clients, labels_per_client=2, seed=seed))
    return train, test, part


def tiny_config(**kw):
    defaults = dict(T=2, R=2, K=2, eta=0.01, base_lr=0.01, base_epochs=1,
                    base_batch=16, s=0.5, rho0_sq=0.1, seed=0, hidden=(5,))
    defaults.update(kw)
    return TrainConfig(**defaults)


# ------------------------------------------------------------- aggregation

def average_heads(mus, taus):
    """The server's confidence-weighted head mean: each mean folded in
    order through ``aggregate_base``, then divided once by ``aggregate_heads``."""
    heads = None
    for mu, tau in zip(mus, taus, strict=True):
        heads = aggregate_base(heads, mu, tau)
    return aggregate_heads(heads, taus)


def test_aggregate_heads_equal_confidence_is_mean():
    mus = [np.array([1.0, 2.0]), np.array([3.0, 6.0])]
    out = average_heads(mus, [2.0, 2.0])
    np.testing.assert_allclose(out, [2.0, 4.0])


def test_aggregate_heads_dominant_confidence():
    mus = [np.array([0.0]), np.array([10.0])]
    out = average_heads(mus, [1e-8, 1e8])
    assert out[0] == pytest.approx(10.0, abs=1e-8)


def test_aggregate_heads_single_reporter_identity():
    mu = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(average_heads([mu], [0.37]), mu, rtol=1e-15)


def test_aggregate_heads_rejects_no_reporters():
    with pytest.raises(InputError, match="no reporters to aggregate"):
        average_heads([], [])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_aggregate_heads_convexity(seed):
    # output lies inside the coordinatewise hull of the inputs
    rng = np.random.default_rng(seed)
    mus = [rng.standard_normal(4) for _ in range(3)]
    taus = rng.uniform(1e-3, 1e3, size=3).tolist()
    out = average_heads(mus, taus)
    stacked = np.stack(mus)
    assert np.all(out >= stacked.min(axis=0) - 1e-12)
    assert np.all(out <= stacked.max(axis=0) + 1e-12)


def average_bases(thetas, ns):
    """The server's data-size-weighted base mean: each base folded in
    order through ``aggregate_base``, then divided once."""
    sums = None
    for theta, n in zip(thetas, ns, strict=True):
        sums = aggregate_base(sums, flatten(theta), n)
    return unflatten(sums / float(sum(ns)), [w.shape for w, _ in thetas[0]])


def test_aggregate_base_weighted_mean():
    th1 = [(np.ones((2, 2)), np.zeros(2))]
    th2 = [(3 * np.ones((2, 2)), np.ones(2))]
    out = average_bases([th1, th2], [1, 3])
    np.testing.assert_allclose(out[0][0], 2.5 * np.ones((2, 2)))
    np.testing.assert_allclose(out[0][1], 0.75 * np.ones(2))


def test_aggregate_base_adds_in_reporter_order():
    rng = np.random.default_rng(0)
    shapes = [(4, 3), (2, 4)]
    thetas = [[(rng.standard_normal(s), rng.standard_normal(s[0]))
               for s in shapes] for _ in range(5)]
    thetas[0][0][0][0, 0] = -0.0   # 0 + n * (-0.0) is +0.0, as sum() has it
    ns = [3, 1, 4, 1, 5]
    out = average_bases(thetas, ns)
    total = float(sum(ns))
    for i, (w, b) in enumerate(out):
        # sum() runs ((0 + n0 * w0) + n1 * w1) + ..., and so must the server
        assert w.tobytes() == (sum(n * th[i][0] for th, n in zip(thetas, ns))
                               / total).tobytes()
        assert b.tobytes() == (sum(n * th[i][1] for th, n in zip(thetas, ns))
                               / total).tobytes()
    single = average_bases(thetas[:1], ns[:1])
    assert single[0][0][0, 0] == 0.0 and not np.signbit(single[0][0][0, 0])


# --------------------------------------------------------------- reporters

def test_select_reporters_extremes():
    assert select_reporters(TrainConfig(s=0.0), 0, 10).size == 0
    assert select_reporters(TrainConfig(s=1.0), 0, 10).tolist() == list(range(10))


def test_select_reporters_binomial_rate():
    counts = [select_reporters(TrainConfig(s=0.1, seed=s), 0, 100).size
              for s in range(2000)]
    # mean 10, sd 3; a 2000-draw average sits within ~0.2 of the mean
    assert abs(np.mean(counts) - 10.0) < 0.3


def test_select_reporters_rejects_bad_probability():
    with pytest.raises(InputError):
        select_reporters(TrainConfig(s=1.5), 0, 5)


# ------------------------------------------------------------ wire format

def test_upload_roundtrip_and_size():
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(7)
    theta = [(rng.standard_normal((3, 4)), rng.standard_normal(3)),
             (rng.standard_normal((2, 3)), rng.standard_normal(2))]
    buf = serialize_upload(mu, 0.125, flatten(theta))
    base_size = sum(w.size + b.size for w, b in theta)
    assert isinstance(buf, bytes) and len(buf) == 8 * (7 + base_size + 1)
    mu2, tau2, base2 = deserialize_upload(buf, 7, base_size)
    np.testing.assert_array_equal(mu2, mu)
    assert tau2 == 0.125
    theta2 = unflatten(base2, [w.shape for w, _ in theta])
    for (w, b), (w2, b2) in zip(theta, theta2, strict=True):
        np.testing.assert_array_equal(w, w2)
        np.testing.assert_array_equal(b, b2)
    # the mean and the base are views, each folded into its sum at once
    assert mu2.base is not None
    assert base2.shape == (base_size,) and base2.base is not None
    assert serialize_upload(mu2, tau2, base2) == buf


@pytest.mark.parametrize("extra", [8, -1, -8])
def test_upload_rejects_trailing_bytes(extra):
    # a payload 8 bytes too long, or 1 or 8 bytes short, is one InputError
    mu = np.zeros(2)
    buf = serialize_upload(mu, 1.0, np.zeros(2))
    buf = buf + b"\x00" * extra if extra > 0 else buf[:extra]
    with pytest.raises(InputError, match=f"upload payload is {len(buf)} bytes, "
                                         "expected 40"):
        deserialize_upload(buf, 2, 2)


# ------------------------------------------------------------- init_state

def test_init_state_posteriors_start_at_broadcast_head():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    assert gs.t == 0
    for c in clients:
        np.testing.assert_array_equal(c.posterior.mu, gs.w)
        np.testing.assert_allclose(c.posterior.sigma,
                                   np.sqrt(cfg.rho0_sq), rtol=1e-12)
        assert c.tau == pytest.approx(1.0 / cfg.rho0_sq)
    # rows[j] is client j's (x, y)
    assert [len(y) for _, y in rows] == part.sizes
    for (x, y), idx in zip(rows, part.client_indices, strict=True):
        np.testing.assert_array_equal(x, train.images[idx])
        np.testing.assert_array_equal(y, train.labels[idx])


def test_init_state_is_seed_deterministic():
    train, _, part = tiny_problem()
    gs1, _, _ = init_state(tiny_config(seed=5), train, part)
    gs2, _, _ = init_state(tiny_config(seed=5), train, part)
    gs3, _, _ = init_state(tiny_config(seed=6), train, part)
    np.testing.assert_array_equal(gs1.w, gs2.w)
    assert not np.array_equal(gs1.w, gs3.w)


def test_init_state_names_every_config_violation():
    # every scheme's start checks the run config, before any draw
    train, _, part = tiny_problem()
    with pytest.raises(InputError, match=r"^train\.s: .*; train\.K: "):
        init_state(tiny_config(s=0.0, K=0), train, part)


# ----------------------------------------------------------- update_clients

def upload_base(upload, gs):
    """The base layers of a reporter's wire-format ``upload`` against the
    broadcast ``gs``."""
    n_base = sum(w.size + b.size for w, b in gs.theta)
    _, _, base = deserialize_upload(upload, gs.w.size, n_base)
    return unflatten(base, [w.shape for w, _ in gs.theta])


def test_update_clients_reporter_uploads_wire_bytes():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    gs = replace(gs, t=1)
    [(_, none), (out, upload), _] = update_clients(clients, rows, gs,
                                                   frozenset({1}), cfg)
    n_base = sum(w.size + b.size for w, b in gs.theta)
    assert none is None
    assert isinstance(upload, bytes)
    assert len(upload) == 8 * (gs.w.size + n_base + 1)
    mu, tau, _ = deserialize_upload(upload, gs.w.size, n_base)
    assert mu.tobytes() == out.posterior.mu.tobytes() and tau == out.tau


def test_client_update_round0_uses_initial_variance():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    out, upload = update_clients([clients[0]], rows, gs, frozenset(), cfg)[0]
    assert out.tau == pytest.approx(1.0 / cfg.rho0_sq)
    assert upload is None
    # round 0 reads each client's stored tau, which init_state sets
    assert all(c.tau == 1.0 / cfg.rho0_sq for c in clients)
    out, _ = update_clients([replace(clients[0], tau=3.5)], rows, gs,
                            frozenset(), cfg)[0]
    assert out.tau == 3.5


def test_client_update_later_rounds_recompute_confidence():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    gs.t = 3
    expected = confidence(clients[1].posterior, gs.w).tau
    out, _ = update_clients([clients[1]], rows, gs, frozenset(), cfg)[0]
    assert out.tau == pytest.approx(expected)


def test_client_update_moves_posterior_and_base():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    out, upload = update_clients([clients[0]], rows, gs, frozenset({0}),
                                 cfg)[0]
    assert not np.array_equal(out.posterior.mu, clients[0].posterior.mu)
    assert not np.array_equal(upload_base(upload, gs)[0][0], gs.theta[0][0])
    # broadcast state must be untouched
    np.testing.assert_array_equal(clients[0].posterior.mu, gs.w)


def test_client_update_zero_rates_freeze_everything():
    train, _, part = tiny_problem()
    cfg = tiny_config(eta=0.0, base_lr=0.0)
    gs, clients, rows = init_state(cfg, train, part)
    out, upload = update_clients([clients[0]], rows, gs, frozenset({0}),
                                 cfg)[0]
    np.testing.assert_array_equal(out.posterior.mu, clients[0].posterior.mu)
    np.testing.assert_array_equal(upload_base(upload, gs)[0][0],
                                  gs.theta[0][0])


def test_client_update_non_reporter_fits_head_only():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    gs.t = 2
    reporter, upload = update_clients([clients[1]], rows, gs, frozenset({1}),
                                      cfg)[0]
    straggler, no_upload = update_clients([clients[1]], rows, gs, frozenset(),
                                          cfg)[0]
    # base-SGD draws come after the head fit's, so the head is unaffected
    np.testing.assert_array_equal(straggler.posterior.mu, reporter.posterior.mu)
    np.testing.assert_array_equal(straggler.posterior.pi, reporter.posterior.pi)
    assert straggler.tau == reporter.tau
    assert no_upload is None
    assert len(upload_base(upload, gs)) == len(gs.theta)


def test_update_clients_group_equals_one_client_groups():
    # a client's update does not depend on the clients fitted beside it
    train, _, part = tiny_problem(clients=HEAD_GROUP + 3)
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    gs, reporters = replace(gs, t=1), frozenset({2, HEAD_GROUP + 1})
    together = update_clients(clients, rows, gs, reporters, cfg)
    for c, (out, upload) in zip(clients, together, strict=True):
        alone, upload1 = update_clients([c], rows, gs, reporters, cfg)[0]
        np.testing.assert_array_equal(out.posterior.mu, alone.posterior.mu)
        np.testing.assert_array_equal(out.posterior.pi, alone.posterior.pi)
        assert out.tau == alone.tau
        assert (upload is None) == (upload1 is None)
        assert upload == upload1


def test_update_clients_computes_confidence_once_per_group(monkeypatch):
    # one confidence pass on the group's posterior stack, each client's tau
    # equal to its own one-client call
    train, _, part = tiny_problem(clients=HEAD_GROUP)
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    rng = np.random.default_rng(5)
    clients = [replace(c, posterior=VariationalPosterior(
                   c.posterior.mu + rng.normal(0, 0.3, gs.w.size),
                   c.posterior.pi + rng.normal(0, 0.3, gs.w.size)))
               for c in clients]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].mu.shape)
        return confidence(*args, **kwargs)

    monkeypatch.setattr(federation, "confidence", counted)
    out = update_clients(clients, rows, replace(gs, t=1), frozenset(), cfg)
    assert calls == [(HEAD_GROUP, gs.w.size)]
    for c, (new, _) in zip(clients, out, strict=True):
        assert new.tau == confidence(c.posterior, gs.w).tau


@pytest.mark.parametrize("stage", ["head_fit", "base_sgd"])
def test_client_update_failure_names_round_and_client(monkeypatch, stage):
    train, _, part = tiny_problem()
    if stage == "head_fit":
        cfg = tiny_config(eta=1e12)  # guaranteed blowup in head training
    else:
        cfg = tiny_config()
        real = nn.backward

        def nonfinite(*args, **kwargs):
            grads = real(*args, **kwargs)   # (G, ...) stacks, G = 1 here
            grads[0][0][0] = np.inf
            return grads

        monkeypatch.setattr(nn, "backward", nonfinite)
    gs, clients, rows = init_state(cfg, train, part)
    gs = replace(gs, t=4)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=r"round 4, client 0"):
            update_clients([clients[0]], rows, gs, frozenset({0}), cfg)


def test_update_clients_failure_in_a_group_names_its_client():
    # only client 2 diverges: its rows overflow the head gradient's norm
    train, _, part = tiny_problem(clients=5)
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    rows[2] = (rows[2][0] * 1e200, rows[2][1])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=r"round 4, client 2: posterior"):
            update_clients(clients, rows, replace(gs, t=4), frozenset(), cfg)


# --------------------------------------------------------------- run_round

def test_run_round_empty_reporters_carries_state():
    train, _, part = tiny_problem()
    cfg = tiny_config(s=1e-12)
    gs, clients, rows = init_state(cfg, train, part)
    gs2, clients2, reporters = run_round(gs, clients, rows, cfg)
    assert reporters.size == 0
    assert gs2.t == 1
    np.testing.assert_array_equal(gs2.w, gs.w)
    np.testing.assert_array_equal(gs2.theta[0][0], gs.theta[0][0])
    # stragglers still trained locally
    assert not np.array_equal(clients2[0].posterior.mu, clients[0].posterior.mu)


def test_run_round_all_reporters_aggregate():
    train, _, part = tiny_problem()
    cfg = tiny_config(s=1.0)
    gs, clients, rows = init_state(cfg, train, part)
    gs2, clients2, reporters = run_round(gs, clients, rows, cfg)
    assert reporters.tolist() == [0, 1, 2]
    mus = [c.posterior.mu for c in clients2]
    taus = [c.tau for c in clients2]
    np.testing.assert_allclose(gs2.w, average_heads(mus, taus), atol=1e-12)
    ns = [len(y) for _, y in rows]
    # the round spends its uploads: the oracle's bases come from the same
    # round's updates
    updated = update_clients(clients, rows, gs, frozenset(reporters.tolist()),
                             cfg)
    expected_base = average_bases(
        [upload_base(upload, gs) for _, upload in updated], ns)
    np.testing.assert_allclose(gs2.theta[0][0], expected_base[0][0], atol=1e-12)


def test_run_round_single_reporter_adopts_its_head():
    train, _, part = tiny_problem()
    cfg = tiny_config(s=0.5, seed=11)
    gs, clients, rows = init_state(cfg, train, part)
    expected = select_reporters(cfg, 0, len(clients))
    gs2, clients2, reporters = run_round(gs, clients, rows, cfg)
    assert reporters.tolist() == expected.tolist()
    if reporters.size == 1:
        j = reporters[0]
        np.testing.assert_allclose(gs2.w, clients2[j].posterior.mu, atol=1e-12)


def test_run_round_pool_keeps_the_seed_process_rows():
    train, _, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config(s=0.3)
    gs, clients, rows = init_state(cfg, train, part)
    with client_pool(rows, 2) as pool:
        gp, pooled, _ = run_round(gs, clients, rows, cfg, pool)
    gsr, serial, _ = run_round(gs, clients, rows, cfg)
    for c, p, s in zip(clients, pooled, serial, strict=True):
        assert p.id == s.id == c.id
        np.testing.assert_array_equal(p.posterior.mu, s.posterior.mu)
        np.testing.assert_array_equal(p.posterior.pi, s.posterior.pi)
        assert p.tau == s.tau
    # the uploads are spent inside the round: compare what they made
    assert gp.t == gsr.t and gp.w.tobytes() == gsr.w.tobytes()
    assert len(gp.theta) == len(gsr.theta)
    for (wp, bp), (ws, bs) in zip(gp.theta, gsr.theta):
        assert wp.tobytes() == ws.tobytes() and bp.tobytes() == bs.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_round_holds_at_most_one_head_group_of_uploads(workers,
                                                           monkeypatch):
    train, _, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config(s=1.0)
    gs, clients, rows = init_state(cfg, train, part)
    uploads = []   # weakrefs to each upload as the server receives it
    real_serialize = federation.serialize_upload
    real_deserialize = federation.deserialize_upload

    def serialize_upload(mu, tau, base):
        # the same payload as an array, which, unlike bytes, takes weakrefs
        return np.frombuffer(real_serialize(mu, tau, base), dtype=np.uint8)

    def deserialize_upload(buf, d, n_base):
        uploads.append(weakref.ref(buf))
        alive = sum(r() is not None for r in uploads)
        assert alive <= HEAD_GROUP, f"{alive} uploads alive"
        return real_deserialize(buf, d, n_base)

    monkeypatch.setattr(federation, "serialize_upload", serialize_upload)
    monkeypatch.setattr(federation, "deserialize_upload", deserialize_upload)
    if workers == 1:
        gs2, clients2, reporters = run_round(gs, clients, rows, cfg)
    else:
        with client_pool(rows, workers) as pool:
            gs2, clients2, reporters = run_round(gs, clients, rows, cfg, pool)
    assert len(uploads) == len(reporters) == len(clients)
    assert all(r() is None for r in uploads)


class RecordingPool(ProcessPoolExecutor):
    """A pool that keeps every job it is sent and every job's future."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.jobs, self.futures = [], []

    def submit(self, fn, *job, **kwargs):
        self.jobs.append(job)
        self.futures.append(super().submit(fn, *job, **kwargs))
        return self.futures[-1]


def test_pool_sends_one_job_per_head_group_in_client_order(monkeypatch):
    train, test, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config(T=2, s=0.3)
    pools = []

    def recording_pool(**kwargs):
        pools.append(RecordingPool(**kwargs))
        return pools[-1]

    # run_training starts its pool through the module's name
    monkeypatch.setattr(federation, "ProcessPoolExecutor", recording_pool)
    _, _, pooled = training_reports(cfg, train, test, part, workers=2)
    _, _, serial = training_reports(cfg, train, test, part, workers=1)
    assert [r.to_record() for r in pooled] == [r.to_record() for r in serial]
    [pool] = pools
    # one job per head group, the clients in order
    n_clients = len(part.sizes)
    per_round = -(-n_clients // HEAD_GROUP)
    assert len(pool.jobs) == len(pool.futures) == cfg.T * per_round
    for t in range(cfg.T):
        jobs = pool.jobs[t * per_round:(t + 1) * per_round]
        assert all(globals_.t == t for _, globals_, _, _ in jobs)
        # every job carries the round's reporter ids, drawn once
        ids = frozenset(select_reporters(cfg, t, n_clients).tolist())
        assert all(reporters == ids for _, _, reporters, _ in jobs)
        assert [c.id for group, _, _, _ in jobs for c in group] == list(
            range(n_clients))
    for (group, *_), future in zip(pool.jobs, pool.futures, strict=True):
        assert [c.id for c, _ in future.result()] == [c.id for c in group]


def test_pool_starts_no_more_workers_than_head_groups(monkeypatch):
    # 4 clients are one head group, so one job a round: a forked pool
    # starts all its workers at once, and all but one would sit idle
    train, test, part = tiny_problem(clients=4)
    sizes = []

    class SizedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(federation, "ProcessPoolExecutor", SizedPool)
    training_reports(tiny_config(T=1), train, test, part, workers=4)
    assert sizes == [1]


def test_run_training_spawned_workers_get_the_rows():
    # spawned workers inherit nothing: the rows reach them through the
    # pool's initializer arguments
    script = (
        "import multiprocessing, sys; multiprocessing.set_start_method('spawn'); "
        "sys.path.insert(0, sys.argv[1]); import test_federation as t; "
        "problem = t.tiny_problem(clients=5); cfg = t.tiny_config(s=0.5); "
        "runs = [t.training_reports(cfg, *problem, workers=w)[2] "
        "for w in (1, 2)]; "
        "records = [[r.to_record() for r in run] for run in runs]; "
        "assert records[0] == records[1], records; print('same')")
    env = dict(os.environ, PYTHONPATH=str(Path(fedvem.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script,
                           os.path.dirname(__file__)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stdout.split() == ["same"], proc.stderr


def test_pool_without_rows_fails_loudly():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    with ProcessPoolExecutor(max_workers=2) as pool:
        with pytest.raises(RuntimeError, match="holds no client rows"):
            run_round(gs, clients, rows, cfg, pool)


_real_update_worker = federation._update_worker


def _worker_dying_on_last_client(group, globals_, reporters, cfg):
    """A pool job that kills its worker process when its group holds client
    2 * HEAD_GROUP + 2."""
    if any(c.id == 2 * HEAD_GROUP + 2 for c in group):
        os._exit(1)
    return _real_update_worker(group, globals_, reporters, cfg)


def _worker_slow_on_first_group(group, globals_, reporters, cfg):
    """A pool job that finishes last when its group is the round's first,
    and logs the first client of its group once done."""
    if group[0].id == 0:
        time.sleep(1.0)
    out = _real_update_worker(group, globals_, reporters, cfg)
    with open(os.environ["FEDVEM_TEST_DONE_LOG"], "a") as log:
        log.write(f"{group[0].id}\n")
    return out


def test_run_round_folds_groups_in_client_order_as_they_finish(monkeypatch,
                                                               tmp_path):
    # two workers share three group jobs; the first group's job finishes
    # after the others, and the round still folds the clients in order
    train, _, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config(s=0.5)
    gs, clients, rows = init_state(cfg, train, part)
    serial_gs, serial_clients, serial_reporters = run_round(gs, clients, rows, cfg)
    done_log = tmp_path / "done.log"
    monkeypatch.setenv("FEDVEM_TEST_DONE_LOG", str(done_log))
    # forked workers see the patched job function
    monkeypatch.setattr(federation, "_update_worker",
                        _worker_slow_on_first_group)
    with client_pool(rows, 2) as pool:
        pooled_gs, pooled_clients, pooled_reporters = run_round(
            gs, clients, rows, cfg, pool)
    done = [int(line) for line in done_log.read_text().split()]
    assert sorted(done) == [0, HEAD_GROUP, 2 * HEAD_GROUP] and done[-1] == 0
    np.testing.assert_array_equal(pooled_reporters, serial_reporters)
    assert pooled_gs.w.tobytes() == serial_gs.w.tobytes()
    for (w, b), (w1, b1) in zip(pooled_gs.theta, serial_gs.theta, strict=True):
        assert w.tobytes() == w1.tobytes() and b.tobytes() == b1.tobytes()
    assert [c.id for c in pooled_clients] == list(range(len(clients)))
    for c, c1 in zip(pooled_clients, serial_clients, strict=True):
        assert c.posterior.mu.tobytes() == c1.posterior.mu.tobytes()
        assert c.tau == c1.tau


def test_run_round_worker_dying_in_a_later_group_names_round(monkeypatch):
    train, _, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config()
    gs, clients, rows = init_state(cfg, train, part)
    # the dying job is the last of three groups, not the first
    assert -(-len(clients) // HEAD_GROUP) == 3
    # forked workers see the patched job function
    monkeypatch.setattr(federation, "_update_worker",
                        _worker_dying_on_last_client)
    with client_pool(rows, 2) as pool:
        with pytest.raises(TrainingError,
                           match=r"^round 3: worker pool failed: "):
            run_round(replace(gs, t=3), clients, rows, cfg, pool)


# ------------------------------------------------------------ run_training

def test_run_training_produces_per_round_reports():
    train, test, part = tiny_problem()
    cfg = tiny_config(T=3, s=1.0)
    gs, clients, reports = training_reports(cfg, train, test, part)
    assert gs.t == 3
    assert [r.round for r in reports] == [0, 1, 2]
    for r in reports:
        assert 0.0 <= r.gm_accuracy <= 1.0
        assert r.reporter_count == 3
        assert len(r.pm_accuracies) == 3
        assert abs(sum(r.confidence_ratios) - 1.0) < 1e-9


def test_run_training_rejects_invalid_config():
    train, test, part = tiny_problem()
    with pytest.raises(InputError, match="train.s"):
        training_reports(tiny_config(s=0.0), train, test, part)


@pytest.mark.parametrize("clients,s", [(3, 1.0), (2 * HEAD_GROUP + 3, 0.3)])
def test_run_training_worker_count_invariance(clients, s):
    # 23 clients are fitted in groups of 10, 10 and 3, one group per pool
    # job, which two workers share; 3 clients are a single job
    jobs = -(-clients // HEAD_GROUP)
    assert jobs >= 2 if clients > HEAD_GROUP else jobs == 1
    train, test, part = tiny_problem(clients=clients)
    cfg = tiny_config(T=2, s=s)
    gs1, clients1, reports1 = training_reports(cfg, train, test, part,
                                               workers=1)
    gs2, clients2, reports2 = training_reports(cfg, train, test, part,
                                               workers=2)
    np.testing.assert_array_equal(gs1.w, gs2.w)
    assert [r.to_record() for r in reports1] == [r.to_record() for r in reports2]
    for c1, c2 in zip(clients1, clients2, strict=True):
        np.testing.assert_array_equal(c1.posterior.mu, c2.posterior.mu)
        np.testing.assert_array_equal(c1.posterior.pi, c2.posterior.pi)
        assert c1.tau == c2.tau


@pytest.mark.parametrize("workers", [1, 2])
def test_run_training_releases_spent_uploads(workers, monkeypatch):
    train, test, part = tiny_problem()
    cfg = tiny_config(T=3, s=1.0)
    uploads = []   # weakrefs to each round's uploads, taken as they arrive
    real_run_round = federation.run_round
    real_serialize = federation.serialize_upload
    real_deserialize = federation.deserialize_upload

    def run_round(*args, **kwargs):
        # the last round's uploads are dead before this round starts
        assert not uploads or all(r() is None for r in uploads[-1])
        uploads.append([])
        return real_run_round(*args, **kwargs)

    def serialize_upload(mu, tau, base):
        # the same payload as an array, which, unlike bytes, takes weakrefs
        return np.frombuffer(real_serialize(mu, tau, base), dtype=np.uint8)

    def deserialize_upload(buf, d, n_base):
        uploads[-1].append(weakref.ref(buf))
        return real_deserialize(buf, d, n_base)

    monkeypatch.setattr(federation, "run_round", run_round)
    monkeypatch.setattr(federation, "serialize_upload", serialize_upload)
    monkeypatch.setattr(federation, "deserialize_upload", deserialize_upload)
    training_reports(cfg, train, test, part, workers=workers)
    assert len(uploads) == cfg.T
    # every upload is dead once the run returns
    assert uploads[-1] and all(r() is None for r in uploads[-1])


def test_run_training_shuts_its_pool_down_on_return_and_on_failure(
        monkeypatch):
    train, test, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config(T=2, s=0.3)
    shutdowns = []   # one count per pool, in the order the pools start

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.index = len(shutdowns)
            shutdowns.append(0)

        def shutdown(self, *args, **kwargs):
            shutdowns[self.index] += 1
            super().shutdown(*args, **kwargs)

    # run_training starts its pool through the module's name
    monkeypatch.setattr(federation, "ProcessPoolExecutor", CountingPool)
    training_reports(cfg, train, test, part, workers=2)
    assert shutdowns == [1]
    # forked workers see the patched job function
    monkeypatch.setattr(federation, "_update_worker",
                        _worker_dying_on_last_client)
    with pytest.raises(TrainingError, match=r"^round 0: worker pool failed: "):
        training_reports(cfg, train, test, part, workers=2)
    assert shutdowns == [1, 1]


def test_run_training_learns_tiny_problem():
    train, test, part = tiny_problem()
    cfg = tiny_config(T=15, R=5, base_epochs=3, eta=0.05, base_lr=0.05, s=1.0)
    _, _, reports = training_reports(cfg, train, test, part)
    assert reports[-1].mean_pm() > reports[0].mean_pm()
    assert reports[-1].mean_pm() > 0.6


# ------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip(tmp_path):
    train, test, part = tiny_problem()
    cfg = tiny_config(T=1, s=1.0, hidden=(5, 3))   # a base of two layers
    path = tmp_path / "round0001.fvem"
    gs, clients = run_training(
        cfg, train, test, part,
        lambda _, g, c: write_checkpoint(path, g, c))
    assert path.exists()
    gs2, dumped = read_checkpoint(path)
    assert gs2.t == 1
    # the state a round returns is all a checkpoint holds, field by field
    assert [f.name for f in fields(GlobalState)] == ["w", "theta", "t"]
    for f in fields(GlobalState):
        np.testing.assert_equal(getattr(gs2, f.name), getattr(gs, f.name))
    assert len(dumped) == len(clients)
    for c, d in zip(clients, dumped, strict=True):
        assert isinstance(d, ClientState) and d.id == c.id
        np.testing.assert_array_equal(d.posterior.mu, c.posterior.mu)
        np.testing.assert_array_equal(d.posterior.pi, c.posterior.pi)
        assert d.tau == c.tau
    # writing what was read gives the same bytes
    write_checkpoint(tmp_path / "again.fvem", gs2, dumped)
    assert (tmp_path / "again.fvem").read_bytes() == path.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.fvem"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(InputError, match="magic"):
        read_checkpoint(path)


def _checkpoint_bytes(tmp_path) -> bytes:
    train, test, part = tiny_problem()
    path = tmp_path / "round0001.fvem"
    run_training(tiny_config(T=1, s=1.0), train, test, part,
                 lambda _, g, c: write_checkpoint(path, g, c))
    assert [p.name for p in tmp_path.iterdir()] == ["round0001.fvem"]
    return path.read_bytes()


@pytest.mark.parametrize("cut", [1, 8, 100])
def test_checkpoint_rejects_truncated_file(tmp_path, cut):
    raw = _checkpoint_bytes(tmp_path)
    path = tmp_path / "cut.fvem"
    path.write_bytes(raw[:-cut])
    with pytest.raises(InputError, match="cut.fvem"):
        read_checkpoint(path)
    path.write_bytes(raw[:30])   # inside the header
    with pytest.raises(InputError, match="cut.fvem"):
        read_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    raw = _checkpoint_bytes(tmp_path)
    path = tmp_path / "long.fvem"
    path.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(InputError, match="long.fvem"):
        read_checkpoint(path)
