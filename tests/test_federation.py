import os
import subprocess
import sys
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedvem
from fedvem import federation, nn, rng as rng_mod
from fedvem.data import Dataset, PartitionSpec, SynthSpec, make_partition, synth_pair
from fedvem.federation import (HEAD_GROUP, ClientState, GlobalState,
                               TrainConfig, TrainingError, aggregate_base,
                               aggregate_heads, client_pool,
                               deserialize_upload, init_state,
                               read_checkpoint, run_round,
                               run_training, select_reporters,
                               serialize_upload, update_clients,
                               write_checkpoint)
from fedvem.nn import InputError
from fedvem.variational import VariationalPosterior, confidence


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

def test_aggregate_heads_equal_confidence_is_mean():
    mus = [np.array([1.0, 2.0]), np.array([3.0, 6.0])]
    out = aggregate_heads(mus, [2.0, 2.0])
    np.testing.assert_allclose(out, [2.0, 4.0])


def test_aggregate_heads_dominant_confidence():
    mus = [np.array([0.0]), np.array([10.0])]
    out = aggregate_heads(mus, [1e-8, 1e8])
    assert out[0] == pytest.approx(10.0, abs=1e-8)


def test_aggregate_heads_single_reporter_identity():
    mu = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(aggregate_heads([mu], [0.37]), mu, rtol=1e-15)


def test_aggregate_heads_rejects_empty_and_mismatched():
    with pytest.raises(InputError):
        aggregate_heads([], [])
    with pytest.raises(InputError):
        aggregate_heads([np.zeros(2), np.zeros(3)], [1.0, 1.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_aggregate_heads_convexity(seed):
    # output lies inside the coordinatewise hull of the inputs
    rng = np.random.default_rng(seed)
    mus = [rng.standard_normal(4) for _ in range(3)]
    taus = rng.uniform(1e-3, 1e3, size=3).tolist()
    out = aggregate_heads(mus, taus)
    stacked = np.stack(mus)
    assert np.all(out >= stacked.min(axis=0) - 1e-12)
    assert np.all(out <= stacked.max(axis=0) + 1e-12)


def test_aggregate_base_weighted_mean():
    th1 = [(np.ones((2, 2)), np.zeros(2))]
    th2 = [(3 * np.ones((2, 2)), np.ones(2))]
    out = aggregate_base([th1, th2], [1, 3])
    np.testing.assert_allclose(out[0][0], 2.5 * np.ones((2, 2)))
    np.testing.assert_allclose(out[0][1], 0.75 * np.ones(2))


def test_aggregate_base_adds_in_reporter_order():
    rng = np.random.default_rng(0)
    shapes = [(4, 3), (2, 4)]
    thetas = [[(rng.standard_normal(s), rng.standard_normal(s[0]))
               for s in shapes] for _ in range(5)]
    thetas[0][0][0][0, 0] = -0.0   # 0 + n * (-0.0) is +0.0, as sum() has it
    ns = [3, 1, 4, 1, 5]
    out = aggregate_base(thetas, ns)
    total = float(sum(ns))
    for i, (w, b) in enumerate(out):
        # sum() runs ((0 + n0 * w0) + n1 * w1) + ..., and so must the server
        assert w.tobytes() == (sum(n * th[i][0] for th, n in zip(thetas, ns))
                               / total).tobytes()
        assert b.tobytes() == (sum(n * th[i][1] for th, n in zip(thetas, ns))
                               / total).tobytes()
    single = aggregate_base(thetas[:1], ns[:1])
    assert single[0][0][0, 0] == 0.0 and not np.signbit(single[0][0][0, 0])


# --------------------------------------------------------------- reporters

def test_select_reporters_extremes():
    rng = np.random.default_rng(0)
    assert select_reporters(10, 0.0, rng).size == 0
    assert select_reporters(10, 1.0, rng).tolist() == list(range(10))


def test_select_reporters_binomial_rate():
    counts = [select_reporters(100, 0.1, np.random.default_rng(s)).size
              for s in range(2000)]
    # mean 10, sd 3; a 2000-draw average sits within ~0.2 of the mean
    assert abs(np.mean(counts) - 10.0) < 0.3


def test_select_reporters_rejects_bad_probability():
    with pytest.raises(InputError):
        select_reporters(5, 1.5, np.random.default_rng(0))


# ------------------------------------------------------------ wire format

def test_upload_roundtrip_and_size():
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(7)
    theta = [(rng.standard_normal((3, 4)), rng.standard_normal(3)),
             (rng.standard_normal((2, 3)), rng.standard_normal(2))]
    buf = serialize_upload(mu, 0.125, theta)
    base_size = sum(w.size + b.size for w, b in theta)
    assert len(buf) == 8 * (7 + base_size + 1)
    mu2, tau2, theta2 = deserialize_upload(buf, 7, theta)
    np.testing.assert_array_equal(mu2, mu)
    assert tau2 == 0.125
    for (w, b), (w2, b2) in zip(theta, theta2):
        np.testing.assert_array_equal(w, w2)
        np.testing.assert_array_equal(b, b2)


def test_upload_rejects_trailing_bytes():
    mu = np.zeros(2)
    theta = [(np.zeros((1, 1)), np.zeros(1))]
    buf = serialize_upload(mu, 1.0, theta) + b"\x00" * 8
    with pytest.raises(InputError):
        deserialize_upload(buf, 2, theta)


# ------------------------------------------------------------- init_state

def test_init_state_posteriors_start_at_broadcast_head():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients = init_state(cfg, train, part)
    assert gs.t == 0
    for c in clients:
        np.testing.assert_array_equal(c.posterior.mu, gs.w)
        np.testing.assert_allclose(c.posterior.sigma,
                                   np.sqrt(cfg.rho0_sq), rtol=1e-12)
        assert c.tau == pytest.approx(1.0 / cfg.rho0_sq)


def test_init_state_is_seed_deterministic():
    train, _, part = tiny_problem()
    gs1, _ = init_state(tiny_config(seed=5), train, part)
    gs2, _ = init_state(tiny_config(seed=5), train, part)
    gs3, _ = init_state(tiny_config(seed=6), train, part)
    np.testing.assert_array_equal(gs1.w, gs2.w)
    assert not np.array_equal(gs1.w, gs3.w)


# ----------------------------------------------------------- update_clients

def test_client_update_round0_uses_initial_variance():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients = init_state(cfg, train, part)
    out = update_clients([clients[0]], gs, cfg)[0]
    assert out.tau == pytest.approx(1.0 / cfg.rho0_sq)


def test_client_update_later_rounds_recompute_confidence():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients = init_state(cfg, train, part)
    gs.t = 3
    expected = confidence(clients[1].posterior, gs.w).tau
    out = update_clients([clients[1]], gs, cfg)[0]
    assert out.tau == pytest.approx(expected)


def test_client_update_moves_posterior_and_base():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients = init_state(cfg, train, part)
    gs.reporters = frozenset({0})
    out = update_clients([clients[0]], gs, cfg)[0]
    assert not np.array_equal(out.posterior.mu, clients[0].posterior.mu)
    assert not np.array_equal(out.theta_local[0][0], gs.theta[0][0])
    # broadcast state must be untouched
    np.testing.assert_array_equal(clients[0].posterior.mu, gs.w)


def test_client_update_zero_rates_freeze_everything():
    train, _, part = tiny_problem()
    cfg = tiny_config(eta=0.0, base_lr=0.0)
    gs, clients = init_state(cfg, train, part)
    gs.reporters = frozenset({0})
    out = update_clients([clients[0]], gs, cfg)[0]
    np.testing.assert_array_equal(out.posterior.mu, clients[0].posterior.mu)
    np.testing.assert_array_equal(out.theta_local[0][0], gs.theta[0][0])


def test_client_update_non_reporter_fits_head_only():
    train, _, part = tiny_problem()
    cfg = tiny_config()
    gs, clients = init_state(cfg, train, part)
    gs.t = 2
    reporter = update_clients([clients[1]],
                              replace(gs, reporters=frozenset({1})), cfg)[0]
    straggler = update_clients([clients[1]], gs, cfg)[0]
    # base-SGD draws come after the head fit's, so the head is unaffected
    np.testing.assert_array_equal(straggler.posterior.mu, reporter.posterior.mu)
    np.testing.assert_array_equal(straggler.posterior.pi, reporter.posterior.pi)
    assert straggler.tau == reporter.tau
    assert straggler.theta_local == []
    assert len(reporter.theta_local) == len(gs.theta)


def test_update_clients_group_equals_one_client_groups():
    # a client's update does not depend on the clients fitted beside it
    train, _, part = tiny_problem(clients=HEAD_GROUP + 3)
    cfg = tiny_config()
    gs, clients = init_state(cfg, train, part)
    gs = replace(gs, t=1, reporters=frozenset({2, HEAD_GROUP + 1}))
    together = update_clients(clients, gs, cfg)
    for c, out in zip(clients, together):
        alone = update_clients([c], gs, cfg)[0]
        np.testing.assert_array_equal(out.posterior.mu, alone.posterior.mu)
        np.testing.assert_array_equal(out.posterior.pi, alone.posterior.pi)
        assert out.tau == alone.tau
        assert len(out.theta_local) == len(alone.theta_local)
        for (w, b), (w1, b1) in zip(out.theta_local, alone.theta_local):
            np.testing.assert_array_equal(w, w1)
            np.testing.assert_array_equal(b, b1)


@pytest.mark.parametrize("stage", ["head_fit", "base_sgd"])
def test_client_update_failure_names_round_and_client(monkeypatch, stage):
    train, _, part = tiny_problem()
    if stage == "head_fit":
        cfg = tiny_config(eta=1e12)  # guaranteed blowup in head training
    else:
        cfg = tiny_config()
        real = nn.backward

        def nonfinite(*args, **kwargs):
            grads = real(*args, **kwargs)
            grads.base[0][0][...] = np.inf
            return grads

        monkeypatch.setattr(nn, "backward", nonfinite)
    gs, clients = init_state(cfg, train, part)
    gs = replace(gs, t=4, reporters=frozenset({0}))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=r"round 4, client 0"):
            update_clients([clients[0]], gs, cfg)


def test_update_clients_failure_in_a_group_names_its_client():
    # only client 2 diverges: its rows overflow the head gradient's norm
    train, _, part = tiny_problem(clients=5)
    cfg = tiny_config()
    gs, clients = init_state(cfg, train, part)
    clients[2] = replace(clients[2], x=clients[2].x * 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=r"round 4, client 2: posterior"):
            update_clients(clients, replace(gs, t=4), cfg)


# --------------------------------------------------------------- run_round

def test_run_round_empty_reporters_carries_state():
    train, _, part = tiny_problem()
    cfg = tiny_config(s=1e-12)
    gs, clients = init_state(cfg, train, part)
    gs2, clients2, reporters = run_round(gs, clients, cfg)
    assert reporters.size == 0
    assert gs2.t == 1
    np.testing.assert_array_equal(gs2.w, gs.w)
    np.testing.assert_array_equal(gs2.theta[0][0], gs.theta[0][0])
    # stragglers still trained locally
    assert not np.array_equal(clients2[0].posterior.mu, clients[0].posterior.mu)


def test_run_round_all_reporters_aggregate():
    train, _, part = tiny_problem()
    cfg = tiny_config(s=1.0)
    gs, clients = init_state(cfg, train, part)
    gs2, clients2, reporters = run_round(gs, clients, cfg)
    assert reporters.tolist() == [0, 1, 2]
    mus = [c.posterior.mu for c in clients2]
    taus = [c.tau for c in clients2]
    np.testing.assert_allclose(gs2.w, aggregate_heads(mus, taus), atol=1e-12)
    ns = [c.n for c in clients2]
    # the returned clients hold no upload: the oracle's bases come from the
    # same round's updates
    updated = update_clients(clients, replace(
        gs, reporters=frozenset(reporters.tolist())), cfg)
    expected_base = aggregate_base([c.theta_local for c in updated], ns)
    np.testing.assert_allclose(gs2.theta[0][0], expected_base[0][0], atol=1e-12)


def test_run_round_single_reporter_adopts_its_head():
    train, _, part = tiny_problem()
    cfg = tiny_config(s=0.5, seed=11)
    gs, clients = init_state(cfg, train, part)
    rng = rng_mod.stream(cfg.seed, rng_mod.TAG_REPORTERS, 0)
    expected = select_reporters(len(clients), cfg.s, rng)
    gs2, clients2, reporters = run_round(gs, clients, cfg)
    assert reporters.tolist() == expected.tolist()
    if reporters.size == 1:
        j = reporters[0]
        np.testing.assert_allclose(gs2.w, clients2[j].posterior.mu, atol=1e-12)


def test_run_round_pool_keeps_the_seed_process_rows():
    train, _, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config(s=0.3)
    gs, clients = init_state(cfg, train, part)
    with client_pool(clients, 2) as pool:
        gp, pooled, _ = run_round(gs, clients, cfg, pool)
    gsr, serial, _ = run_round(gs, clients, cfg)
    for c, p, s in zip(clients, pooled, serial, strict=True):
        assert p.x is c.x and p.y is c.y
        np.testing.assert_array_equal(p.posterior.mu, s.posterior.mu)
        np.testing.assert_array_equal(p.posterior.pi, s.posterior.pi)
        assert p.tau == s.tau
        assert p.theta_local == s.theta_local == []
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
    gs, clients = init_state(cfg, train, part)
    uploads = []   # weakrefs to the base arrays of each upload serialized
    real_serialize = federation.serialize_upload

    def serialize_upload(mu, tau, theta):
        uploads.append([weakref.ref(a) for layer in theta for a in layer])
        alive = sum(any(r() is not None for r in refs) for refs in uploads)
        assert alive <= HEAD_GROUP, f"{alive} uploads alive"
        return real_serialize(mu, tau, theta)

    monkeypatch.setattr(federation, "serialize_upload", serialize_upload)
    if workers == 1:
        gs2, clients2, reporters = run_round(gs, clients, cfg)
    else:
        with client_pool(clients, workers) as pool:
            gs2, clients2, reporters = run_round(gs, clients, cfg, pool)
    assert len(uploads) == len(reporters) == len(clients)
    assert all(r() is None for refs in uploads for r in refs)
    assert all(c.theta_local == [] for c in clients2)


class RecordingPool(ProcessPoolExecutor):
    """A pool that keeps every job it is sent and every job's future."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.jobs, self.futures = [], []

    def submit(self, fn, *job, **kwargs):
        self.jobs.append(job)
        self.futures.append(super().submit(fn, *job, **kwargs))
        return self.futures[-1]


def test_pool_jobs_and_results_carry_no_rows(monkeypatch):
    train, test, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config(T=2, s=0.3)
    pools = []

    def recording_pool(**kwargs):
        pools.append(RecordingPool(**kwargs))
        return pools[-1]

    # run_training starts its pool through the module's name
    monkeypatch.setattr(federation, "ProcessPoolExecutor", recording_pool)
    _, _, pooled = run_training(cfg, train, test, part, workers=2)
    _, _, serial = run_training(cfg, train, test, part, workers=1)
    assert [r.to_record() for r in pooled] == [r.to_record() for r in serial]
    [pool] = pools
    # one job per head group, the clients in order
    n_clients = len(part.sizes)
    per_round = -(-n_clients // HEAD_GROUP)
    assert len(pool.jobs) == len(pool.futures) == cfg.T * per_round
    for t in range(cfg.T):
        jobs = pool.jobs[t * per_round:(t + 1) * per_round]
        assert all(globals_.t == t for _, globals_, _ in jobs)
        assert [c.id for group, _, _ in jobs for c in group] == list(
            range(n_clients))
    for (group, _, _), future in zip(pool.jobs, pool.futures, strict=True):
        results = future.result()
        assert len(results) == len(group)
        for client, res in zip(group, results):
            assert client.x.shape == (0, train.input_dim) and len(client.y) == 0
            assert res.x.shape == (0, train.input_dim) and len(res.y) == 0


def test_run_training_spawned_workers_get_the_rows():
    # spawned workers inherit nothing: the rows reach them through the
    # pool's initializer arguments
    script = (
        "import multiprocessing, sys; multiprocessing.set_start_method('spawn'); "
        "sys.path.insert(0, sys.argv[1]); import test_federation as t; "
        "problem = t.tiny_problem(clients=5); cfg = t.tiny_config(s=0.5); "
        "runs = [t.run_training(cfg, *problem, workers=w)[2] for w in (1, 2)]; "
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
    gs, clients = init_state(cfg, train, part)
    with ProcessPoolExecutor(max_workers=2) as pool:
        with pytest.raises(RuntimeError, match="holds no client rows"):
            run_round(gs, clients, cfg, pool)


_real_update_worker = federation._update_worker


def _worker_dying_on_last_client(group, globals_, cfg):
    """A pool job that kills its worker process when its group holds client
    2 * HEAD_GROUP + 2."""
    if any(c.id == 2 * HEAD_GROUP + 2 for c in group):
        os._exit(1)
    return _real_update_worker(group, globals_, cfg)


def _worker_slow_on_first_group(group, globals_, cfg):
    """A pool job that finishes last when its group is the round's first,
    and logs the first client of its group once done."""
    if group[0].id == 0:
        time.sleep(1.0)
    out = _real_update_worker(group, globals_, cfg)
    with open(os.environ["FEDVEM_TEST_DONE_LOG"], "a") as log:
        log.write(f"{group[0].id}\n")
    return out


def test_run_round_folds_groups_in_client_order_as_they_finish(monkeypatch,
                                                               tmp_path):
    # two workers share three group jobs; the first group's job finishes
    # after the others, and the round still folds the clients in order
    train, _, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config(s=0.5)
    gs, clients = init_state(cfg, train, part)
    serial_gs, serial_clients, serial_reporters = run_round(gs, clients, cfg)
    done_log = tmp_path / "done.log"
    monkeypatch.setenv("FEDVEM_TEST_DONE_LOG", str(done_log))
    # forked workers see the patched job function
    monkeypatch.setattr(federation, "_update_worker",
                        _worker_slow_on_first_group)
    with client_pool(clients, 2) as pool:
        pooled_gs, pooled_clients, pooled_reporters = run_round(
            gs, clients, cfg, pool)
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
    gs, clients = init_state(cfg, train, part)
    # the dying job is the last of three groups, not the first
    assert -(-len(clients) // HEAD_GROUP) == 3
    # forked workers see the patched job function
    monkeypatch.setattr(federation, "_update_worker",
                        _worker_dying_on_last_client)
    with client_pool(clients, 2) as pool:
        with pytest.raises(TrainingError,
                           match=r"^round 3: worker pool failed: "):
            run_round(replace(gs, t=3), clients, cfg, pool)


# ------------------------------------------------------------ run_training

def test_run_training_produces_per_round_reports():
    train, test, part = tiny_problem()
    cfg = tiny_config(T=3, s=1.0)
    gs, clients, reports = run_training(cfg, train, test, part)
    assert gs.t == 3
    assert [r.round for r in reports] == [0, 1, 2]
    for r in reports:
        assert 0.0 <= r.gm_accuracy <= 1.0
        assert r.reporter_count == 3
        assert len(r.pm_accuracies) == 3
        assert abs(sum(r.confidence_ratios) - 1.0) < 1e-9


def test_run_training_rejects_invalid_config():
    train, test, part = tiny_problem()
    with pytest.raises(InputError, match="TrainConfig.s"):
        run_training(tiny_config(s=0.0), train, test, part)


@pytest.mark.parametrize("clients,s", [(3, 1.0), (2 * HEAD_GROUP + 3, 0.3)])
def test_run_training_worker_count_invariance(clients, s):
    # 23 clients are fitted in groups of 10, 10 and 3, one group per pool
    # job, which two workers share; 3 clients are a single job
    jobs = -(-clients // HEAD_GROUP)
    assert jobs >= 2 if clients > HEAD_GROUP else jobs == 1
    train, test, part = tiny_problem(clients=clients)
    cfg = tiny_config(T=2, s=s)
    gs1, clients1, reports1 = run_training(cfg, train, test, part, workers=1)
    gs2, clients2, reports2 = run_training(cfg, train, test, part, workers=2)
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
    uploads = []   # weakrefs to each round's uploads, taken as they are sent
    real_run_round = federation.run_round
    real_serialize = federation.serialize_upload

    def run_round(*args, **kwargs):
        # the last round's uploads are dead before this round starts
        assert not uploads or all(r() is None for r in uploads[-1])
        uploads.append([])
        return real_run_round(*args, **kwargs)

    def serialize_upload(mu, tau, theta):
        uploads[-1].extend(weakref.ref(a) for layer in theta for a in layer)
        return real_serialize(mu, tau, theta)

    def on_round(globals_, clients):
        assert all(c.theta_local == [] for c in clients)

    monkeypatch.setattr(federation, "run_round", run_round)
    monkeypatch.setattr(federation, "serialize_upload", serialize_upload)
    _, clients, _ = run_training(cfg, train, test, part, workers=workers,
                                 on_round=on_round)
    assert len(uploads) == cfg.T
    # no returned client holds an upload, and every upload is dead
    assert all(c.theta_local == [] for c in clients)
    assert uploads[-1] and all(r() is None for r in uploads[-1])


def test_run_training_learns_tiny_problem():
    train, test, part = tiny_problem()
    cfg = tiny_config(T=15, R=5, base_epochs=3, eta=0.05, base_lr=0.05, s=1.0)
    _, _, reports = run_training(cfg, train, test, part)
    assert reports[-1].mean_pm() > reports[0].mean_pm()
    assert reports[-1].mean_pm() > 0.6


# ------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip(tmp_path):
    train, test, part = tiny_problem()
    cfg = tiny_config(T=1, s=1.0)
    path = tmp_path / "round0001.fvem"
    gs, clients, _ = run_training(
        cfg, train, test, part,
        on_round=lambda g, c: write_checkpoint(path, g, c))
    assert path.exists()
    gs2, dumped = read_checkpoint(path)
    assert gs2.t == 1
    np.testing.assert_array_equal(gs2.w, gs.w)
    np.testing.assert_array_equal(gs2.theta[0][0], gs.theta[0][0])
    assert len(dumped) == len(clients)
    for c, d in zip(clients, dumped):
        np.testing.assert_array_equal(d["mu"], c.posterior.mu)
        np.testing.assert_array_equal(d["pi"], c.posterior.pi)
        assert d["tau"] == c.tau


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.fvem"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(InputError, match="magic"):
        read_checkpoint(path)


def _checkpoint_bytes(tmp_path) -> bytes:
    train, test, part = tiny_problem()
    path = tmp_path / "round0001.fvem"
    run_training(tiny_config(T=1, s=1.0), train, test, part,
                 on_round=lambda g, c: write_checkpoint(path, g, c))
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
