import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvem import federation, nn, rng as rng_mod
from fedvem.data import Dataset, PartitionSpec, SynthSpec, make_partition, synth_pair
from fedvem.federation import (HEAD_GROUP, ClientState, GlobalState,
                               TrainConfig, TrainingError, aggregate_base,
                               aggregate_heads, deserialize_upload, init_state,
                               pool_chunksize, read_checkpoint, run_round,
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
    expected_base = aggregate_base([c.theta_local for c in clients2], ns)
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


def test_pool_chunksize_gives_two_workers_two_chunks():
    assert pool_chunksize(1, 2) == 1
    for n in range(2, 500):
        size = pool_chunksize(n, 2)
        assert 1 <= size and -(-n // size) >= 2, n


def test_run_round_pool_keeps_the_seed_process_rows():
    train, _, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config(s=0.3)
    gs, clients = init_state(cfg, train, part)
    with ProcessPoolExecutor(max_workers=2) as pool:
        _, pooled, _ = run_round(gs, clients, cfg, pool)
    _, serial, _ = run_round(gs, clients, cfg)
    for c, p, s in zip(clients, pooled, serial, strict=True):
        assert p.x is c.x and p.y is c.y
        np.testing.assert_array_equal(p.posterior.mu, s.posterior.mu)
        np.testing.assert_array_equal(p.posterior.pi, s.posterior.pi)
        assert p.tau == s.tau
        assert len(p.theta_local) == len(s.theta_local)
        for (wp, bp), (ws, bs) in zip(p.theta_local, s.theta_local):
            np.testing.assert_array_equal(wp, ws)
            np.testing.assert_array_equal(bp, bs)


def _worker_dying_on_last_client(job):
    """A pool job that kills its worker process on client 2 * HEAD_GROUP + 2."""
    client, globals_, cfg = job
    if client.id == 2 * HEAD_GROUP + 2:
        os._exit(1)
    return update_clients([client], globals_, cfg)[0]


def test_run_round_worker_dying_in_a_later_chunk_names_round(monkeypatch):
    train, _, part = tiny_problem(clients=2 * HEAD_GROUP + 3)
    cfg = tiny_config()
    gs, clients = init_state(cfg, train, part)
    # the dying job is in the last chunk, not the first
    assert pool_chunksize(len(clients), 2) < len(clients) - 1
    # forked workers see the patched job function
    monkeypatch.setattr(federation, "_update_worker",
                        _worker_dying_on_last_client)
    with ProcessPoolExecutor(max_workers=2) as pool:
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
    # 23 clients are fitted in groups of 10, 10 and 3 on one worker and one
    # at a time on two, which take them in several chunks of jobs
    assert -(-clients // pool_chunksize(clients, 2)) >= 2
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
