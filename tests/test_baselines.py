import math

import numpy as np
import pytest

from fedvem import rng as rng_mod
from fedvem.baselines import BaselineConfig, fedavg_round
from fedvem.data import PartitionSpec, SynthSpec, make_partition, synth_pair
from fedvem.federation import TrainConfig, TrainingError
from fedvem.nn import InputError, flatten, init_mlp, sgd_epochs, unflatten

from helpers import (baseline_reports, central_diff, model_grads, rel_err,
                     training_reports)


def tiny_problem(clients=3, seed=0):
    spec = SynthSpec(classes=3, subclasses_per_class=2, dim=6,
                     points_per_subclass=20, test_points_per_subclass=5,
                     seed=seed)
    train, test = synth_pair(spec)
    part = make_partition(train, PartitionSpec(
        scenario="label_skew", clients=clients, labels_per_client=2, seed=seed))
    return train, test, part


def toy_clients(n_clients=3, n=12, dim=4, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((n, dim)), rng.integers(0, classes, size=n))
            for _ in range(n_clients)]


# ------------------------------------------------------- FedProx's pull

def proximal_pull(seed, mu, lr=0.5):
    """(w0, w1, pull): the layers w0 sgd_epochs starts from, the model w1
    after one full-batch step, and the pull ``mu_prox = mu`` adds to the
    second step beside the data gradient at w1."""
    layers = init_mlp(3, (3,), 2, np.random.default_rng(seed))
    (x, y), = toy_clients(n_clients=1, n=8, dim=3, seed=seed)
    w0, shapes = flatten(layers), [w.shape for w, _ in layers]

    def train(epochs):
        return sgd_epochs(layers, [(x, y)], lr, epochs, len(y),
                          [np.random.default_rng(5)], mu_prox=mu)[0]

    w1 = train(1)
    data_grad = flatten(model_grads(unflatten(w1, shapes), x, y))
    return w0, w1, (w1 - train(2)) / lr - data_grad


def test_proximal_grads_zero_at_anchor():
    # the first step starts at the anchor, so the pull leaves it unchanged
    layers = init_mlp(3, (4,), 2, np.random.default_rng(0))
    rows = toy_clients(n_clients=1, n=8, dim=3)

    def first_step(mu_prox):
        return sgd_epochs(layers, rows, 0.5, 1, 8,
                          [np.random.default_rng(5)], mu_prox=mu_prox)[0]

    assert first_step(2.0).tobytes() == first_step(0.0).tobytes()


def test_proximal_grads_linear_in_displacement():
    w0, w1, pull = proximal_pull(seed=1, mu=0.5)
    assert np.any(w1 != w0)
    np.testing.assert_allclose(pull, 0.5 * (w1 - w0), rtol=1e-9, atol=1e-12)


def test_proximal_grads_match_finite_differences():
    mu = 1.7
    w0, w1, pull = proximal_pull(seed=3, mu=mu)

    def penalty(vec):
        return mu / 2 * float(((vec - w0) ** 2).sum())

    numeric = central_diff(penalty, w1)
    assert rel_err(pull, numeric) <= 1e-6


# ------------------------------------------------------------ fedavg rounds

def test_fedavg_round_no_reporters_returns_broadcast():
    params = init_mlp(4, (3,), 2, np.random.default_rng(0))
    out, reporter_count = fedavg_round(params, toy_clients(),
                                       TrainConfig(s=1e-12, seed=0),
                                       BaselineConfig(), t=0)
    assert out is params
    assert reporter_count == 0


@pytest.mark.parametrize("diverging,named", [((1,), 1), ((0, 1), 0)])
def test_fedavg_round_names_the_diverging_client(diverging, named):
    # reporters 0, 1, 2 hold 5, 30 and 12 rows, so the group steps them in
    # the order 1, 2, 0; rows scaled to 1e300 overflow the gradient at the
    # first step.  Of the reporters failing at that step, the first in
    # reporter order is named.
    params = init_mlp(4, (3,), 2, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    clients = [(rng.standard_normal((n, 4)), rng.integers(0, 2, size=n))
               for n in (5, 30, 12)]
    for j in diverging:
        clients[j] = (clients[j][0] * 1e300, clients[j][1])
    bl = BaselineConfig(batch=4)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError,
                           match=rf"^round 2, client {named}: non-finite "
                                 r"gradient in layer \d$"):
            fedavg_round(params, clients, TrainConfig(s=1.0, seed=0), bl, t=2)
        # without the diverging rows the same round trains
        for j in diverging:
            clients[j] = (clients[j][0] * 1e-300, clients[j][1])
        fedavg_round(params, clients, TrainConfig(s=1.0, seed=0), bl, t=2)


def test_gm_report_pm_rates_equal_the_hit_means():
    # one gather and one running sum give each client's hit mean to the
    # bit; an empty PM set stays None
    from fedvem.baselines import _gm_report
    from fedvem.nn import forward
    train, test, _ = tiny_problem()
    model = init_mlp(train.input_dim, (4,), train.classes,
                     np.random.default_rng(2))
    rng = np.random.default_rng(3)
    pm_idx = [np.sort(rng.choice(len(test.labels), size=n, replace=False))
              for n in (7, 0, 30, 1, len(test.labels))]
    report = _gm_report(5, model, [1] * 5, test, (
        np.concatenate(pm_idx).astype(np.intp),
        np.array([len(idx) for idx in pm_idx])), 2)
    hits = forward(model, test.images).argmax(axis=1) == test.labels
    expected = [float(hits[idx].mean()) if len(idx) else None
                for idx in pm_idx]
    assert report.pm_accuracies == expected
    assert report.pm_accuracies[1] is None


def test_fedavg_round_single_client_equals_local_sgd():
    params = init_mlp(4, (3,), 2, np.random.default_rng(0))
    clients = toy_clients(1)
    cfg = TrainConfig(s=1.0, seed=3)
    bl = BaselineConfig(lr=0.05, epochs=2, batch=4)
    out, reporter_count = fedavg_round(params, clients, cfg, bl, t=0)
    assert reporter_count == 1
    rng = rng_mod.stream(cfg.seed, rng_mod.TAG_CLIENT, 0, 0)
    x, y = clients[0]
    expected = sgd_epochs(params, [(x, y)], bl.lr, bl.epochs, bl.batch,
                          [rng])[0]
    np.testing.assert_allclose(flatten(out), expected, atol=1e-15)


def test_fedprox_zero_mu_equals_fedavg():
    params = init_mlp(4, (3,), 2, np.random.default_rng(0))
    clients = toy_clients()
    cfg = TrainConfig(s=1.0, seed=1)
    avg, _ = fedavg_round(params, clients, cfg, BaselineConfig(epochs=1), t=0)
    prox, _ = fedavg_round(params, clients, cfg,
                           BaselineConfig(epochs=1, mu_prox=0.0), t=0)
    np.testing.assert_allclose(prox[-1][0], avg[-1][0], atol=1e-15)


def test_fedprox_large_mu_pins_models_to_broadcast():
    params = init_mlp(4, (3,), 2, np.random.default_rng(0))
    clients = toy_clients()
    cfg = TrainConfig(s=1.0, seed=1)
    prox, _ = fedavg_round(params, clients, cfg,
                           BaselineConfig(epochs=3, lr=0.01, mu_prox=50.0), t=0)
    avg, _ = fedavg_round(params, clients, cfg,
                          BaselineConfig(epochs=3, lr=0.01), t=0)
    drift_prox = float(np.abs(prox[-1][0] - params[-1][0]).max())
    drift_avg = float(np.abs(avg[-1][0] - params[-1][0]).max())
    assert drift_prox < drift_avg


def test_fedavg_draws_pfedvem_reporters():
    # the same seed gives every round the same reporters under both schemes
    train, test, part = tiny_problem(clients=23)
    cfg = TrainConfig(T=5, R=1, K=1, base_epochs=1, s=0.3, seed=9,
                      hidden=(5,))
    _, _, ours = training_reports(cfg, train, test, part)
    theirs = baseline_reports("fedavg", cfg, BaselineConfig(epochs=1), train,
                              test, part)
    counts = [r.reporter_count for r in ours]
    assert len(set(counts)) > 1
    assert [r.reporter_count for r in theirs] == counts


# ------------------------------------------------------------ run_baseline

def test_run_baseline_local_single_report():
    train, test, part = tiny_problem()
    reports = baseline_reports("local", TrainConfig(hidden=(5,), seed=0),
                               BaselineConfig(lr=0.1, epochs=40, batch=16),
                               train, test, part)
    assert len(reports) == 1
    assert math.isnan(reports[0].gm_accuracy)
    assert reports[0].mean_pm() > 0.5


def test_run_baseline_fedavg_improves():
    train, test, part = tiny_problem()
    reports = baseline_reports("fedavg",
                               TrainConfig(T=15, s=1.0, hidden=(5,), seed=0),
                               BaselineConfig(lr=0.05, epochs=3, batch=16),
                               train, test, part)
    assert len(reports) == 15
    assert reports[-1].gm_accuracy > reports[0].gm_accuracy
    assert reports[-1].gm_accuracy > 0.5


def test_run_baseline_is_deterministic():
    train, test, part = tiny_problem()
    cfg = TrainConfig(T=3, s=0.5, hidden=(5,), seed=4)
    bl = BaselineConfig(lr=0.05, epochs=2, batch=16)
    r1 = baseline_reports("fedavg", cfg, bl, train, test, part)
    r2 = baseline_reports("fedavg", cfg, bl, train, test, part)
    assert [r.to_record() for r in r1] == [r.to_record() for r in r2]


def test_run_baseline_rejects_bad_config():
    train, test, part = tiny_problem()
    with pytest.raises(InputError, match="scheme: unknown"):
        baseline_reports("sgd", TrainConfig(), BaselineConfig(), train, test,
                         part)
    with pytest.raises(InputError, match="baseline.mu_prox"):
        baseline_reports("fedprox", TrainConfig(), BaselineConfig(), train,
                         test, part)
    with pytest.raises(InputError, match="train.T"):
        baseline_reports("fedavg", TrainConfig(T=-3), BaselineConfig(), train,
                         test, part)
