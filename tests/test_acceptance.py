"""End-to-end acceptance suite.

One test per release criterion; each prints a single PASS/FAIL line with the
measured quantity (visible under ``pytest -s`` or in failure output).  The
dataset-backed reproduction is skipped honestly when the IDX files are not
available in this environment.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from fedvem import federation
from fedvem.baselines import BaselineConfig
from fedvem.data import (Dataset, PartitionSpec, SynthSpec, load_idx,
                         make_partition, slice_sizes, synth_pair)
from fedvem.federation import TrainConfig, select_reporters
from fedvem.metrics import sem, write_report
from fedvem.nn import (cross_entropy, flatten, forward, forward_base, init_mlp,
                       unflatten)
from fedvem.variational import (IsotropicPrior, VariationalPosterior,
                                confidence, head_loss_closure, kl_to_prior,
                                mc_objective)

from helpers import (baseline_reports, central_diff, model_grads, rel_err,
                     training_reports)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. gradient correctness: MC local objective and proximal objective vs
#    central finite differences on 100+ coordinates.

def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(11)

    base = init_mlp(6, (8,), 7, rng)[:-1]       # feature width 8
    d = 7 * (8 + 1)                              # 63 head coords, 126 with pi
    batch = rng.standard_normal((12, 6))
    labels = rng.integers(0, 7, size=12)
    post = VariationalPosterior(mu=rng.standard_normal(d) * 0.3,
                                pi=rng.uniform(-1.5, 0.5, size=d))
    prior = IsotropicPrior(center=rng.standard_normal(d) * 0.3, tau=1.7)
    noise = rng.standard_normal((3, d))

    # the objective of one client, as a stack of one
    closure = head_loss_closure([forward_base(base, batch)], [labels])
    _, g_mu, g_pi = mc_objective(
        VariationalPosterior(post.mu[None], post.pi[None]), prior, closure,
        noise[None])
    analytic = np.concatenate([g_mu[0], g_pi[0]])

    def objective(vec):
        p = VariationalPosterior(mu=vec[None, :d], pi=vec[None, d:])
        return mc_objective(p, prior, closure, noise[None])[0][0]

    numeric = central_diff(objective, np.concatenate([post.mu, post.pi]))
    err_mc = rel_err(analytic, numeric)

    params = init_mlp(6, (8,), 7, rng)           # 127 parameters
    anchor = init_mlp(6, (8,), 7, rng)
    mu_prox = 0.8
    a_vec = flatten(anchor)
    # the data gradient plus FedProx's pull mu * (w - w0), as sgd_epochs adds
    grads = (flatten(model_grads(params, batch, labels))
             + mu_prox * (flatten(params) - a_vec))

    def prox_objective(vec):
        p = unflatten(vec, [w.shape for w, _ in params])
        return (cross_entropy(forward(p, batch), labels)
                + mu_prox / 2 * float(((vec - a_vec) ** 2).sum()))

    numeric_px = central_diff(prox_objective, flatten(params))
    err_px = rel_err(grads, numeric_px)

    elapsed = time.monotonic() - start
    coords = analytic.size + numeric_px.size
    ok = err_mc <= 1e-4 and err_px <= 1e-4 and elapsed < 60
    verdict(1, "gradient correctness", ok,
            f"mc rel err {err_mc:.2e}, prox rel err {err_px:.2e}, "
            f"{coords} coords, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. closed-form KL vs a 10^6-sample Monte-Carlo estimate of E_q[ln q - ln p].

def test_criterion_2_kl_oracle():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng([22, i])
        d = int(rng.integers(1, 11))
        post = VariationalPosterior(mu=rng.standard_normal(d),
                                    pi=rng.uniform(-1.0, 1.0, size=d))
        prior = IsotropicPrior(center=rng.standard_normal(d),
                               tau=float(rng.uniform(0.3, 3.0)))
        exact = kl_to_prior(post, prior)[0]

        sigma = post.sigma
        x = post.mu + sigma * rng.standard_normal((1_000_000, d))
        ln_q = (-0.5 * ((x - post.mu) / sigma) ** 2 - np.log(sigma)
                - 0.5 * np.log(2 * np.pi)).sum(axis=1)
        rho2 = 1.0 / prior.tau
        ln_p = (-0.5 * (x - prior.center) ** 2 / rho2 - 0.5 * np.log(rho2)
                - 0.5 * np.log(2 * np.pi)).sum(axis=1)
        mc = float((ln_q - ln_p).mean())
        worst = max(worst, abs(mc - exact) / abs(exact))
    ok = worst <= 0.01
    verdict(2, "closed-form KL vs MC oracle", ok,
            f"worst rel err {worst:.4f} over 20 instances")


# ---------------------------------------------------------------------------
# 3. closed-form server updates vs independent numerical maximization of the
#    server objective over (w, per-client prior variances).

def server_objective(w, rho2s, mus, traces, d):
    total = 0.0
    for mu, tr, r2 in zip(mus, traces, rho2s):
        dev = float(((mu - w) ** 2).sum())
        total += -(d / 2) * np.log(2 * np.pi * r2) - (tr + dev) / (2 * r2)
    return total


def newton_max(fn, x):
    """Damped Newton ascent on central differences of ``fn`` alone: the
    Hessian is shifted to be negative definite where it is not, each step
    halved until ``fn`` does not fall, and the ascent ends where no step
    raises ``fn``."""
    n, h = x.size, 1e-4
    eye = np.eye(n)
    for _ in range(200):
        grad = central_diff(fn, x)
        hess = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                hess[i, j] = hess[j, i] = sum(
                    si * sj * fn(x + h * (si * eye[i] + sj * eye[j]))
                    for si in (1, -1) for sj in (1, -1)) / (4 * h * h)
        top = np.linalg.eigvalsh(hess)[-1]
        if top >= 0:
            hess = hess - (top + 1e-3 * max(1.0, abs(top))) * eye
        step = -np.linalg.solve(hess, grad)
        f0, t = fn(x), 1.0
        while fn(x + t * step) < f0 and t > 1e-12:
            t /= 2
        if not fn(x + t * step) > f0:   # no rise left to find
            return x
        x = x + t * step
    return x


def test_criterion_3_server_stationarity():
    start = time.monotonic()
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng([33, i])
        d = int(rng.integers(1, 6))
        J = int(rng.integers(2, 5))
        mus = [rng.standard_normal(d) for _ in range(J)]
        posts = [VariationalPosterior(mu=mu, pi=rng.uniform(-1, 1, size=d))
                 for mu in mus]
        traces = [float((p.sigma ** 2).sum()) for p in posts]

        # closed-form alternation: confidence weights then weighted mean
        w = np.mean(mus, axis=0)
        for _ in range(500):
            taus = [confidence(p, w).tau for p in posts]
            w_new = (np.array(taus)[:, None] * np.stack(mus)).sum(axis=0) / sum(taus)
            if np.abs(w_new - w).max() < 1e-14:
                w = w_new
                break
            w = w_new
        taus = [confidence(p, w).tau for p in posts]
        rho2_closed = [1.0 / t for t in taus]

        # independent numerical maximization over (w, ln rho2_j)
        x = newton_max(
            lambda x: server_objective(x[:d], np.exp(x[d:]), mus, traces, d),
            np.concatenate([np.mean(mus, axis=0), np.zeros(J)]))
        w_num, rho2_num = x[:d], np.exp(x[d:])

        worst = max(worst, rel_err(w_num, w), rel_err(rho2_num, rho2_closed))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 60
    verdict(3, "server-update stationarity", ok,
            f"worst rel err {worst:.2e} over 10 instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. partition properties over 1000 seeds per scenario.

def test_criterion_4_partition_properties():
    rng = np.random.default_rng(44)
    n, classes, subs_per = 400, 5, 3
    labels = rng.integers(0, classes, size=n)
    subclasses = labels * subs_per + rng.integers(0, subs_per, size=n)
    ds = Dataset(images=rng.random((n, 3)), labels=labels, classes=classes,
                 subclasses=subclasses)

    checked = 0
    for scenario in ("label_skew", "concept_drift", "quantity_only", "iid_equal"):
        for seed in range(1000):
            spec = PartitionSpec(scenario=scenario, clients=6,
                                 labels_per_client=3, seed=seed)
            make_partition(ds, spec).validate(n)   # disjoint/covering/nonempty
            checked += 1

    sums_exact = True
    pooled = []
    for seed in range(1000):
        r = np.random.default_rng(seed)
        sizes = slice_sizes(60000, 100, r)
        sums_exact &= int(sizes.sum()) == 60000 and sizes.min() >= 1
        pooled.extend(sizes.tolist())
    pooled = np.array(pooled)
    skewed = np.median(pooled) < pooled.mean()

    ok = checked == 4000 and sums_exact and skewed
    verdict(4, "partition properties", ok,
            f"{checked} partitions valid, slice sums exact={sums_exact}, "
            f"median {np.median(pooled):.0f} < mean {pooled.mean():.0f}")


# ---------------------------------------------------------------------------
# 5 + 7. synthetic heterogeneous benchmark: shared across the ordering and
# ablation criteria (J=50 clients, T=50 rounds, 5 seeds per scheme).

SEEDS = (0, 1, 2, 3, 4)
HIDDEN = (32,)


def bench_datasets(seed):
    train, test = synth_pair(SynthSpec(seed=seed))
    part = make_partition(train, PartitionSpec(scenario="concept_drift",
                                               clients=50, seed=seed))
    return train, test, part


def run_pfedvem_seed(seed, mode="full"):
    train, test, part = bench_datasets(seed)
    cfg = TrainConfig(T=50, R=10, K=5, eta=0.01, base_lr=0.01, base_epochs=5,
                      base_batch=50, s=0.1, rho0_sq=0.1, seed=seed,
                      hidden=HIDDEN, confidence_mode=mode)
    _, _, reports = training_reports(cfg, train, test, part)
    return reports[-1].mean_pm()


def run_baseline_seed(seed, scheme):
    train, test, part = bench_datasets(seed)
    cfg = TrainConfig(T=50, s=0.1, seed=seed, hidden=HIDDEN)
    if scheme == "local":
        bl = BaselineConfig(lr=0.01, epochs=20, batch=50)
    else:
        bl = BaselineConfig(lr=0.01, epochs=5, batch=50)
    reports = baseline_reports(scheme, cfg, bl, train, test, part)
    return reports[-1].mean_pm()


def run_bench(job):
    """One seed run of the shared benchmark; ``job`` is (scheme or pFedVEM
    ablation mode, seed)."""
    name, seed = job
    if name in ("local", "fedavg"):
        return run_baseline_seed(seed, name)
    return run_pfedvem_seed(seed, mode="full" if name == "pfedvem" else name)


# the pFedVEM runs take longest, so they go to the pool first
BENCH_RUNS = ("pfedvem", "uncertainty_only", "deviation_only", "local",
              "fedavg")


@pytest.fixture(scope="module")
def bench_results():
    # every run is deterministic, so two processes give what one would
    start = time.monotonic()
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=get_context("spawn")) as pool:
        pms = list(pool.map(run_bench, [(name, s) for name in BENCH_RUNS
                                        for s in SEEDS]))
    out = {name: pms[i * len(SEEDS):(i + 1) * len(SEEDS)]
           for i, name in enumerate(BENCH_RUNS)}
    out["elapsed"] = time.monotonic() - start
    return out


def margin_ok(a, b):
    """mean(a) beats mean(b) by more than twice the combined SEM."""
    gap = float(np.mean(a) - np.mean(b))
    return gap, gap > 2 * np.hypot(sem(a), sem(b))


def test_criterion_5_synthetic_ordering(bench_results):
    pm, local, fedavg = (bench_results["pfedvem"], bench_results["local"],
                         bench_results["fedavg"])
    gap_l, ok_l = margin_ok(pm, local)
    gap_f, ok_f = margin_ok(pm, fedavg)
    elapsed = bench_results["elapsed"]
    ok = ok_l and ok_f and elapsed < 900
    verdict(5, "synthetic heterogeneous ordering", ok,
            f"pm {np.mean(pm):.3f}±{sem(pm):.3f} vs local {np.mean(local):.3f} "
            f"(gap {gap_l:.3f}) vs fedavg-per-client {np.mean(fedavg):.3f} "
            f"(gap {gap_f:.3f}), {elapsed:.0f}s")


def test_criterion_7_confidence_ablations(bench_results):
    full, unc, dev = (bench_results[name] for name in
                      ("pfedvem", "uncertainty_only", "deviation_only"))
    m_full, m_unc, m_dev = (float(np.mean(v)) for v in (full, unc, dev))
    # non-binding trend log: ablations are expected to trail the full mode
    trend = "matches" if m_full >= max(m_unc, m_dev) else "does not match"
    ok = m_full >= m_unc - 0.005 and m_full >= m_dev - 0.005
    verdict(7, "confidence ablations", ok,
            f"full {m_full:.3f}, uncertainty_only {m_unc:.3f}, "
            f"deviation_only {m_dev:.3f}; expected trend {trend}")


# ---------------------------------------------------------------------------
# 6. dataset-backed reproduction (needs the FMNIST IDX files on disk).

def fmnist_dir():
    env = os.environ.get("FVEM_FMNIST_DIR")
    return Path(env) if env else Path(__file__).resolve().parent.parent / "data" / "fmnist"


FMNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def test_criterion_6_fmnist_table():
    root = fmnist_dir()
    if not all((root / f).exists() for f in FMNIST_FILES):
        print(f"[ACCEPTANCE 6] FMNIST reproduction: SKIP "
              f"(IDX files not found under {root}; set FVEM_FMNIST_DIR)")
        pytest.skip(f"FMNIST IDX files not available under {root}")

    train = load_idx(root / FMNIST_FILES[0], root / FMNIST_FILES[1])
    test = load_idx(root / FMNIST_FILES[2], root / FMNIST_FILES[3])
    seeds = SEEDS
    pm_vals, gm_vals, fa_gm, local_pm = [], [], [], []
    for seed in seeds:
        part = make_partition(train, PartitionSpec(
            scenario="label_skew", clients=100, labels_per_client=5, seed=seed))
        cfg = TrainConfig(T=100, R=10, K=5, eta=0.001, base_lr=0.01,
                          base_epochs=5, base_batch=50, s=0.1, rho0_sq=0.1,
                          seed=seed, hidden=(100,))
        _, _, reports = training_reports(cfg, train, test, part)
        pm_vals.append(reports[-1].mean_pm())
        gm_vals.append(reports[-1].gm_accuracy)
        fa = baseline_reports("fedavg", cfg,
                              BaselineConfig(lr=0.01, epochs=5, batch=50),
                              train, test, part)
        fa_gm.append(fa[-1].gm_accuracy)
        lo = baseline_reports("local", cfg,
                              BaselineConfig(lr=0.01, epochs=20, batch=50),
                              train, test, part)
        local_pm.append(lo[-1].mean_pm())

    pm, fa, lp = (float(np.mean(v)) for v in (pm_vals, fa_gm, local_pm))
    ok = (pm >= 0.88 and abs(pm - 0.914) <= 0.035
          and abs(fa - 0.854) <= 0.03 and pm > lp)
    verdict(6, "FMNIST reproduction", ok,
            f"pm {pm:.3f}, gm {np.mean(gm_vals):.3f}, fedavg gm {fa:.3f}, "
            f"local pm {lp:.3f}")


# ---------------------------------------------------------------------------
# 8. determinism across worker counts and exact upload payload size.

def test_criterion_8_determinism_and_payload(tmp_path, monkeypatch):
    train, test = synth_pair(SynthSpec(classes=3, subclasses_per_class=2,
                                       dim=6, points_per_subclass=30,
                                       test_points_per_subclass=10, seed=0))
    part = make_partition(train, PartitionSpec(scenario="concept_drift",
                                               clients=4, seed=0))
    cfg = TrainConfig(T=3, R=3, K=2, eta=0.01, base_lr=0.01, base_epochs=1,
                      base_batch=16, s=0.7, rho0_sq=0.1, seed=0, hidden=(5,))
    sent = []   # (payload, base parameter count) of every upload that crosses
    real_serialize = federation.serialize_upload

    def serialize_upload(mu, tau, base):
        sent.append((real_serialize(mu, tau, base), base.size))
        return sent[-1][0]

    monkeypatch.setattr(federation, "serialize_upload", serialize_upload)
    gs1, clients1, rep1 = training_reports(cfg, train, test, part, workers=1)
    sent1 = list(sent)
    gs2, _, rep2 = training_reports(cfg, train, test, part, workers=2)
    write_report(rep1, tmp_path / "w1.jsonl")
    write_report(rep2, tmp_path / "w2.jsonl")
    identical = (tmp_path / "w1.jsonl").read_bytes() == (tmp_path / "w2.jsonl").read_bytes()
    identical &= bool(np.array_equal(gs1.w, gs2.w))

    # the upload of the first last-round reporter, as run 1 sent it
    last = select_reporters(cfg, cfg.T - 1, len(clients1))
    payload, base_params = sent1[-len(last)]
    expected = 8 * (gs1.w.size + base_params + 1)
    size_ok = base_params > 0 and len(payload) == expected

    ok = identical and size_ok
    verdict(8, "determinism and payload", ok,
            f"reports byte-identical={identical}, payload {len(payload)} "
            f"bytes == 8*(d + base + 1)={expected}")
