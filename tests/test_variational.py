import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvem.nn import (InputError, MlpParams, cross_entropy, flatten_head,
                       forward, forward_base, init_mlp, unflatten_head)
from fedvem.variational import (IsotropicPrior, VariationalPosterior,
                                confidence, fit_posterior, head_loss_closure,
                                kl_to_prior, mc_objective, sample, softplus,
                                softplus_inv)

from helpers import central_diff, golden_max, rel_err


def posterior(mu, sigma):
    mu = np.asarray(mu, dtype=float)
    return VariationalPosterior(mu=mu, pi=softplus_inv(np.full(mu.size, sigma))
                                if np.isscalar(sigma)
                                else softplus_inv(np.asarray(sigma, float)))


# ---------------------------------------------------------------- softplus

def test_softplus_at_zero():
    assert softplus(0.0) == pytest.approx(np.log(2), abs=1e-15)


def test_softplus_negative_asymptote():
    val = softplus(-50.0)
    assert 0.0 <= val <= 2e-22
    assert val == pytest.approx(np.exp(-50), rel=1e-6)


def test_softplus_positive_asymptote():
    assert softplus(50.0) == pytest.approx(50.0, abs=1e-12)


def test_softplus_inverse():
    x = np.array([-3.0, 0.1, 2.0, 30.0])
    np.testing.assert_allclose(softplus_inv(softplus(x)), x, atol=1e-9)


# ------------------------------------------------------------------ sample

def test_sample_zero_noise_returns_mu():
    post = posterior([1.0, -2.0, 3.0], 0.7)
    np.testing.assert_array_equal(sample(post, np.zeros(3)), post.mu)


def test_sample_vanishing_scale_returns_mu():
    post = VariationalPosterior(mu=np.array([1.0, 2.0]), pi=np.array([-1e6, -1e6]))
    noise = np.array([5.0, -7.0])
    np.testing.assert_array_equal(sample(post, noise), post.mu)


def test_sample_length_mismatch():
    with pytest.raises(InputError):
        sample(posterior([0.0, 0.0], 1.0), np.zeros(3))


def test_sample_monte_carlo_moments():
    post = posterior([0.5, -1.0, 2.0], [0.3, 1.2, 0.8])
    rng = np.random.default_rng(0)
    n = 10 ** 6
    draws = sample(post, rng.standard_normal((n, 3)))
    se_mean = post.sigma / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - post.mu) < 4 * se_mean)
    emp_var = draws.var(axis=0)
    assert np.all(np.abs(emp_var - post.sigma ** 2) / post.sigma ** 2 < 0.02)


def test_sample_frozen_noise_is_deterministic():
    post = posterior([0.1, 0.2], 0.5)
    noise = np.random.default_rng(1).standard_normal(2)
    assert np.array_equal(sample(post, noise), sample(post, noise))


# ---------------------------------------------------------------------- KL

def test_kl_self_distance_is_zero():
    tau = 4.0
    rho = tau ** -0.5
    post = posterior([1.0, -2.0, 0.5], rho)
    prior = IsotropicPrior(center=post.mu.copy(), tau=tau)
    assert kl_to_prior(post, prior)[0] == pytest.approx(0.0, abs=1e-12)


def test_kl_unit_case():
    post = posterior([1.0], 1.0)
    prior = IsotropicPrior(center=np.array([0.0]), tau=1.0)
    assert kl_to_prior(post, prior)[0] == pytest.approx(0.5, abs=1e-12)


def test_kl_hand_evaluated_case():
    post = posterior([0.0], 0.5)
    prior = IsotropicPrior(center=np.array([0.0]), tau=1.0)
    expected = np.log(2) + 0.125 - 0.5
    assert kl_to_prior(post, prior)[0] == pytest.approx(expected, abs=1e-12)


def test_kl_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        IsotropicPrior(center=np.zeros(2), tau=0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    post = VariationalPosterior(mu=rng.normal(0, 3, d), pi=rng.normal(0, 3, d))
    prior = IsotropicPrior(center=rng.normal(0, 3, d),
                           tau=float(rng.uniform(0.01, 100)))
    assert kl_to_prior(post, prior)[0] >= -1e-12


def test_kl_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    d = 6
    post = VariationalPosterior(mu=rng.normal(0, 1, d), pi=rng.normal(0, 1, d))
    prior = IsotropicPrior(center=rng.normal(0, 1, d), tau=2.5)
    _, g_mu, g_pi = kl_to_prior(post, prior)

    num_mu = central_diff(
        lambda m: kl_to_prior(VariationalPosterior(m, post.pi), prior)[0],
        post.mu)
    num_pi = central_diff(
        lambda p: kl_to_prior(VariationalPosterior(post.mu, p), prior)[0],
        post.pi)
    assert rel_err(g_mu, num_mu) <= 1e-6
    assert rel_err(g_pi, num_pi) <= 1e-6


def test_kl_jensen_lower_bound():
    # exact KL >= -(d/2) ln Tr(Sigma) + (tau/2)(Tr(Sigma)+dev) + c(d, tau)
    # with c(d, tau) = -(d/2) ln tau - d/2 + (d/2) ln d
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = int(rng.integers(1, 10))
        post = VariationalPosterior(mu=rng.normal(0, 2, d), pi=rng.normal(0, 2, d))
        prior = IsotropicPrior(center=rng.normal(0, 2, d),
                               tau=float(rng.uniform(0.01, 50)))
        trace = post.trace()
        dev = float(((post.mu - prior.center) ** 2).sum())
        c = -(d / 2) * np.log(prior.tau) - d / 2 + (d / 2) * np.log(d)
        bound = -(d / 2) * np.log(trace) + prior.tau / 2 * (trace + dev) + c
        assert kl_to_prior(post, prior)[0] >= bound - 1e-9


# ------------------------------------------------------------ MC objective

def toy_problem(seed=0, n=12, dim=3, hidden=4, classes=3):
    """Posterior, prior and the head-loss closure of a small MLP's features."""
    rng = np.random.default_rng(seed)
    params = init_mlp(dim, (hidden,), classes, rng)
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, classes, size=n)
    d = flatten_head(params.head).size
    post = VariationalPosterior(mu=rng.normal(0, 0.5, d), pi=rng.normal(0, 0.5, d))
    prior = IsotropicPrior(center=rng.normal(0, 0.5, d), tau=1.7)
    closure = head_loss_closure(forward_base(params.base, x), y)
    return params, x, y, post, prior, closure


def test_mc_local_loss_degenerate_posterior():
    params, x, y, post, prior, closure = toy_problem()
    post = VariationalPosterior(mu=post.mu, pi=np.full(post.d, -40.0))
    loss, _, _ = mc_objective(post, prior, closure, np.zeros((1, post.d)))
    det = MlpParams(base=params.base, head=unflatten_head(post.mu, 4))
    expected = (len(x) * cross_entropy(forward(det, x), y)
                + kl_to_prior(post, prior)[0])
    assert loss == pytest.approx(expected, rel=1e-12)


def test_mc_local_loss_rejects_k_zero():
    _, _, _, post, prior, closure = toy_problem()
    with pytest.raises(InputError):
        mc_objective(post, prior, closure, np.zeros((0, post.d)))


def test_mc_local_loss_gradients_match_finite_differences():
    _, _, _, post, prior, closure = toy_problem(seed=1)
    noise = np.random.default_rng(4).standard_normal((3, post.d))
    _, g_mu, g_pi = mc_objective(post, prior, closure, noise)

    def loss_mu(m):
        return mc_objective(VariationalPosterior(m, post.pi), prior, closure,
                            noise)[0]

    def loss_pi(p):
        return mc_objective(VariationalPosterior(post.mu, p), prior, closure,
                            noise)[0]

    assert rel_err(g_mu, central_diff(loss_mu, post.mu)) <= 1e-4
    assert rel_err(g_pi, central_diff(loss_pi, post.pi)) <= 1e-4


def test_mc_consistency_across_sample_counts():
    _, _, _, post, prior, closure = toy_problem(seed=2)
    rng = np.random.default_rng(5)
    losses1 = [mc_objective(post, prior, closure,
                            rng.standard_normal((1, post.d)))[0]
               for _ in range(200)]
    losses4 = [mc_objective(post, prior, closure,
                            rng.standard_normal((4, post.d)))[0]
               for _ in range(200)]
    m1, m4 = np.mean(losses1), np.mean(losses4)
    se = np.sqrt(np.var(losses1, ddof=1) / 200 + np.var(losses4, ddof=1) / 200)
    assert abs(m1 - m4) <= 3 * se


# -------------------------------------------------------------- confidence

def test_confidence_unit_case():
    post = posterior([1.0, 2.0, 3.0, 4.0], 1.0)
    out = confidence(post, post.mu.copy())
    assert out.tau == pytest.approx(1.0)
    assert out.uncertainty == pytest.approx(4.0)
    assert out.deviation == pytest.approx(0.0)


def test_confidence_arithmetic_case():
    post = posterior([0.0, 0.0], np.sqrt([0.25, 0.25]))
    center = np.array([np.sqrt(1.5), 0.0])
    out = confidence(post, center)
    assert out.tau == pytest.approx(2.0 / (0.5 + 1.5), rel=1e-12)


def test_confidence_hand_evaluated_case():
    post = posterior([1.0, 0.0, -1.0], np.sqrt([0.1, 0.2, 0.3]))
    out = confidence(post, np.zeros(3))
    assert out.tau == pytest.approx(3.0 / 2.6, rel=1e-9)


def test_confidence_clamps_degenerate_fit():
    post = VariationalPosterior(mu=np.zeros(2), pi=np.full(2, -1e6))
    out = confidence(post, np.zeros(2))
    assert out.tau == 1e8


def test_confidence_modes():
    post = posterior([1.0, 0.0, -1.0], np.sqrt([0.1, 0.2, 0.3]))
    center = np.zeros(3)
    assert confidence(post, center, "uncertainty_only").tau == pytest.approx(3 / 0.6)
    assert confidence(post, center, "deviation_only").tau == pytest.approx(3 / 2.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_confidence_permutation_and_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 8))
    post = VariationalPosterior(mu=rng.normal(0, 2, d), pi=rng.normal(0, 2, d))
    center = rng.normal(0, 2, d)
    base = confidence(post, center).tau

    perm = rng.permutation(d)
    permuted = confidence(VariationalPosterior(post.mu[perm], post.pi[perm]),
                          center[perm]).tau
    assert permuted == pytest.approx(base, rel=1e-12)

    shift = rng.normal(0, 5, d)
    shifted = confidence(VariationalPosterior(post.mu + shift, post.pi),
                         center + shift).tau
    assert shifted == pytest.approx(base, rel=1e-9)


def test_confidence_maximizes_server_summand():
    # For fixed (mu, Sigma, center) the single-client term
    # E_q[ln N(w_j | center, rho^2 I)] is maximized at rho^2 = 1/tau.
    rng = np.random.default_rng(6)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        post = VariationalPosterior(mu=rng.normal(0, 1, d), pi=rng.normal(0, 1, d))
        center = rng.normal(0, 1, d)
        out = confidence(post, center)
        quad = out.uncertainty + out.deviation

        def summand(log_rho_sq):
            rho_sq = np.exp(log_rho_sq)
            return -(d / 2) * np.log(2 * np.pi * rho_sq) - quad / (2 * rho_sq)

        best = np.exp(golden_max(summand, np.log(1e-6), np.log(1e6)))
        assert abs(best - 1.0 / out.tau) / (1.0 / out.tau) <= 1e-6


# ----------------------------------------------------------- fit_posterior

def test_fit_posterior_pure_kl_step():
    # with a zero likelihood closure one GD step moves mu by -eta*(mu-w)*tau
    d = 4
    post = posterior(np.array([1.0, -1.0, 2.0, 0.5]), 0.8)
    prior = IsotropicPrior(center=np.zeros(d), tau=3.0)
    eta = 0.05
    out = fit_posterior(post, prior, lambda w: (0.0, np.zeros(d)),
                        steps=1, lr=eta, K=1, rng=np.random.default_rng(0))
    np.testing.assert_allclose(out.mu, post.mu - eta * post.mu * 3.0, atol=1e-15)


def test_fit_posterior_steps_on_mc_objective():
    # the trainer descends exactly the gradient the finite-difference checks
    # test: one step is mu - eta * grad on the same noise draws
    _, _, _, post, prior, closure = toy_problem(seed=3)
    eta, K = 0.01, 3
    noise = np.random.default_rng(8).standard_normal((K, post.d))
    _, g_mu, g_pi = mc_objective(post, prior, closure, noise)
    assert np.sqrt((g_mu ** 2).sum() + (g_pi ** 2).sum()) < 1e3  # no clipping
    out = fit_posterior(post, prior, closure, steps=1, lr=eta, K=K,
                        rng=np.random.default_rng(8))
    np.testing.assert_array_equal(out.mu, post.mu - eta * g_mu)
    np.testing.assert_array_equal(out.pi, post.pi - eta * g_pi)


def test_fit_posterior_recovers_conjugate_gaussian_mean():
    # quadratic total loss n*a/2*(w-b)^2 with Gaussian prior has closed-form
    # posterior mean (tau*c + n*a*b) / (tau + n*a)
    n, a, b = 40, 0.5, 2.0
    tau, center = 1.5, -1.0
    post = posterior([0.0], 1.0)
    prior = IsotropicPrior(center=np.array([center]), tau=tau)

    def quad(w):
        return (n * a / 2 * float((w[0] - b) ** 2),
                np.array([n * a * (w[0] - b)]))

    out = fit_posterior(post, prior, quad, steps=200, lr=0.02, K=5,
                        rng=np.random.default_rng(7))
    analytic = (tau * center + n * a * b) / (tau + n * a)
    assert abs(out.mu[0] - analytic) / abs(analytic) < 0.05
