import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvem import variational
from fedvem.nn import (InputError, MlpParams, backward, cross_entropy,
                       flatten_head, forward, forward_base, init_mlp,
                       unflatten_head)
from fedvem.variational import (GRAD_CLIP, IsotropicPrior, PosteriorError,
                                VariationalPosterior, confidence,
                                fit_posterior, head_loss_closure, kl_to_prior,
                                mc_objective, sample, softplus, softplus_inv)

from helpers import central_diff, golden_max, rel_err


def posterior(mu, sigma):
    mu = np.asarray(mu, dtype=float)
    return VariationalPosterior(mu=mu, pi=softplus_inv(np.full(mu.size, sigma))
                                if np.isscalar(sigma)
                                else softplus_inv(np.asarray(sigma, float)))


def stack(*posts):
    """The (G, d) posterior stack of one-client posteriors."""
    return VariationalPosterior(np.stack([p.mu for p in posts]),
                                np.stack([p.pi for p in posts]))


def one_client(post, prior, closure, noise):
    """``mc_objective`` of one client as a stack of one: (loss, d_mu, d_pi)."""
    loss, d_mu, d_pi = mc_objective(stack(post), prior, closure, noise[None])
    return loss[0], d_mu[0], d_pi[0]


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
    closure = head_loss_closure([forward_base(params.base, x)], [y])
    return params, x, y, post, prior, closure


def test_head_loss_closure_stack_rows_match_single_heads():
    # a stacked call is K independent head losses: row k equals the K = 1
    # call on head k bit for bit, and the nn module's loss and gradient
    params, x, y, post, _, closure = toy_problem(seed=6, n=13)
    heads = sample(post, np.random.default_rng(9).standard_normal((4, post.d)))
    losses, grads = closure(heads[None])
    assert losses.shape == (1, 4) and grads.shape == (1, 4, post.d)
    for head, loss, grad in zip(heads, losses[0], grads[0]):
        one_loss, one_grad = closure(head[None, None, :])
        assert loss == one_loss[0, 0]
        np.testing.assert_array_equal(grad, one_grad[0, 0])
        p = MlpParams(base=params.base, head=unflatten_head(head, 4))
        assert loss == pytest.approx(len(x) * cross_entropy(forward(p, x), y),
                                     rel=1e-12)
        expected = len(x) * flatten_head(backward(p, x, y).head)
        assert rel_err(grad, expected) <= 1e-12


def test_mc_local_loss_degenerate_posterior():
    params, x, y, post, prior, closure = toy_problem()
    post = VariationalPosterior(mu=post.mu, pi=np.full(post.d, -40.0))
    loss, _, _ = one_client(post, prior, closure, np.zeros((1, post.d)))
    det = MlpParams(base=params.base, head=unflatten_head(post.mu, 4))
    expected = (len(x) * cross_entropy(forward(det, x), y)
                + kl_to_prior(post, prior)[0])
    assert loss == pytest.approx(expected, rel=1e-12)


def test_mc_local_loss_rejects_k_zero():
    _, _, _, post, prior, closure = toy_problem()
    with pytest.raises(InputError):
        one_client(post, prior, closure, np.zeros((0, post.d)))


def test_mc_local_loss_gradients_match_finite_differences():
    _, _, _, post, prior, closure = toy_problem(seed=1)
    noise = np.random.default_rng(4).standard_normal((3, post.d))
    _, g_mu, g_pi = one_client(post, prior, closure, noise)

    def loss_mu(m):
        return one_client(VariationalPosterior(m, post.pi), prior, closure,
                          noise)[0]

    def loss_pi(p):
        return one_client(VariationalPosterior(post.mu, p), prior, closure,
                          noise)[0]

    assert rel_err(g_mu, central_diff(loss_mu, post.mu)) <= 1e-4
    assert rel_err(g_pi, central_diff(loss_pi, post.pi)) <= 1e-4


def test_mc_consistency_across_sample_counts():
    _, _, _, post, prior, closure = toy_problem(seed=2)
    rng = np.random.default_rng(5)
    losses1 = [one_client(post, prior, closure,
                          rng.standard_normal((1, post.d)))[0]
               for _ in range(200)]
    losses4 = [one_client(post, prior, closure,
                          rng.standard_normal((4, post.d)))[0]
               for _ in range(200)]
    m1, m4 = np.mean(losses1), np.mean(losses4)
    se = np.sqrt(np.var(losses1, ddof=1) / 200 + np.var(losses4, ddof=1) / 200)
    assert abs(m1 - m4) <= 3 * se


def client_stack(sizes, seed=0, width=4, classes=3):
    """Features, labels, a posterior stack and per-row priors of clients
    holding ``sizes`` rows each."""
    rng = np.random.default_rng(seed)
    d = classes * (width + 1)
    feats = [np.maximum(rng.standard_normal((n, width)), 0.0) for n in sizes]
    labels = [rng.integers(0, classes, size=n) for n in sizes]
    post = VariationalPosterior(mu=rng.normal(0, 0.5, (len(sizes), d)),
                                pi=rng.normal(-1, 0.5, (len(sizes), d)))
    prior = IsotropicPrior(center=rng.normal(0, 0.5, d),
                           tau=rng.uniform(0.5, 5.0, len(sizes)))
    return feats, labels, post, prior


@pytest.mark.parametrize("classes,K", [(3, 3), (1, 4), (4, 9)])
def test_stacked_calls_equal_one_client_calls(classes, K):
    # a G-client closure call and objective are G one-client calls, bit for
    # bit: a client with no rows, one class and K >= 8 included
    sizes = [7, 0, 13, 1, 9]
    feats, labels, post, prior = client_stack(sizes, seed=classes,
                                              classes=classes)
    noise = np.random.default_rng(K).standard_normal((len(sizes), K, post.d))
    heads = post.mu[:, None] + post.sigma[:, None] * noise
    closure = head_loss_closure(feats, labels)
    losses, grads = closure(heads)
    assert losses.shape == (len(sizes), K) and grads.shape == heads.shape
    loss, d_mu, d_pi = mc_objective(post, prior, closure, noise)
    for j in range(len(sizes)):
        single = head_loss_closure([feats[j]], [labels[j]])
        one_losses, one_grads = single(heads[j:j + 1])
        np.testing.assert_array_equal(losses[j], one_losses[0])
        np.testing.assert_array_equal(grads[j], one_grads[0])
        one_prior = IsotropicPrior(prior.center, prior.tau[j:j + 1])
        one = mc_objective(VariationalPosterior(post.mu[j:j + 1],
                                                post.pi[j:j + 1]),
                           one_prior, single, noise[j:j + 1])
        assert loss[j] == one[0][0]
        np.testing.assert_array_equal(d_mu[j], one[1][0])
        np.testing.assert_array_equal(d_pi[j], one[2][0])
    assert not losses[1].any() and not grads[1].any()   # no rows


def test_stacked_objective_gradients_match_finite_differences():
    feats, labels, post, prior = client_stack([5, 8, 3], seed=7)
    closure = head_loss_closure(feats, labels)
    noise = np.random.default_rng(3).standard_normal((3, 2, post.d))
    _, g_mu, g_pi = mc_objective(post, prior, closure, noise)
    shape = post.mu.shape

    def total(mu, pi):
        return mc_objective(VariationalPosterior(mu.reshape(shape),
                                                 pi.reshape(shape)),
                            prior, closure, noise)[0].sum()

    num_mu = central_diff(lambda m: total(m, post.pi), post.mu.ravel())
    num_pi = central_diff(lambda p: total(post.mu, p), post.pi.ravel())
    assert rel_err(g_mu.ravel(), num_mu) <= 1e-4
    assert rel_err(g_pi.ravel(), num_pi) <= 1e-4


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
    out = fit_posterior(stack(post), prior,
                        lambda heads: (np.zeros(heads.shape[:2]),
                                       np.zeros_like(heads)),
                        steps=1, lr=eta, K=1, rngs=[np.random.default_rng(0)])
    np.testing.assert_allclose(out.mu[0], post.mu - eta * post.mu * 3.0,
                               atol=1e-15)


def test_fit_posterior_steps_on_mc_objective():
    # the trainer descends exactly the gradient the finite-difference checks
    # test: each step is mu - eta * grad on the same noise draws, one (K, d)
    # draw per step, which equals one (steps, K, d) draw and leaves the
    # stream where that leaves it
    _, _, _, post, prior, closure = toy_problem(seed=3)
    eta, K, steps = 0.01, 3, 3
    ref = np.random.default_rng(8)
    noise = ref.standard_normal((steps, K, post.d))
    per_step = np.random.default_rng(8)
    for eps in noise:
        np.testing.assert_array_equal(eps, per_step.standard_normal((K, post.d)))
    expected = post
    for eps in noise:
        _, g_mu, g_pi = one_client(expected, prior, closure, eps)
        assert np.sqrt((g_mu ** 2).sum() + (g_pi ** 2).sum()) < 1e3  # no clipping
        expected = VariationalPosterior(expected.mu - eta * g_mu,
                                        expected.pi - eta * g_pi)
    rng = np.random.default_rng(8)
    out = fit_posterior(stack(post), prior, closure, steps=steps, lr=eta, K=K,
                        rngs=[rng])
    np.testing.assert_array_equal(out.mu[0], expected.mu)
    np.testing.assert_array_equal(out.pi[0], expected.pi)
    assert rng.standard_normal() == ref.standard_normal()


def test_fit_posterior_draws_each_rows_noise_from_its_stream(monkeypatch):
    # row j's noise at step s is step s of client j's one (R, K, d) draw,
    # and every stream is left where that draw leaves it
    feats, labels, post, prior = client_stack([6, 0, 9], seed=4)
    steps, K = 4, 2
    seen = []

    def recording(post, prior, fn, noise):
        seen.append(noise.copy())
        return mc_objective(post, prior, fn, noise)

    monkeypatch.setattr(variational, "mc_objective", recording)
    rngs = [np.random.default_rng(s) for s in (3, 4, 5)]
    fit_posterior(post, prior, head_loss_closure(feats, labels), steps=steps,
                  lr=0.01, K=K, rngs=rngs)
    assert len(seen) == steps
    for j, seed in enumerate((3, 4, 5)):
        ref = np.random.default_rng(seed)
        block = ref.standard_normal((steps, K, post.d))
        for s in range(steps):
            np.testing.assert_array_equal(seen[s][j], block[s])
        assert rngs[j].standard_normal() == ref.standard_normal()


def test_fit_posterior_clip_fires_for_one_row_only():
    # row 0's gradient is clipped to the clip norm; row 1 takes its own step
    post = stack(posterior(np.zeros(3), 1.0), posterior(np.ones(3), 0.5))
    prior = IsotropicPrior(center=np.zeros(3), tau=np.array([1.0, 2.0]))
    scale = np.array([1e100, 1.0])

    def constant(heads):
        return (np.zeros(heads.shape[:2]),
                np.broadcast_to(scale[:, None, None], heads.shape).copy())

    noise = np.stack([np.random.default_rng(s).standard_normal((1, 3))
                      for s in (10, 11)])
    rngs = [np.random.default_rng(s) for s in (10, 11)]
    with np.errstate(over="ignore"):
        _, g_mu, g_pi = mc_objective(post, prior, constant, noise)
        out = fit_posterior(post, prior, constant, steps=1, lr=0.01, K=1,
                            rngs=rngs)
    step0 = np.concatenate([out.mu[0] - post.mu[0], out.pi[0] - post.pi[0]])
    assert np.linalg.norm(step0) == pytest.approx(0.01 * GRAD_CLIP, rel=1e-12)
    assert np.linalg.norm(np.concatenate([g_mu[1], g_pi[1]])) < GRAD_CLIP
    np.testing.assert_array_equal(out.mu[1], post.mu[1] - 0.01 * g_mu[1])
    np.testing.assert_array_equal(out.pi[1], post.pi[1] - 0.01 * g_pi[1])


def fit_on_constant_gradient(scale):
    """One clipped step on a callback whose head gradients all equal scale."""
    post = posterior(np.zeros(3), 1.0)
    prior = IsotropicPrior(center=np.zeros(3), tau=1.0)
    with np.errstate(over="ignore"):
        out = fit_posterior(
            stack(post), prior,
            lambda heads: (np.zeros(heads.shape[:2]),
                           np.full(heads.shape, scale)),
            steps=1, lr=0.01, K=1, rngs=[np.random.default_rng(0)])
    return np.concatenate([out.mu[0] - post.mu, out.pi[0] - post.pi])


def test_fit_posterior_clips_huge_gradient_to_clip_norm():
    step = fit_on_constant_gradient(1e100)
    assert np.linalg.norm(step) == pytest.approx(0.01 * 1e3, rel=1e-12)


def test_fit_posterior_nonfinite_gradient_norm_raises():
    # the squares of 1e200 overflow; rescaling by 1000 / inf would make the
    # step a silent no-op
    with pytest.raises(FloatingPointError, match="norm"):
        fit_on_constant_gradient(1e200)


def test_fit_posterior_failure_names_first_failing_row():
    post = stack(*(posterior(np.zeros(2), 1.0) for _ in range(4)))
    prior = IsotropicPrior(center=np.zeros(2), tau=np.ones(4))
    scale = np.array([1.0, 1.0, 1e200, 1e200])
    with np.errstate(over="ignore"), pytest.raises(PosteriorError,
                                                   match="norm") as info:
        fit_posterior(post, prior,
                      lambda heads: (np.zeros(heads.shape[:2]),
                                     scale[:, None, None] + 0 * heads),
                      steps=1, lr=0.01, K=1,
                      rngs=[np.random.default_rng(j) for j in range(4)])
    assert info.value.row == 2


def test_fit_posterior_recovers_conjugate_gaussian_mean():
    # quadratic total loss n*a/2*(w-b)^2 with Gaussian prior has closed-form
    # posterior mean (tau*c + n*a*b) / (tau + n*a)
    n, a, b = 40, 0.5, 2.0
    tau, center = 1.5, -1.0
    post = posterior([0.0], 1.0)
    prior = IsotropicPrior(center=np.array([center]), tau=tau)

    def quad(heads):
        w = heads[..., 0]
        return n * a / 2 * (w - b) ** 2, (n * a * (w - b))[..., None]

    out = fit_posterior(stack(post), prior, quad, steps=200, lr=0.02, K=5,
                        rngs=[np.random.default_rng(7)])
    analytic = (tau * center + n * a * b) / (tau + n * a)
    assert abs(out.mu[0, 0] - analytic) / abs(analytic) < 0.05
