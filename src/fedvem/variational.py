"""Gaussian variational machinery for the personalized head.

A client's head parameters carry a diagonal Gaussian posterior with mean
``mu`` and pre-softplus scales ``pi`` (sigma = softplus(pi) guarantees
positivity).  The conditional prior is an isotropic Gaussian centered at the
shared latent head with precision tau.  This module provides reparametrized
sampling, the closed-form KL with its analytic gradient, the Monte-Carlo
local objective, and the confidence value used for aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .nn import InputError, ShapeError, unflatten_head

TAU_MIN = 1e-8
TAU_MAX = 1e8

# Objective callback: (K, d) stack of heads -> (K,) losses, (K, d) gradients.
LossGradFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def softplus(x):
    """ln(1 + exp(x)), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    """Inverse of softplus for y > 0."""
    y = np.asarray(y, dtype=float)
    # ln(exp(y) - 1) = y + ln(1 - exp(-y)), stable for large y
    return y + np.log(-np.expm1(-y))


def _sigmoid(x):
    out = np.empty_like(np.asarray(x, dtype=float))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class VariationalPosterior:
    """Diagonal Gaussian over the flattened head parameters."""

    mu: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.mu.shape != self.pi.shape or self.mu.ndim != 1:
            raise ShapeError("mu and pi must be 1-D vectors of equal length")

    @property
    def d(self) -> int:
        return self.mu.size

    @property
    def sigma(self) -> np.ndarray:
        return softplus(self.pi)

    def trace(self) -> float:
        """Total posterior variance Tr(Sigma) = sum sigma_i^2."""
        return float((self.sigma ** 2).sum())

    def copy(self) -> "VariationalPosterior":
        return VariationalPosterior(self.mu.copy(), self.pi.copy())


@dataclass
class IsotropicPrior:
    """Isotropic Gaussian conditional prior N(center, I/tau)."""

    center: np.ndarray
    tau: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.tau <= 0:
            raise ValueError(f"prior precision must be positive, got {self.tau}")


def sample(post: VariationalPosterior, noise: np.ndarray) -> np.ndarray:
    """Reparametrized draw mu + softplus(pi) * noise."""
    noise = np.asarray(noise, dtype=float)
    if noise.shape[-1] != post.d:
        raise InputError(f"noise length {noise.shape[-1]} != posterior dim {post.d}")
    return post.mu + post.sigma * noise


def kl_to_prior(post: VariationalPosterior, prior: IsotropicPrior,
                ) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact KL from the diagonal posterior to the isotropic prior, with its
    analytic gradients w.r.t. (mu, pi), chained through the softplus.

    Per coordinate: ln(rho/sigma_i) + (sigma_i^2 + (mu_i - c_i)^2) * tau / 2 - 1/2,
    with rho = tau^{-1/2}.  The additive constant is kept so KL(q, q) == 0.
    """
    if prior.center.shape != post.mu.shape:
        raise ShapeError("prior center dimension mismatch")
    sigma = post.sigma
    tau = prior.tau
    diff = post.mu - prior.center
    log_rho = -0.5 * np.log(tau)
    kl = float(np.sum(log_rho - np.log(sigma)
                      + (sigma ** 2 + diff ** 2) * tau / 2.0 - 0.5))
    d_sigma = -1.0 / sigma + sigma * tau
    return kl, diff * tau, d_sigma * _sigmoid(post.pi)


def mc_objective(post: VariationalPosterior, prior: IsotropicPrior,
                 loss_grad_fn: LossGradFn, noise: np.ndarray,
                 ) -> tuple[float, np.ndarray, np.ndarray]:
    """The local objective: (1/K) sum_k loss(w_k) + KL(q || prior).

    ``noise`` is a (K, d) array of standard-normal draws and w_k the
    reparametrized heads, one stack the callback treats as constant; the K
    terms are added in the order k = 0..K-1.  Gradients w.r.t. (mu, pi) flow
    through the reparametrization.  This is the function ``fit_posterior``
    descends and the one the gradient checks test.
    """
    noise = np.atleast_2d(np.asarray(noise, dtype=float))
    k = noise.shape[0]
    if k < 1:
        raise InputError("at least one MC sample required")
    sig_grad = _sigmoid(post.pi)
    losses, grads = loss_grad_fn(sample(post, noise))
    loss, g_mu, g_pi = 0.0, np.zeros(post.d), np.zeros(post.d)
    for val, grad, eps in zip(losses, grads, noise):
        loss += val
        g_mu += grad
        g_pi += grad * eps * sig_grad
    kl, k_mu, k_pi = kl_to_prior(post, prior)
    return loss / k + kl, g_mu / k + k_mu, g_pi / k + k_pi


def head_loss_closure(features: np.ndarray, labels: np.ndarray) -> LossGradFn:
    """Total (summed) cross-entropy of an affine head on fixed features.

    Returns a callback mapping a (K, d) stack of flattened heads (weights
    then biases) to the K summed losses and gradients with one stacked
    matmul each way; summing rather than averaging gives the n_j * f_j
    scaling of the local objective.
    """
    labels = np.asarray(labels)
    rows = np.arange(len(features))

    def fn(heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w, _ = unflatten_head(heads[0], features.shape[1])   # checks d
        w_t = heads[:, :w.size].reshape(-1, *w.shape).transpose(0, 2, 1)
        shifted = features @ w_t + heads[:, None, w.size:]
        shifted -= shifted.max(axis=2, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=2))
        d_logits = np.exp(shifted - lse[..., None])
        d_logits[:, rows, labels] -= 1.0
        d_w = (d_logits.transpose(0, 2, 1) @ features).reshape(len(heads), -1)
        return ((lse - shifted[:, rows, labels]).sum(axis=1),
                np.concatenate([d_w, d_logits.sum(axis=1)], axis=1))

    return fn


GRAD_CLIP = 1e3


def fit_posterior(post: VariationalPosterior, prior: IsotropicPrior,
                  loss_grad_fn: LossGradFn, steps: int, lr: float, K: int,
                  rng: np.random.Generator,
                  grad_clip: float = GRAD_CLIP) -> VariationalPosterior:
    """Gradient descent on ``mc_objective``, the noise of all steps drawn
    as one (steps, K, d) block: the same numbers as a (K, d) draw per step.

    Steps whose joint gradient norm exceeds ``grad_clip`` are rescaled to
    that norm; ordinary training never reaches the threshold, it only tames
    the KL pull when tau sits at its clamp (near-zero posterior variance or
    near-zero deviation from the prior center).  A non-finite norm raises.
    """
    for noise in rng.standard_normal((steps, K, post.d)):
        _, d_mu, d_pi = mc_objective(post, prior, loss_grad_fn, noise)
        norm = float(np.sqrt((d_mu ** 2).sum() + (d_pi ** 2).sum()))
        if not np.isfinite(norm):
            raise FloatingPointError("posterior gradient norm is not finite")
        if norm > grad_clip:
            d_mu = d_mu * (grad_clip / norm)
            d_pi = d_pi * (grad_clip / norm)
        post = VariationalPosterior(post.mu - lr * d_mu, post.pi - lr * d_pi)
        if not (np.isfinite(post.mu).all() and np.isfinite(post.pi).all()):
            raise FloatingPointError("posterior update produced non-finite values")
    return post


@dataclass
class ConfidenceValue:
    """Client precision tau with its two denominator terms kept separately."""

    tau: float
    uncertainty: float   # Tr(Sigma)
    deviation: float     # ||mu - center||^2


def confidence(post: VariationalPosterior, center: np.ndarray,
               mode: str = "full",
               clamp: tuple[float, float] = (TAU_MIN, TAU_MAX)) -> ConfidenceValue:
    """tau = d / (Tr(Sigma) + ||mu - center||^2), clamped to ``clamp``.

    ``mode`` restricts the denominator to one of its terms for ablations:
    "uncertainty_only" keeps Tr(Sigma), "deviation_only" keeps the squared
    deviation.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != post.mu.shape:
        raise ShapeError("center dimension mismatch")
    if post.d < 1:
        raise InputError("dimension must be >= 1")
    uncertainty = post.trace()
    deviation = float(((post.mu - center) ** 2).sum())
    if mode == "full":
        denom = uncertainty + deviation
    elif mode == "uncertainty_only":
        denom = uncertainty
    elif mode == "deviation_only":
        denom = deviation
    else:
        raise ValueError(f"unknown confidence mode: {mode}")
    lo, hi = clamp
    tau = hi if denom <= 0 else min(max(post.d / denom, lo), hi)
    return ConfidenceValue(tau=float(tau), uncertainty=uncertainty,
                           deviation=deviation)
