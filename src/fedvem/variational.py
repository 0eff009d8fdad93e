"""Gaussian variational machinery for the personalized head.

A client's head parameters carry a diagonal Gaussian posterior with mean
``mu`` and pre-softplus scales ``pi`` (sigma = softplus(pi) guarantees
positivity).  The conditional prior is an isotropic Gaussian centered at the
shared latent head with precision tau.  This module provides reparametrized
sampling, the closed-form KL with its analytic gradient, the Monte-Carlo
local objective, and the confidence value used for aggregation.

The head fit works on a stack of G clients at once: a posterior with (G, d)
means and scales, a prior with one precision per row, and (G, K, d) noise.
Rows never mix, so row j of a stacked fit is client j's fit alone, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .nn import InputError, ShapeError, unflatten_head

TAU_MIN = 1e-8
TAU_MAX = 1e8

# Objective callback: (G, K, d) heads, K per client -> (G, K) losses and
# (G, K, d) gradients.
LossGradFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class PosteriorError(FloatingPointError):
    """A non-finite head fit; ``row`` is the first failing row of the stack."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def softplus(x):
    """ln(1 + exp(x)), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    """Inverse of softplus for y > 0."""
    y = np.asarray(y, dtype=float)
    # ln(exp(y) - 1) = y + ln(1 - exp(-y)), stable for large y
    return y + np.log(-np.expm1(-y))


def _sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, overflow-free."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


@dataclass
class VariationalPosterior:
    """Diagonal Gaussian over the flattened head parameters: one client's
    (d,) vectors, or a (G, d) stack of G clients' for the head fit."""

    mu: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.mu.shape != self.pi.shape or self.mu.ndim not in (1, 2):
            raise ShapeError("mu and pi must be 1-D vectors or 2-D stacks "
                             "of equal shape")

    @property
    def d(self) -> int:
        return self.mu.shape[-1]

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
    """Isotropic Gaussian conditional prior N(center, I/tau); for a stack,
    ``tau`` holds one precision per row."""

    center: np.ndarray
    tau: float | np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if np.any(np.asarray(self.tau) <= 0):
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
    A (G, d) stack gives (G,) KLs and (G, d) gradients.
    """
    return _kl_terms(post, prior, post.sigma, _sigmoid(post.pi))


def _kl_terms(post: VariationalPosterior, prior: IsotropicPrior,
              sigma: np.ndarray, sigma_slope: np.ndarray,
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """``kl_to_prior`` given sigma = softplus(pi) and its slope sigmoid(pi),
    so a caller that already holds them computes neither again."""
    if prior.center.shape[-1:] != post.mu.shape[-1:]:
        raise ShapeError("prior center dimension mismatch")
    tau = np.asarray(prior.tau, dtype=float)[..., None]
    diff = post.mu - prior.center
    log_rho = -0.5 * np.log(tau)
    kl = np.sum(log_rho - np.log(sigma)
                + (sigma ** 2 + diff ** 2) * tau / 2.0 - 0.5, axis=-1)
    d_sigma = -1.0 / sigma + sigma * tau
    return kl, diff * tau, d_sigma * sigma_slope


def mc_objective(post: VariationalPosterior, prior: IsotropicPrior,
                 loss_grad_fn: LossGradFn, noise: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The local objectives of a stack: per row, (1/K) sum_k loss(w_k) + KL.

    ``post`` is a (G, d) stack, ``noise`` a (G, K, d) array of standard-normal
    draws and w = mu + sigma * noise the reparametrized heads, which the
    callback treats as constant.  Returns the (G,) objectives and their
    (G, d) gradients w.r.t. mu and pi, which flow through the
    reparametrization; each row's K terms are added in the order
    k = 0..K-1.  This is the function ``fit_posterior`` descends and the one
    the gradient checks test.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 3 or noise.shape[::2] != post.mu.shape:
        raise InputError(f"noise shape {noise.shape} does not fit a posterior "
                         f"stack of shape {post.mu.shape}")
    k = noise.shape[1]
    if k < 1:
        raise InputError("at least one MC sample required")
    sigma, sigma_slope = post.sigma, _sigmoid(post.pi)
    losses, grads = loss_grad_fn(post.mu[:, None] + sigma[:, None] * noise)
    loss = 0.0
    for column in losses.T:   # in order: sum(axis=1) pairs from K = 8 on
        loss = loss + column
    g_pi = grads * noise * sigma_slope[:, None]
    kl, k_mu, k_pi = _kl_terms(post, prior, sigma, sigma_slope)
    return (loss / k + kl, grads.sum(axis=1, initial=0.0) / k + k_mu,
            g_pi.sum(axis=1, initial=0.0) / k + k_pi)


def head_loss_closure(features: Sequence[np.ndarray],
                      labels: Sequence[np.ndarray]) -> LossGradFn:
    """Total (summed) cross-entropy of affine heads on G clients' fixed
    features of one width; summing rather than averaging gives the
    n_j * f_j scaling of the local objective.

    Returns a callback mapping a (G, K, d) stack of flattened heads (weights
    then biases), K per client, to the (G, K) losses and (G, K, d)
    gradients.  Each client's two matmuls and bias-gradient sum run on its
    own rows, exactly as a one-client call would run them; everything else
    runs once over the clients' rows side by side in two (K, N, C) buffers
    that are reused from call to call.
    """
    width = features[0].shape[1]
    counts = [len(f) for f in features]
    rows = [slice(end - n, end) for n, end in zip(counts, np.cumsum(counts))]
    labels = np.concatenate(labels).astype(np.intp)
    picked = (slice(None), np.arange(len(labels)), labels)
    buffers: list[np.ndarray] = []

    def fn(heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        classes = unflatten_head(heads[0, 0], width)[1].size   # checks d
        split = classes * width
        g, k, _ = heads.shape
        if g != len(rows):
            raise ShapeError(f"{g} head stacks for {len(rows)} clients")
        shape = (k, len(labels), classes)
        if not buffers or buffers[0].shape != shape:
            buffers[:] = [np.empty(shape), np.empty(shape)]
        logits, d_logits = buffers
        w_t = heads[..., :split].reshape(g, k, classes, width).transpose(
            0, 1, 3, 2)
        for r, f, w in zip(rows, features, w_t):
            np.matmul(f, w, out=logits[:, r])
        logits += np.repeat(heads[..., split:].transpose(1, 0, 2), counts,
                            axis=1)
        # an elementwise chain beats max(axis=2) on a few classes
        top = logits[..., 0].copy()
        for c in range(1, classes):
            np.maximum(top, logits[..., c], out=top)
        logits -= top[..., None]
        lse = np.log(np.exp(logits, out=d_logits).sum(axis=2))
        np.exp(np.subtract(logits, lse[..., None], out=d_logits), out=d_logits)
        d_logits[picked] -= 1.0
        nll = lse - logits[picked]
        losses, grads = np.empty((g, k)), np.empty(heads.shape)
        d_w = grads[..., :split].reshape(g, k, classes, width)
        for r, f, loss, g_w, g_b in zip(rows, features, losses, d_w,
                                        grads[..., split:]):
            nll[:, r].sum(axis=1, out=loss)
            np.matmul(d_logits[:, r].transpose(0, 2, 1), f, out=g_w)
            d_logits[:, r].sum(axis=1, out=g_b)
        return losses, grads

    return fn


GRAD_CLIP = 1e3


def fit_posterior(post: VariationalPosterior, prior: IsotropicPrior,
                  loss_grad_fn: LossGradFn, steps: int, lr: float, K: int,
                  rngs: Sequence[np.random.Generator],
                  grad_clip: float = GRAD_CLIP) -> VariationalPosterior:
    """Gradient descent on ``mc_objective`` for a (G, d) posterior stack.

    Row j draws its (K, d) noise per step from ``rngs[j]``: the same numbers
    as one (steps, K, d) draw, leaving the stream where that draw leaves it.
    A row whose joint gradient norm exceeds ``grad_clip`` is rescaled to
    that norm; ordinary training never reaches the threshold, it only tames
    the KL pull when tau sits at its clamp (near-zero posterior variance or
    near-zero deviation from the prior center).  A non-finite norm or update
    raises ``PosteriorError`` naming the first such row.
    """
    if len(rngs) != len(post.mu):
        raise ShapeError(f"{len(rngs)} streams for {len(post.mu)} posteriors")
    noise = np.empty((len(post.mu), K, post.d))
    for _ in range(steps):
        for rng, eps in zip(rngs, noise):
            rng.standard_normal(out=eps)
        _, d_mu, d_pi = mc_objective(post, prior, loss_grad_fn, noise)
        norm = np.sqrt((d_mu ** 2).sum(axis=1) + (d_pi ** 2).sum(axis=1))
        _check_rows(np.isfinite(norm), "posterior gradient norm is not finite")
        clip = norm > grad_clip
        if clip.any():
            scale = grad_clip / norm[clip, None]
            d_mu[clip] *= scale
            d_pi[clip] *= scale
        post = VariationalPosterior(post.mu - lr * d_mu, post.pi - lr * d_pi)
        _check_rows(np.isfinite(post.mu).all(axis=1)
                    & np.isfinite(post.pi).all(axis=1),
                    "posterior update produced non-finite values")
    return post


def _check_rows(ok: np.ndarray, message: str) -> None:
    if not ok.all():
        raise PosteriorError(message, int(np.argmin(ok)))


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
