"""Gaussian variational machinery for the personalized head.

A client's head parameters carry a diagonal Gaussian posterior with mean
``mu`` and pre-softplus scales ``pi`` (sigma = softplus(pi) guarantees
positivity).  The conditional prior is an isotropic Gaussian centered at the
shared latent head with precision tau.  This module provides reparametrized
sampling, the closed-form KL with its analytic gradient, the Monte-Carlo
local objective, and the confidence value used for aggregation.  Its
gradients come from ``_gradients`` alone, which ``fit_posterior`` descends.

The head fit and the confidence work on a stack of G clients at once: a
posterior with (G, d) means and scales, a prior with one precision per row,
and (G, K, d) noise.  Rows never mix, so row j of a stacked fit or
confidence is client j's alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .nn import InputError, NumericError, ShapeError, unflatten_head

TAU_MIN = 1e-8
TAU_MAX = 1e8

# Objective callback: (G, K, d) heads, K per client, and ``value`` -> (G, K)
# losses (or None if not ``value``) and (G, K, d) gradients.
LossGradFn = Callable[..., tuple[np.ndarray | None, np.ndarray]]


class PosteriorError(NumericError):
    """A non-finite head fit; ``row`` is the first failing row of the stack."""


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
    sigma = post.sigma
    k_mu, k_pi = _kl_gradients(post.mu, sigma, _sigmoid(post.pi), prior)
    tau = np.asarray(prior.tau, dtype=float)[..., None]
    kl = np.sum(-0.5 * np.log(tau) - np.log(sigma)
                + (sigma ** 2 + (post.mu - prior.center) ** 2) * tau / 2.0
                - 0.5, axis=-1)
    return kl, k_mu, k_pi


def _kl_gradients(mu, sigma, sigma_slope, prior: IsotropicPrior):
    """``kl_to_prior``'s gradients, given sigma and its slope sigmoid(pi)."""
    if prior.center.shape[-1:] != mu.shape[-1:]:
        raise ShapeError("prior center dimension mismatch")
    tau = np.asarray(prior.tau, dtype=float)[..., None]
    return (mu - prior.center) * tau, (-1.0 / sigma + sigma * tau) * sigma_slope


def mc_objective(post: VariationalPosterior, prior: IsotropicPrior,
                 loss_grad_fn: LossGradFn, noise: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The local objectives of a stack: per row, (1/K) sum_k loss(w_k) + KL.

    ``post`` is a (G, d) stack, ``noise`` a (G, K, d) array of standard-normal
    draws and w = mu + sigma * noise the reparametrized heads, which the
    callback treats as constant.  Returns the (G,) objectives and their
    (G, d) gradients w.r.t. mu and pi, which flow through the
    reparametrization; each row's K terms are added in the order
    k = 0..K-1.  The gradients are ``_gradients``, the step that
    ``fit_posterior`` descends, so the gradient checks test the fit's step.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 3 or noise.shape[::2] != post.mu.shape:
        raise InputError(f"noise shape {noise.shape} does not fit a posterior "
                         f"stack of shape {post.mu.shape}")
    if noise.shape[1] < 1:
        raise InputError("at least one MC sample required")
    losses, d_mu, d_pi = _gradients(post.mu, post.pi, prior, loss_grad_fn,
                                    noise, value=True)
    loss = 0.0
    for column in losses.T:   # in order: sum(axis=1) pairs from K = 8 on
        loss = loss + column
    return loss / noise.shape[1] + kl_to_prior(post, prior)[0], d_mu, d_pi


def _gradients(mu, pi, prior: IsotropicPrior, loss_grad_fn: LossGradFn,
               noise, heads=None, g_pi=None, value: bool = False):
    """The callback's losses (None unless ``value``) and the objectives' mu
    and pi gradients; ``heads`` and ``g_pi`` are buffers for the products."""
    sigma, sigma_slope = softplus(pi), _sigmoid(pi)
    heads = np.multiply(sigma[:, None], noise, out=heads)
    heads += mu[:, None]
    losses, grads = loss_grad_fn(heads, value=value)
    g_pi = np.multiply(grads, noise, out=g_pi)
    g_pi *= sigma_slope[:, None]
    k_mu, k_pi = _kl_gradients(mu, sigma, sigma_slope, prior)
    k = noise.shape[1]
    return (losses, grads.sum(axis=1, initial=0.0) / k + k_mu,
            g_pi.sum(axis=1, initial=0.0) / k + k_pi)


def _fold_columns(op, a: np.ndarray) -> np.ndarray:
    """``op`` left to right across a's last axis, faster than a reduction on
    a few class columns.  On fewer than 8 columns np.add gives the bits of
    a.sum(axis=-1): numpy's pairwise sum is that chain below 8 terms."""
    out = a[..., 0].copy()
    for c in range(1, a.shape[-1]):
        op(out, a[..., c], out=out)
    return out


def head_loss_closure(features: Sequence[np.ndarray],
                      labels: Sequence[np.ndarray]) -> LossGradFn:
    """Total (summed) cross-entropy of affine heads on G clients' fixed
    features of one width; summing rather than averaging gives the
    n_j * f_j scaling of the local objective.

    Returns a callback mapping a (G, K, d) stack of flattened heads (weights
    then biases), K per client, to the (G, K) losses (None if ``value`` is
    false) and (G, K, d) gradients.  Each client's two matmuls and
    bias-gradient sum run on its own rows, exactly as a one-client call would
    run them; everything else runs once over the clients' rows side by side
    in (K, N, C) buffers reused from call to call.  Labels must lie in [0, C).
    """
    width = features[0].shape[1]
    counts = [len(f) for f in features]
    rows = [slice(end - n, end) for n, end in zip(counts, np.cumsum(counts))]
    labels = np.concatenate(labels).astype(np.intp)
    buffers: list[np.ndarray] = []

    def fn(heads: np.ndarray, value: bool = True):
        w, b = unflatten_head(heads, width)   # checks d
        g, k, classes, _ = w.shape
        if g != len(rows):
            raise ShapeError(f"{g} head stacks for {len(rows)} clients")
        shape = (k, len(labels), classes)
        if not buffers or buffers[0].shape != shape:
            if labels.min(initial=0) < 0 or labels.max(initial=0) >= classes:
                raise InputError(f"labels must lie in [0, {classes})")
            # x - 0.0 == x: the one-hot changes only the picked entries
            buffers[:] = [np.empty(shape), np.empty(shape),
                          np.eye(classes)[labels]]
        logits, d_logits, one_hot = buffers
        for r, f, w_j in zip(rows, features, w.transpose(0, 1, 3, 2)):
            np.matmul(f, w_j, out=logits[:, r])
        logits += np.repeat(b.transpose(1, 0, 2), counts, axis=1)
        logits -= _fold_columns(np.maximum, logits)[..., None]
        np.exp(logits, out=d_logits)
        lse = np.log(_fold_columns(np.add, d_logits) if classes < 8
                     else d_logits.sum(axis=2))
        np.exp(np.subtract(logits, lse[..., None], out=d_logits), out=d_logits)
        d_logits -= one_hot
        grads = np.empty(heads.shape)
        for r, f, g_w, g_b in zip(rows, features,
                                  *unflatten_head(grads, width)):
            np.matmul(d_logits[:, r].transpose(0, 2, 1), f, out=g_w)
            # the rows in the same order, summed faster from an (n, K, C) copy
            d_logits[:, r].transpose(1, 0, 2).copy().sum(axis=0, out=g_b)
        if not value:
            return None, grads
        nll = lse - logits[:, np.arange(len(labels)), labels]
        losses = np.empty((g, k))
        for r, loss in zip(rows, losses):
            nll[:, r].sum(axis=1, out=loss)
        return losses, grads

    return fn


GRAD_CLIP = 1e3


def fit_posterior(post: VariationalPosterior, prior: IsotropicPrior,
                  loss_grad_fn: LossGradFn, steps: int, lr: float, K: int,
                  rngs: Sequence[np.random.Generator]) -> VariationalPosterior:
    """Gradient descent on ``mc_objective``'s gradients, without its value,
    for a (G, d) posterior stack.  Row j draws its (K, d) noise per step
    from ``rngs[j]``: the same numbers as one (steps, K, d) draw, leaving
    the stream where that draw leaves it.  A row whose joint gradient norm
    exceeds ``GRAD_CLIP`` is rescaled to that norm; ordinary training never
    reaches the threshold, it only tames the KL pull when tau sits at its
    clamp (near-zero posterior variance or near-zero deviation from the
    prior center).  A non-finite norm or update raises ``PosteriorError``
    naming the first such row.
    """
    if len(rngs) != len(post.mu):
        raise ShapeError(f"{len(rngs)} streams for {len(post.mu)} posteriors")
    if K < 1:
        raise InputError("at least one MC sample required")
    mu, pi = post.mu, post.pi
    noise, heads, g_pi = np.empty((3, len(mu), K, post.d))
    for _ in range(steps):
        for rng, eps in zip(rngs, noise):
            rng.standard_normal(out=eps)
        _, d_mu, d_pi = _gradients(mu, pi, prior, loss_grad_fn, noise, heads,
                                   g_pi)
        norm = np.sqrt((d_mu ** 2).sum(axis=1) + (d_pi ** 2).sum(axis=1))
        _check_rows(np.isfinite(norm), "posterior gradient norm is not finite")
        clip = norm > GRAD_CLIP
        if clip.any():
            scale = GRAD_CLIP / norm[clip, None]
            d_mu[clip] *= scale
            d_pi[clip] *= scale
        mu, pi = mu - lr * d_mu, pi - lr * d_pi
        _check_rows(np.isfinite(mu).all(axis=1) & np.isfinite(pi).all(axis=1),
                    "posterior update produced non-finite values")
    return VariationalPosterior(mu, pi)


def _check_rows(ok: np.ndarray, message: str) -> None:
    if not ok.all():
        raise PosteriorError(message, int(np.argmin(ok)))


@dataclass
class ConfidenceValue:
    """Client precision tau with its two denominator terms kept separately:
    scalars for one posterior, (G,) arrays for a (G, d) stack."""

    tau: float | np.ndarray
    uncertainty: float | np.ndarray   # Tr(Sigma)
    deviation: float | np.ndarray     # ||mu - center||^2


def confidence(post: VariationalPosterior, center: np.ndarray,
               mode: str = "full") -> ConfidenceValue:
    """tau = d / (Tr(Sigma) + ||mu - center||^2) within [TAU_MIN, TAU_MAX],
    TAU_MAX at a zero denominator; row j of a (G, d) stack gets the bits of
    a call on row j alone.

    ``mode`` restricts the denominator to one of its terms for ablations:
    "uncertainty_only" keeps Tr(Sigma), "deviation_only" keeps the squared
    deviation.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != post.mu.shape[-1:]:
        raise ShapeError("center dimension mismatch")
    if post.d < 1:
        raise InputError("dimension must be >= 1")
    uncertainty = (post.sigma ** 2).sum(axis=-1)
    deviation = ((post.mu - center) ** 2).sum(axis=-1)
    denoms = {"full": uncertainty + deviation,
              "uncertainty_only": uncertainty, "deviation_only": deviation}
    if mode not in denoms:
        raise ValueError(f"unknown confidence mode: {mode}")
    with np.errstate(divide="ignore"):   # d / 0 is replaced by TAU_MAX
        tau = np.where(denoms[mode] <= 0, TAU_MAX,
                       np.clip(post.d / denoms[mode], TAU_MIN, TAU_MAX))
    return ConfidenceValue(tau[()], uncertainty, deviation)   # 0-d: a scalar
