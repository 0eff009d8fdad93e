"""Minimal dense MLP with exact reverse-mode gradients.

The network is a fixed topology: ReLU hidden layers (the "base") followed
by one affine classifier layer (the "head").  Everything is float64 numpy;
gradients are derived by hand for this topology, which keeps the whole
training loop dependency-free and easy to check against finite differences.
`sgd_epochs` is the one mini-batch SGD loop; every scheme trains through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Layer = tuple[np.ndarray, np.ndarray]  # (weight (out, in), bias (out,))


class ShapeError(ValueError):
    """Incompatible tensor shapes; the message names the offending layer."""


class NumericError(FloatingPointError):
    """Non-finite values encountered; the message names the layer."""


class InputError(ValueError):
    """Invalid input data (e.g. label out of range)."""


@dataclass
class MlpParams:
    """Parameters split into hidden layers (base) and the final classifier (head)."""

    base: list[Layer]
    head: Layer


def init_mlp(input_dim: int, hidden: tuple[int, ...], classes: int,
             rng: np.random.Generator) -> MlpParams:
    """Uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    dims = (input_dim, *hidden)
    base = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        base.append((rng.uniform(-bound, bound, size=(fan_out, fan_in)),
                     rng.uniform(-bound, bound, size=fan_out)))
    bound = 1.0 / np.sqrt(dims[-1])
    head = (rng.uniform(-bound, bound, size=(classes, dims[-1])),
            rng.uniform(-bound, bound, size=classes))
    return MlpParams(base=base, head=head)


def flatten_head(head: Layer) -> np.ndarray:
    w, b = head
    return np.concatenate([w.ravel(), b.ravel()])


def unflatten_head(vec: np.ndarray, width: int) -> Layer:
    """Views (W, b) of a flat head on ``width`` features; the class count is
    the only one that fits ``len(vec) = classes * (width + 1)``."""
    classes, rem = divmod(vec.size, width + 1)
    if rem != 0 or classes < 1:
        raise ShapeError(
            f"head dim {vec.size} incompatible with feature width {width}")
    split = classes * width
    return vec[:split].reshape(classes, width), vec[split:]


def _check_layer(x: np.ndarray, w: np.ndarray, name: str) -> None:
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"{name}: input of shape {x.shape} incompatible with weight {w.shape}"
        )


def head_logits(features: np.ndarray, head: Layer) -> np.ndarray:
    """Logits of the head layer ``(W, b)`` on (B, width) features; every
    logit outside the stacked head fit is computed here."""
    w, b = head
    _check_layer(features, w, "head")
    return features @ w.T + b


def _base_acts(base: list[Layer], x: np.ndarray) -> list[np.ndarray]:
    """The input and every hidden layer's ReLU activation, in order."""
    acts = [x]
    for k, (w, b) in enumerate(base):
        _check_layer(acts[-1], w, f"base layer {k}")
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    return acts


def forward_base(base: list[Layer], x: np.ndarray) -> np.ndarray:
    """Hidden-layer stack only; returns the representation fed to the head."""
    return _base_acts(base, x)[-1]


def forward(params: MlpParams, batch: np.ndarray) -> np.ndarray:
    """Logits for a (B, input_dim) batch."""
    return head_logits(forward_base(params.base, batch), params.head)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-softmax at the true labels."""
    labels = np.asarray(labels)
    c = logits.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise InputError(f"labels must lie in [0, {c})")
    ls = log_softmax(logits)
    return float(-ls[np.arange(len(labels)), labels].mean())


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def backward(params: MlpParams, batch: np.ndarray, labels: np.ndarray,
             extra_loss_grads: MlpParams | None = None) -> MlpParams:
    """Exact gradient of cross_entropy (plus optional injected additive terms).

    `extra_loss_grads` carries the parameter-space gradients of any additive
    regularizer (KL term, proximal term); they are summed into the result.
    """
    labels = np.asarray(labels)
    acts = _base_acts(params.base, batch)
    logits = head_logits(acts[-1], params.head)

    c = logits.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise InputError(f"labels must lie in [0, {c})")
    d_logits = _softmax(logits)
    d_logits[np.arange(len(labels)), labels] -= 1.0
    d_logits /= len(labels)

    g_head = (d_logits.T @ acts[-1], d_logits.sum(axis=0))
    dh = d_logits @ params.head[0]
    g_base: list[Layer] = [None] * len(params.base)  # type: ignore[list-item]
    for k in range(len(params.base) - 1, -1, -1):
        dz = dh * (acts[k + 1] > 0)
        g_base[k] = (dz.T @ acts[k], dz.sum(axis=0))
        if k:   # nothing reads the gradient w.r.t. the input batch
            dh = dz @ params.base[k][0]

    grads = MlpParams(base=g_base, head=g_head)
    if extra_loss_grads is not None:
        grads = _add(grads, extra_loss_grads)
    return grads


def _add(a: MlpParams, b: MlpParams) -> MlpParams:
    return MlpParams(
        base=[(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(a.base, b.base)],
        head=(a.head[0] + b.head[0], a.head[1] + b.head[1]),
    )


def zeros_like(params: MlpParams) -> MlpParams:
    return MlpParams(
        base=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.base],
        head=(np.zeros_like(params.head[0]), np.zeros_like(params.head[1])),
    )


def sgd_step(params: MlpParams, grads: MlpParams, lr: float) -> MlpParams:
    """params - lr * grads, elementwise.  Rejects non-finite gradients."""
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")

    def step(p: Layer, g: Layer, name: str) -> Layer:
        if not (np.isfinite(g[0]).all() and np.isfinite(g[1]).all()):
            raise NumericError(f"non-finite gradient in {name}")
        return p[0] - lr * g[0], p[1] - lr * g[1]

    return MlpParams(
        base=[step(p, g, f"base layer {k}")
              for k, (p, g) in enumerate(zip(params.base, grads.base))],
        head=step(params.head, grads.head, "head"),
    )


def sgd_epochs(params: MlpParams, x: np.ndarray, y: np.ndarray, lr: float,
               epochs: int, batch: int, rng: np.random.Generator,
               head: Callable[[], Layer] | None = None,
               extra: Callable[[MlpParams], MlpParams] | None = None,
               ) -> MlpParams:
    """Mini-batch SGD: one ``rng.permutation`` per epoch, then its batches.

    Before each batch, ``head()`` (if given) replaces the head, and
    ``extra(params)`` (if given) adds a regularizer's gradients, e.g. a
    proximal pull.  ``params`` is not modified.
    """
    n = len(x)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            ix = perm[start:start + batch]
            if head is not None:
                params = MlpParams(base=params.base, head=head())
            grads = backward(params, x[ix], y[ix], extra_loss_grads=(
                None if extra is None else extra(params)))
            params = sgd_step(params, grads, lr)
    return params
