"""Minimal dense MLP with exact reverse-mode gradients.

The network is a fixed topology: ReLU hidden layers (the "base") followed
by one affine classifier layer (the "head").  A model is the list of its
layers in order, ``[*base, head]``; a base alone is the same list without
its last layer; `flatten` and `unflatten` are its one flat form, which the
head vector, the upload and the checkpoint share.  Everything is float64
numpy; gradients are derived by hand for this topology, which keeps the
whole training loop dependency-free and easy to check against finite
differences.  `sgd_epochs` is the one mini-batch SGD loop; every scheme
trains through it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Layer = tuple[np.ndarray, np.ndarray]  # (weight (out, in), bias (out,))


class ShapeError(ValueError):
    """Incompatible tensor shapes; the message names the offending layer."""


class NumericError(FloatingPointError):
    """Non-finite values encountered; the message names the layer."""


class InputError(ValueError):
    """Invalid input data (e.g. label out of range)."""


def init_mlp(input_dim: int, hidden: tuple[int, ...], classes: int,
             rng: np.random.Generator) -> list[Layer]:
    """``[*hidden layers, head]``, each uniform on
    [-1/sqrt(fan_in), 1/sqrt(fan_in)], drawn in layer order."""
    dims = (input_dim, *hidden, classes)
    model = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        model.append((rng.uniform(-bound, bound, size=(fan_out, fan_in)),
                      rng.uniform(-bound, bound, size=fan_out)))
    return model


def flatten(layers: list[Layer]) -> np.ndarray:
    """One vector: each layer's weight in row-major order, then its bias."""
    return np.concatenate([a.ravel() for layer in layers for a in layer])


def unflatten(vec: np.ndarray, shapes: list[tuple[int, int]]) -> list[Layer]:
    """Views of a `flatten`ed ``vec`` as layers with (out, in) weights."""
    sizes = [n for out_dim, in_dim in shapes
             for n in (out_dim * in_dim, out_dim)]
    if sum(sizes) != vec.size:
        raise ShapeError(f"{vec.size} parameters for layers of shapes {shapes}")
    parts = np.split(vec, np.cumsum(sizes)[:-1])
    return [(w.reshape(shape), b)
            for shape, w, b in zip(shapes, parts[::2], parts[1::2])]


def unflatten_head(vec: np.ndarray, width: int) -> Layer:
    """Views (W, b) of the flat heads along ``vec``'s last axis, d = classes *
    (width + 1): (..., d) gives (..., classes, width) and (..., classes)."""
    d = vec.shape[-1]
    classes, rem = divmod(d, width + 1)
    if rem != 0 or classes < 1:
        raise ShapeError(f"head dim {d} incompatible with feature width {width}")
    split = classes * width
    return (vec[..., :split].reshape(*vec.shape[:-1], classes, width),
            vec[..., split:])


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


def forward(model: list[Layer], batch: np.ndarray) -> np.ndarray:
    """Logits for a (B, input_dim) batch."""
    return head_logits(forward_base(model[:-1], batch), model[-1])


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


def backward(model: list[Layer], batch: np.ndarray,
             labels: np.ndarray) -> list[Layer]:
    """Exact gradient of cross_entropy w.r.t. every layer, in layer order."""
    labels = np.asarray(labels)
    *base, head = model
    acts = _base_acts(base, batch)
    logits = head_logits(acts[-1], head)

    c = logits.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise InputError(f"labels must lie in [0, {c})")
    d_logits = _softmax(logits)
    d_logits[np.arange(len(labels)), labels] -= 1.0
    d_logits /= len(labels)

    grads: list[Layer] = [None] * len(model)  # type: ignore[list-item]
    grads[-1] = (d_logits.T @ acts[-1], d_logits.sum(axis=0))
    dh = d_logits @ head[0]
    for k in range(len(base) - 1, -1, -1):
        dz = dh * (acts[k + 1] > 0)
        grads[k] = (dz.T @ acts[k], dz.sum(axis=0))
        if k:   # nothing reads the gradient w.r.t. the input batch
            dh = dz @ base[k][0]
    return grads


def sgd_step(layers: list[Layer], grads: list[Layer],
             lr: float) -> list[Layer]:
    """layers - lr * grads, elementwise.  Rejects non-finite gradients."""
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    out = []
    for k, ((w, b), (gw, gb)) in enumerate(zip(layers, grads)):
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise NumericError(f"non-finite gradient in layer {k}")
        out.append((w - lr * gw, b - lr * gb))
    return out


def sgd_epochs(layers: list[Layer], x: np.ndarray, y: np.ndarray, lr: float,
               epochs: int, batch: int, rng: np.random.Generator,
               head: Callable[[], Layer] | None = None,
               extra: Callable[[list[Layer]], list[Layer]] | None = None,
               ) -> list[Layer]:
    """Mini-batch SGD: one ``rng.permutation`` per epoch, then its batches.

    With ``head``, ``layers`` is a base: each batch runs on it topped by a
    fresh ``head()``, and only the base is stepped and returned.
    ``extra(layers)`` (if given) adds a regularizer's gradients layer by
    layer, e.g. a proximal pull.  ``layers`` is not modified.
    """
    n = len(x)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            ix = perm[start:start + batch]
            model = layers if head is None else [*layers, head()]
            grads = backward(model, x[ix], y[ix])[:len(layers)]
            if extra is not None:
                grads = [(gw + ew, gb + eb) for (gw, gb), (ew, eb)
                         in zip(grads, extra(layers))]
            layers = sgd_step(layers, grads, lr)
    return layers
