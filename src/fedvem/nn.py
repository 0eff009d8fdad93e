"""Minimal dense MLP with exact reverse-mode gradients.

The network is a fixed topology: ReLU hidden layers (the "base") followed
by one affine classifier layer (the "head").  A model is the list of its
layers in order, ``[*base, head]``; a base alone is the same list without
its last layer; `flatten` and `unflatten` are its one flat form, which the
head vector, the upload and the checkpoint share.  Everything is float64
numpy; gradients are derived by hand for this topology, which keeps the
whole training loop dependency-free and easy to check against finite
differences.  `sgd_epochs` is the one mini-batch SGD loop, layers in and
flat rows out; every scheme trains through it, a group of clients at a
time, and one model is a group of one: `backward` and `sgd_step` take
arrays with a leading client axis.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable

import numpy as np

Layer = tuple[np.ndarray, np.ndarray]  # (weight (out, in), bias (out,))


class ShapeError(ValueError):
    """Incompatible tensor shapes; the message names the offending layer."""


class NumericError(FloatingPointError):
    """Non-finite values encountered; the message names where, and ``row``
    the failing client of a group or stack."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


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
    """Views of `flatten`ed models along ``vec``'s last axis as layers:
    (..., P) gives (..., out, in) weights and (..., out) biases."""
    lead, layers, end = vec.shape[:-1], [], 0
    for o, i in shapes:
        start, mid, end = end, end + o * i, end + o * i + o
        layers.append((vec[..., start:mid].reshape(lead + (o, i)),
                       vec[..., mid:end]))
    if end != vec.shape[-1]:
        raise ShapeError(f"{vec.shape[-1]} parameters for layers of shapes "
                         f"{shapes}")
    return layers


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
    # w is one weight (out, in) or a group's stack (G, out, in)
    if x.ndim != 2 or x.shape[1] != w.shape[-1]:
        raise ShapeError(f"{name}: input of shape {x.shape} incompatible "
                         f"with weight {w.shape[-2:]}")


def _gather(arrays: list[np.ndarray], idx: list[np.ndarray]) -> np.ndarray:
    """Each ``arrays[i][idx[i]]``, end to end."""
    if len(idx) == 1:
        return arrays[0][idx[0]]
    return np.concatenate([a[i] for a, i in zip(arrays, idx)])


def _rows(sizes: list[int]):
    """Each client's slice of rows laid end to end, ``sizes[i]`` of them."""
    return map(slice, accumulate(sizes[:-1], initial=0), accumulate(sizes))


def _rowwise(a: np.ndarray, m: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Client i's rows of ``a`` times ``m[i]``, end to end, each on its own
    rows: a row's bits depend on how many rows share its gemm."""
    if len(sizes) == 1:
        return a @ m[0]
    out = np.empty((len(a), m.shape[2]))
    for r, m_i in zip(_rows(sizes), m):
        np.matmul(a[r], m_i, out=out[r])
    return out


def _affine(x: np.ndarray, layer: Layer, sizes: list[int],
            name: str) -> np.ndarray:
    """``x @ w.T + b`` for a group: client i's layer on its rows."""
    w, b = layer
    _check_layer(x, w, name)
    out = _rowwise(x, w.mT, sizes)
    out += b[0] if len(sizes) == 1 else np.repeat(b, sizes, axis=0)
    return out


def head_logits(features: np.ndarray, head: Layer) -> np.ndarray:
    """Logits of the head layer ``(W, b)`` on (B, width) features; every
    logit outside the stacked head fit and SGD is computed here."""
    return _affine(features, (head[0][None], head[1][None]), [len(features)],
                   "head")


def _base_acts(base: list[Layer], x: np.ndarray,
               sizes: list[int]) -> list[np.ndarray]:
    """The input and every hidden layer's ReLU activation, in order, for a
    group: client i's base on its rows."""
    acts = [x]
    for k, layer in enumerate(base):
        z = _affine(acts[-1], layer, sizes, f"base layer {k}")
        acts.append(np.maximum(z, 0.0, out=z))
    return acts


def forward_base(base: list[Layer], x: np.ndarray) -> np.ndarray:
    """Hidden-layer stack only; returns the representation fed to the head."""
    return _base_acts([(w[None], b[None]) for w, b in base], x, [len(x)])[-1]


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


def _softmax(logits: np.ndarray) -> np.ndarray:   # in place
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _layer_grads(dz: np.ndarray, a: np.ndarray, sizes: list[int],
                 out: Layer) -> None:
    """Each client's weight and bias gradient, from its own rows of the
    output gradient ``dz`` and the layer input ``a``, into ``out``."""
    for r, gw, gb in zip(_rows(sizes), *out):
        np.matmul(dz[r].T, a[r], out=gw)
        dz[r].sum(axis=0, out=gb)


def backward(model: list[Layer], batch: np.ndarray, labels: np.ndarray,
             sizes: list[int], out: list[Layer] | None = None) -> list[Layer]:
    """Exact gradient of each client's cross_entropy on its own rows w.r.t.
    its layers, in layer order, for a group of G models.

    Each array of ``model`` stacks G models on a leading axis; ``batch`` and
    ``labels`` hold their rows end to end, ``sizes[i]`` of them model i's.
    The gradients, stacked alike, are written into ``out`` (default: new
    arrays; one layer short of ``model``, it skips the head) and returned.
    """
    labels = np.asarray(labels)
    *base, top = model
    out = out or [(np.empty(w.shape), np.empty(b.shape)) for w, b in model]
    acts = _base_acts(base, batch, sizes)
    logits = _affine(acts[-1], top, sizes, "head")

    c = logits.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise InputError(f"labels must lie in [0, {c})")
    d_logits = _softmax(logits)
    d_logits[np.arange(len(labels)), labels] -= 1.0
    d_logits /= (sizes[0] if len(sizes) == 1    # each client's own mean
                 else np.repeat(sizes, sizes)[:, None])

    if len(out) == len(model):
        _layer_grads(d_logits, acts[-1], sizes, out[-1])
    dh = _rowwise(d_logits, top[0], sizes)
    for k in range(len(base) - 1, -1, -1):
        dh *= acts[k + 1] > 0
        _layer_grads(dh, acts[k], sizes, out[k])
        if k:   # nothing reads the gradient w.r.t. the input batch
            dh = _rowwise(dh, base[k][0], sizes)
    return out


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float,
             shapes: list[tuple[int, int]], ids=None) -> None:
    """params -= lr * grads in place, on (G, P) rows of `flatten`ed models
    with layers of ``shapes``.  A non-finite gradient raises NumericError
    before the step, naming the first such layer of the first client by
    ``ids`` (default: row order) with one; its ``row`` is that id."""
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    if not np.isfinite(grads).all():
        ids, bad = ids or range(len(grads)), ~np.isfinite(grads)
        i = min(np.flatnonzero(bad.any(axis=1)), key=lambda i: ids[i])
        k = np.searchsorted(np.cumsum([o * n + o for o, n in shapes]),
                            bad[i].argmax(), side="right")
        raise NumericError(f"non-finite gradient in layer {k}", ids[i])
    params -= lr * grads


def _batches(rng: np.random.Generator, n: int, epochs: int, batch: int):
    """A client's batches of row indices: one ``rng.permutation(n)`` as each
    epoch begins, then its slices."""
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch):
            yield perm[start:start + batch]


def sgd_epochs(layers: list[Layer], rows: list[tuple[np.ndarray, np.ndarray]],
               lr: float, epochs: int, batch: int,
               rngs: list[np.random.Generator],
               heads: Callable[[list[int]], np.ndarray] | None = None,
               mu_prox: float = 0.0) -> np.ndarray:
    """Mini-batch SGD of a group of clients from ``layers``, each trained on
    ``rows[i] = (x, y)`` exactly as alone: one ``rngs[i].permutation`` per
    epoch, then its batches.  Step s is each client's own s-th batch; sorted
    by batch count, the clients still training are a prefix of one (G, P)
    buffer of flat models, stepped together.  With ``heads``, ``layers`` is
    a base, topped on each batch by the flat heads ``heads(ids)`` draws (a
    row per client index, after the permutation), and is all that is
    stepped.  ``mu_prox`` adds FedProx's pull ``mu_prox * (w - w0)`` towards
    ``w0 = flatten(layers)`` to every gradient.  Returns the trained models
    as `flatten`ed (G, P) rows in client order; a ``NumericError``'s ``row``
    is a client's index."""
    sizes = [len(y) for _, y in rows]
    steps = [epochs * -(-n // batch) for n in sizes]
    order = sorted(range(len(rows)), key=steps.__getitem__, reverse=True)
    batches = [_batches(rngs[i], sizes[i], epochs, batch) for i in order]
    xs, ys = [rows[i][0] for i in order], [rows[i][1] for i in order]
    shapes = [w.shape for w, _ in layers]
    anchor = flatten(layers)
    params = np.array([anchor] * len(rows))   # row p: order[p]
    grads = np.empty_like(params)
    g = 0
    for s in range(max(steps, default=0)):
        if g == 0 or steps[order[g - 1]] <= s:   # some clients are done
            g = sum(n > s for n in steps)
            del batches[g:]
            active = order[:g]
            prefix = params[:g], grads[:g], lr, shapes, active
            group, out = (unflatten(a, shapes) for a in prefix[:2])
        parts = list(map(next, batches))   # each client's own batch
        x, y = _gather(xs, parts), _gather(ys, parts)
        model = group if heads is None else [
            *group, unflatten_head(heads(active), shapes[-1][0])]
        backward(model, x, y, list(map(len, parts)), out=out)
        if mu_prox:
            grads[:g] += mu_prox * (params[:g] - anchor)
        sgd_step(*prefix)
    return params[np.argsort(order)]
