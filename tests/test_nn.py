import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvem import nn
from fedvem.nn import (InputError, NumericError, ShapeError, cross_entropy,
                       flatten, forward, init_mlp, sgd_epochs, sgd_step,
                       unflatten, unflatten_head)

from helpers import central_diff, model_grads, rel_err


def small_mlp(seed=0, input_dim=5, hidden=(4,), classes=3):
    return init_mlp(input_dim, hidden, classes, np.random.default_rng(seed))


def test_zero_params_give_zero_logits():
    params = [(np.zeros_like(w), np.zeros_like(b)) for w, b in small_mlp()]
    batch = np.random.default_rng(1).standard_normal((7, 5))
    assert np.all(forward(params, batch) == 0.0)


def test_identity_network_passes_inputs_through():
    # square identity hidden layer, identity head, nonnegative inputs
    eye = np.eye(4)
    params = [(eye.copy(), np.zeros(4)), (eye.copy(), np.zeros(4))]
    batch = np.abs(np.random.default_rng(2).standard_normal((6, 4)))
    np.testing.assert_array_equal(forward(params, batch), batch)


def test_forward_matches_triple_loop_oracle():
    rng = np.random.default_rng(3)
    params = init_mlp(4, (5,), 3, rng)
    batch = rng.standard_normal((4, 4))

    def naive_matmul(a, b_t):  # a (n, k) @ b_t (m, k)^T, elementwise loops
        out = np.zeros((a.shape[0], b_t.shape[0]))
        for i in range(a.shape[0]):
            for j in range(b_t.shape[0]):
                acc = 0.0
                for k in range(a.shape[1]):
                    acc += a[i, k] * b_t[j, k]
                out[i, j] = acc
        return out

    h = naive_matmul(batch, params[0][0]) + params[0][1]
    h = np.maximum(h, 0.0)
    expected = naive_matmul(h, params[1][0]) + params[1][1]
    np.testing.assert_allclose(forward(params, batch), expected, atol=1e-12)


def test_forward_shape_error_names_layer():
    params = small_mlp()
    with pytest.raises(ShapeError, match="base layer 0"):
        forward(params, np.zeros((2, 9)))


def test_forward_is_deterministic():
    params = small_mlp()
    batch = np.random.default_rng(4).standard_normal((8, 5))
    a = forward(params, batch)
    b = forward(params, batch)
    assert np.array_equal(a, b)


def test_cross_entropy_uniform_logits():
    logits = np.ones((5, 10)) * 3.7
    assert cross_entropy(logits, [0, 4, 9, 2, 7]) == pytest.approx(np.log(10), abs=1e-12)


def test_cross_entropy_large_margin_saturates():
    logits = np.zeros((2, 4))
    logits[0, 1] = 50.0
    logits[1, 3] = 50.0
    assert cross_entropy(logits, [1, 3]) < 1e-20


def test_cross_entropy_matches_logsumexp_oracle():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 3)) * 3
    labels = [0, 2, 1, 1]
    expected = 0.0
    for i, lab in enumerate(labels):
        lse = np.log(np.sum(np.exp(logits[i])))
        expected += lse - logits[i, lab]
    expected /= 4
    assert cross_entropy(logits, labels) == pytest.approx(expected, abs=1e-12)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(InputError):
        cross_entropy(np.zeros((2, 3)), [0, 3])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_cross_entropy_nonnegative(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((3, 4)) * 10
    labels = rng.integers(0, 4, size=3)
    assert cross_entropy(logits, labels) >= 0.0


def test_backward_zero_at_perfect_fit():
    # huge correct-class margins make softmax one-hot to machine precision
    features = np.abs(np.random.default_rng(6).standard_normal((5, 3)))
    labels = np.array([0, 1, 0, 1, 0])
    w = np.zeros((2, 3))
    w[0] = 300.0
    w[1] = -300.0
    params = [(w, np.zeros(2))]
    # flip sign so each row's true class wins by a large margin
    x = np.where(labels[:, None] == 0, features, -features)
    grads = model_grads(params, x, labels)
    assert np.linalg.norm(flatten(grads)) < 1e-8


def test_backward_single_layer_closed_form():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 4))
    labels = rng.integers(0, 3, size=6)
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    (g_w, g_b), = model_grads([(w, b)], x, labels)

    logits = x @ w.T + b
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    p[np.arange(6), labels] -= 1.0
    p /= 6
    np.testing.assert_allclose(g_w, p.T @ x, atol=1e-12)
    np.testing.assert_allclose(g_b, p.sum(axis=0), atol=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    # one hidden layer (~35 parameters), then two, whose upper layer
    # back-propagates into the lower one
    for hidden in [(4,), (4, 3)]:
        params = init_mlp(3, hidden, 3, rng)
        x = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        analytic = flatten(model_grads(params, x, labels))
        shapes = [w.shape for w, _ in params]

        def loss(vec):
            return cross_entropy(forward(unflatten(vec, shapes), x), labels)

        numeric = central_diff(loss, flatten(params))
        assert rel_err(analytic, numeric) <= 1e-4, hidden


def flat_rows(*models):
    """(G, P) rows of flattened models, and their layer shapes."""
    return (np.array([flatten(m) for m in models]),
            [w.shape for w, _ in models[0]])


def test_sgd_step_zero_lr_is_identity():
    params = small_mlp()
    flat, shapes = flat_rows(params)
    grads, _ = flat_rows(small_mlp(seed=1))
    sgd_step(flat, grads, 0.0, shapes)
    out = unflatten(flat[0], shapes)
    np.testing.assert_array_equal(out[-1][0], params[-1][0])
    np.testing.assert_array_equal(out[0][0], params[0][0])


def test_sgd_step_from_zero_params():
    params = small_mlp()
    grads, shapes = flat_rows(params)
    zero = np.zeros_like(grads)
    sgd_step(zero, grads, 1.0, shapes)
    out = unflatten(zero[0], shapes)
    np.testing.assert_array_equal(out[-1][0], -params[-1][0])


def test_sgd_two_steps_equal_summed_step_on_frozen_gradient():
    two, shapes = flat_rows(small_mlp())
    one = two.copy()
    grads, _ = flat_rows(small_mlp(seed=2))
    sgd_step(two, grads, 0.3, shapes)
    sgd_step(two, grads, 0.2, shapes)
    sgd_step(one, grads, 0.5, shapes)
    np.testing.assert_allclose(unflatten(two[0], shapes)[-1][0],
                               unflatten(one[0], shapes)[-1][0],
                               rtol=0, atol=1e-15)


def test_sgd_step_rejects_nonfinite_gradient():
    params, shapes = flat_rows(small_mlp())
    before = params.copy()
    grads, _ = flat_rows(small_mlp(seed=3))
    unflatten(grads[0], shapes)[1][0][0, 0] = np.nan
    with pytest.raises(NumericError, match="layer 1") as info:
        sgd_step(params, grads, 0.1, shapes)
    assert info.value.row == 0
    np.testing.assert_array_equal(params, before)   # nothing stepped


def test_sgd_step_names_the_first_failing_client_by_id():
    # rows 0 and 2 fail, in layers 1 and 0; by id, row 2 (id 1) comes first
    params, shapes = flat_rows(*(small_mlp(seed=s) for s in range(3)))
    grads = np.ones_like(params)
    unflatten(grads[0], shapes)[1][1][0] = np.inf
    unflatten(grads[2], shapes)[0][0][1, 2] = np.nan
    with pytest.raises(NumericError, match="layer 1$") as info:
        sgd_step(params, grads, 0.1, shapes)
    assert info.value.row == 0
    with pytest.raises(NumericError, match="layer 0$") as info:
        sgd_step(params, grads, 0.1, shapes, ids=[7, 4, 1])
    assert info.value.row == 1


def toy_rows(n=12, dim=4, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)), rng.integers(0, classes, size=n)


def test_sgd_epochs_zero_lr_is_identity():
    params = init_mlp(4, (3,), 2, np.random.default_rng(0))
    out, = sgd_epochs(params, [toy_rows()], 0.0, 3, 4,
                      [np.random.default_rng(0)])
    np.testing.assert_array_equal(out, flatten(params))


def test_sgd_epochs_does_not_mutate_input():
    params = init_mlp(4, (3,), 2, np.random.default_rng(0))
    before = params[-1][0].copy()
    sgd_epochs(params, [toy_rows()], 0.1, 2, 4, [np.random.default_rng(0)])
    np.testing.assert_array_equal(params[-1][0], before)


def test_sgd_epochs_with_head_trains_only_the_base(monkeypatch):
    # pFedVEM's base SGD: each batch tops the base with a fresh head
    # and steps only the base's gradients.  Client 0 has 11 rows (3 batches
    # of 4), client 1 has 5 (2): both step together for 2 epochs, then
    # client 0 alone.
    rng = np.random.default_rng(10)
    *base, head = init_mlp(3, (4, 5), 2, rng)
    rows = [(rng.standard_normal((n, 3)), rng.integers(0, 2, size=n))
            for n in (11, 5)]
    draws, stepped = [[], []], []

    def draw(j):
        draws[j].append(len(draws[j]))
        return flatten([head])

    def sgd_step(params, grads, lr, shapes, ids):
        stepped.append((grads.shape, shapes, list(ids)))
        return real_step(params, grads, lr, shapes, ids)

    real_step = nn.sgd_step
    monkeypatch.setattr(nn, "sgd_step", sgd_step)
    out = sgd_epochs(base, rows, 0.1, epochs=3, batch=4,
                     rngs=[rng, np.random.default_rng(11)],
                     heads=lambda ids: np.array([draw(j) for j in ids]))
    shapes = [w.shape for w, _ in base]
    size = sum(w.size + b.size for w, b in base)
    assert out.shape == (2, size)   # a flat base row per client
    assert len(draws[0]) == 3 * 3   # epochs x ceil(11 / 4) batches
    assert len(draws[1]) == 3 * 2
    assert stepped == ([((2, size), shapes, [0, 1])] * 6
                       + [((1, size), shapes, [0])] * 3)


@pytest.mark.parametrize("kind", ["plain", "prox", "head"])
def test_sgd_epochs_group_equals_each_client_alone(kind):
    # ragged clients at batch 50: less than a batch, an exact multiple, and
    # tails of 1, 30 and 0 rows, given out of batch-count order; FedProx's
    # pull must touch only the clients still training
    rng = np.random.default_rng(12)
    layers = init_mlp(6, (8, 5), 3, rng)
    if kind == "head":
        layers, d = layers[:-1], 3 * (5 + 1)
    rows = [(rng.standard_normal((n, 6)), rng.integers(0, 3, size=n))
            for n in (51, 7, 130, 50, 100)]
    mu_prox = 0.3 if kind == "prox" else 0.0

    def train(group):
        rngs = [np.random.default_rng(100 + j) for j in group]
        heads = ((lambda ids: np.array([0.1 * rngs[j].standard_normal(d)
                                        for j in ids]))
                 if kind == "head" else None)
        out = sgd_epochs(layers, [rows[j] for j in group], 0.2, 3, 50, rngs,
                         heads=heads, mu_prox=mu_prox)
        return out, [r.random() for r in rngs]

    together, next_draws = train(range(len(rows)))
    for j, row in enumerate(together):
        (alone,), (next_draw,) = train([j])
        assert row.tobytes() == alone.tobytes(), j
        assert next_draws[j] == next_draw, j
        assert row.tobytes() != flatten(layers).tobytes()


def test_head_flatten_roundtrip():
    params = small_mlp()
    vec = flatten([params[-1]])
    w, b = unflatten_head(vec, params[-1][0].shape[1])
    np.testing.assert_array_equal(w, params[-1][0])
    np.testing.assert_array_equal(b, params[-1][1])

    # a (G, K, d) stack: the same views as one call per head, sharing memory
    stack = np.random.default_rng(3).standard_normal((2, 3, vec.size))
    w, b = unflatten_head(stack, params[-1][0].shape[1])
    assert w.shape == (2, 3, *params[-1][0].shape)
    assert np.shares_memory(w, stack) and np.shares_memory(b, stack)
    for g in range(2):
        for k in range(3):
            w_gk, b_gk = unflatten_head(stack[g, k], params[-1][0].shape[1])
            np.testing.assert_array_equal(w[g, k], w_gk)
            np.testing.assert_array_equal(b[g, k], b_gk)

    # a whole model: weight then bias, layer after layer
    params = small_mlp(hidden=(4, 3))
    (w0, b0), (w1, b1), (w2, b2) = params
    vec = flatten(params)
    np.testing.assert_array_equal(vec, np.concatenate(
        [w0.ravel(), b0, w1.ravel(), b1, w2.ravel(), b2]))
    layers = unflatten(vec, [w.shape for w, _ in params])
    assert len(layers) == len(params)
    for (w, b), (w0, b0) in zip(layers, params):
        np.testing.assert_array_equal(w, w0)
        np.testing.assert_array_equal(b, b0)
        assert np.shares_memory(w, vec) and np.shares_memory(b, vec)
    with pytest.raises(ShapeError):
        unflatten(vec[:-1], [w.shape for w, _ in params])
