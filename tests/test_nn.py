import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvem.nn import (InputError, MlpParams, NumericError, ShapeError,
                       backward, cross_entropy, flatten_head, forward,
                       init_mlp, sgd_step, unflatten_head, zeros_like)

from helpers import central_diff, flatten_params, rel_err, unflatten_params


def small_mlp(seed=0, input_dim=5, hidden=(4,), classes=3):
    return init_mlp(input_dim, hidden, classes, np.random.default_rng(seed))


def test_zero_params_give_zero_logits():
    params = small_mlp()
    params = MlpParams(base=[(np.zeros_like(w), np.zeros_like(b))
                             for w, b in params.base],
                       head=(np.zeros_like(params.head[0]),
                             np.zeros_like(params.head[1])))
    batch = np.random.default_rng(1).standard_normal((7, 5))
    assert np.all(forward(params, batch) == 0.0)


def test_identity_network_passes_inputs_through():
    # square identity hidden layer, identity head, nonnegative inputs
    eye = np.eye(4)
    params = MlpParams(base=[(eye.copy(), np.zeros(4))],
                       head=(eye.copy(), np.zeros(4)))
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

    h = naive_matmul(batch, params.base[0][0]) + params.base[0][1]
    h = np.maximum(h, 0.0)
    expected = naive_matmul(h, params.head[0]) + params.head[1]
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
    params = MlpParams(base=[], head=(w, np.zeros(2)))
    # flip sign so each row's true class wins by a large margin
    x = np.where(labels[:, None] == 0, features, -features)
    grads = backward(params, x, labels)
    assert np.linalg.norm(flatten_params(grads)) < 1e-8


def test_backward_single_layer_closed_form():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 4))
    labels = rng.integers(0, 3, size=6)
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    params = MlpParams(base=[], head=(w, b))
    grads = backward(params, x, labels)

    logits = x @ w.T + b
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    p[np.arange(6), labels] -= 1.0
    p /= 6
    np.testing.assert_allclose(grads.head[0], p.T @ x, atol=1e-12)
    np.testing.assert_allclose(grads.head[1], p.sum(axis=0), atol=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    # one hidden layer (~35 parameters), then two, whose upper layer
    # back-propagates into the lower one
    for hidden in [(4,), (4, 3)]:
        params = init_mlp(3, hidden, 3, rng)
        x = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        analytic = flatten_params(backward(params, x, labels))

        def loss(vec):
            return cross_entropy(forward(unflatten_params(vec, params), x),
                                 labels)

        numeric = central_diff(loss, flatten_params(params))
        assert rel_err(analytic, numeric) <= 1e-4, hidden


def test_backward_injected_extra_grads_are_added():
    rng = np.random.default_rng(9)
    params = init_mlp(3, (4,), 2, rng)
    x = rng.standard_normal((4, 3))
    labels = rng.integers(0, 2, size=4)
    extra = zeros_like(params)
    extra.head[0][...] = 2.5 * (params.head[0] - 1.0)  # grad of squared penalty
    plain = backward(params, x, labels)
    combined = backward(params, x, labels, extra_loss_grads=extra)
    np.testing.assert_allclose(combined.head[0],
                               plain.head[0] + extra.head[0], atol=1e-14)
    np.testing.assert_array_equal(combined.base[0][0], plain.base[0][0])


def test_sgd_step_zero_lr_is_identity():
    params = small_mlp()
    grads = small_mlp(seed=1)
    out = sgd_step(params, grads, 0.0)
    np.testing.assert_array_equal(out.head[0], params.head[0])
    np.testing.assert_array_equal(out.base[0][0], params.base[0][0])


def test_sgd_step_from_zero_params():
    params = small_mlp()
    zero = MlpParams(base=[(np.zeros_like(w), np.zeros_like(b))
                           for w, b in params.base],
                     head=(np.zeros_like(params.head[0]),
                           np.zeros_like(params.head[1])))
    out = sgd_step(zero, params, 1.0)
    np.testing.assert_array_equal(out.head[0], -params.head[0])


def test_sgd_two_steps_equal_summed_step_on_frozen_gradient():
    params = small_mlp()
    grads = small_mlp(seed=2)
    two = sgd_step(sgd_step(params, grads, 0.3), grads, 0.2)
    one = sgd_step(params, grads, 0.5)
    np.testing.assert_allclose(two.head[0], one.head[0], rtol=0, atol=1e-15)


def test_sgd_step_rejects_nonfinite_gradient():
    params = small_mlp()
    grads = small_mlp(seed=3)
    grads.base[0][0][0, 0] = np.nan
    with pytest.raises(NumericError, match="base layer 0"):
        sgd_step(params, grads, 0.1)


def test_head_flatten_roundtrip():
    params = small_mlp()
    vec = flatten_head(params.head)
    w, b = unflatten_head(vec, params.head[0].shape[1])
    np.testing.assert_array_equal(w, params.head[0])
    np.testing.assert_array_equal(b, params.head[1])
