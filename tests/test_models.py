"""Model forward/gradient correctness against loop and finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspectra.models import (
    DeepLinearParams,
    LabeledBatch,
    TwoLayerParams,
    grad_two_layer,
    grads_deep_linear,
    init_deep_linear,
    init_two_layer,
    loss_of,
    square_loss,
    vec_residual,
)

from oracles import (
    deep_linear_forward_loops,
    finite_difference_grad,
    relu_forward_loops,
    vec_columns_loop,
)


def _linear_instance(seed, depth=3, width=8, d_in=4, d_out=2, n=5):
    p = init_deep_linear(depth, width, d_in, d_out, seed)
    rng = np.random.default_rng(seed + 1000)
    X = rng.standard_normal((d_in, n))
    Y = rng.standard_normal((d_out, n))
    return p, LabeledBatch(X=X, Y=Y)


def _flatten(p: DeepLinearParams):
    return np.concatenate([W.ravel() for W in p.layers])


def _unflatten(flat, p: DeepLinearParams):
    layers = []
    pos = 0
    for W in p.layers:
        layers.append(flat[pos : pos + W.size].reshape(W.shape))
        pos += W.size
    return DeepLinearParams(layers=tuple(layers), width=p.width)


def test_init_shapes_and_scale():
    p = init_deep_linear(4, 16, 5, 3, seed=0)
    assert [W.shape for W in p.layers] == [(16, 5), (16, 16), (16, 16), (3, 16)]
    assert p.depth == 4 and p.width == 16 and p.d_in == 5 and p.d_out == 3
    assert p.scale == pytest.approx(1.0 / np.sqrt(16**3 * 3))
    q = init_two_layer(32, 7, seed=0)
    assert q.hidden.shape == (32, 7) and q.signs.shape == (32,)
    assert set(np.unique(q.signs)) <= {-1.0, 1.0}


def test_init_deterministic_and_seed_sensitive():
    a = init_deep_linear(3, 8, 4, 2, seed=5)
    b = init_deep_linear(3, 8, 4, 2, seed=5)
    c = init_deep_linear(3, 8, 4, 2, seed=6)
    for Wa, Wb in zip(a.layers, b.layers):
        assert np.array_equal(Wa, Wb)
    assert any(not np.array_equal(Wa, Wc) for Wa, Wc in zip(a.layers, c.layers))


def test_forward_deep_linear_matches_loop_oracle():
    p, batch = _linear_instance(seed=2)
    expected = deep_linear_forward_loops(p.layers, batch.X, p.scale)
    np.testing.assert_allclose(p.predict(batch.X), expected, atol=1e-12)


def test_forward_two_layer_matches_loop_oracle():
    q = init_two_layer(16, 6, seed=3)
    X = np.random.default_rng(4).standard_normal((6, 8))
    expected = relu_forward_loops(q.hidden, q.signs, X, q.width)
    np.testing.assert_allclose(q.predict(X), expected, atol=1e-12)


def test_deep_linear_gradient_matches_finite_differences():
    p, batch = _linear_instance(seed=7)

    def f(flat):
        return loss_of(_unflatten(flat, p), batch)

    fd = finite_difference_grad(f, _flatten(p))
    closed = np.concatenate([g.ravel() for g in grads_deep_linear(p, batch)])
    assert np.linalg.norm(fd - closed) / np.linalg.norm(closed) <= 1e-6


def test_two_layer_gradient_matches_finite_differences():
    # pick a start point whose activations are bounded away from the kink so
    # the finite-difference probe never crosses it
    rng = np.random.default_rng(0)
    for seed in range(100):
        q = init_two_layer(12, 5, seed=seed)
        X = np.random.default_rng(seed + 500).standard_normal((5, 6))
        if np.min(np.abs(q.hidden @ X)) > 1e-3:
            break
    else:
        pytest.fail("no kink-free instance found")
    y = rng.standard_normal(6)
    batch = LabeledBatch(X=X, Y=y)

    def f(flat):
        q2 = TwoLayerParams(hidden=flat.reshape(q.hidden.shape), signs=q.signs)
        return loss_of(q2, batch)

    fd = finite_difference_grad(f, q.hidden.ravel())
    closed = grad_two_layer(q, batch).ravel()
    assert np.linalg.norm(fd - closed) / np.linalg.norm(closed) <= 1e-6


def test_empty_batch_gives_zero_gradients():
    p, _ = _linear_instance(seed=1)
    empty_lin = LabeledBatch(X=np.zeros((4, 0)), Y=np.zeros((2, 0)))
    assert all(np.all(g == 0.0) for g in grads_deep_linear(p, empty_lin))
    q = init_two_layer(8, 4, seed=1)
    empty_relu = LabeledBatch(X=np.zeros((4, 0)), Y=np.zeros(0))
    assert np.all(grad_two_layer(q, empty_relu) == 0.0)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_forward_deep_linear_is_linear_in_the_input(seed, a, b):
    p = init_deep_linear(2, 6, 3, 2, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    X1 = rng.standard_normal((3, 4))
    X2 = rng.standard_normal((3, 4))
    lhs = p.predict(a * X1 + b * X2)
    rhs = a * p.predict(X1) + b * p.predict(X2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
def test_forward_two_layer_is_positively_homogeneous(seed, c):
    q = init_two_layer(10, 4, seed=seed % 1000)
    X = np.random.default_rng(seed).standard_normal((4, 5))
    np.testing.assert_allclose(q.predict(c * X), c * q.predict(X), rtol=1e-9, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6))
def test_residual_norm_squared_is_twice_the_loss(seed, d_out, n):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((d_out, n))
    Y = rng.standard_normal((d_out, n))
    assert np.linalg.norm(vec_residual(U, Y)) ** 2 == pytest.approx(
        2.0 * square_loss(U, Y), rel=1e-12
    )


def test_vec_residual_is_column_first():
    U = np.arange(6.0).reshape(2, 3)
    Y = np.zeros((2, 3))
    np.testing.assert_array_equal(vec_residual(U, Y), vec_columns_loop(U))


def test_shape_validation():
    with pytest.raises(ValueError):
        square_loss(np.zeros((2, 3)), np.zeros((3, 2)))
    p, batch = _linear_instance(seed=0)
    with pytest.raises(ValueError):
        p.predict(np.zeros((5, 3)))  # wrong input dimension
    with pytest.raises(ValueError):
        init_two_layer(8, 4, seed=0).predict(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        DeepLinearParams(
            layers=(np.zeros((8, 4)), np.zeros((7, 8)), np.zeros((2, 7))), width=8
        )
    with pytest.raises(ValueError):
        TwoLayerParams(hidden=np.zeros((4, 3)), signs=np.array([1.0, -1.0, 2.0, 1.0]))
