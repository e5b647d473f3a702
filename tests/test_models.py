"""Model forward/gradient correctness against loop and finite-difference oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspectra import federation
from fedspectra.models import (
    DeepLinearParams,
    LabeledBatch,
    TwoLayerParams,
    blas_threads,
    grad_two_layer,
    grads_deep_linear,
    init_deep_linear,
    init_two_layer,
    loss_of,
    square_loss,
    vec_residual,
    _DenseClient,
    _SampleSpaceClient,
    _descends_in_sample_space,
    _subtract_product,
)

from oracles import (
    copied,
    deep_linear_forward_loops,
    finite_difference_grad,
    relu_forward_loops,
    stacked_mean,
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


def _lent(i, k, iterate):
    """A keep that holds each iterate as the round lends it, uncopied."""
    return iterate


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


def test_a_batch_holds_one_label_per_sample_within_the_target_rows():
    X, Y = np.zeros((3, 4)), np.zeros((2, 4))
    for bad in (np.zeros(4), np.zeros((3, 4, 1))):  # X is features x samples
        with pytest.raises(ValueError, match="X must be 2-D"):
            LabeledBatch(X=bad, Y=Y)
    with pytest.raises(ValueError, match="Y must be 1-D or 2-D"):
        LabeledBatch(X=X, Y=np.zeros((1, 2, 4)))
    with pytest.raises(ValueError, match="sample count mismatch"):
        LabeledBatch(X=X, Y=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="one entry per sample"):
        LabeledBatch(X=X, Y=Y, labels=np.zeros(3, dtype=np.int64))
    for labels in ([0, 1, 2, 0], [0, -1, 1, 0]):  # a 2-D Y has one row per class
        with pytest.raises(ValueError, match="out of range"):
            LabeledBatch(X=X, Y=Y, labels=np.array(labels))
    # a 1-D Y has no rows to index, and no samples have no labels to check
    assert LabeledBatch(X=X, Y=np.zeros(4), labels=np.array([0, 7, 2, 9])).n == 4
    assert LabeledBatch(X=X[:, :0], Y=Y[:, :0], labels=np.zeros(0, dtype=np.int64)).n == 0


def _dense_descent(p, batch, eta, steps):
    """The update a client's descent replaces: a new W - eta * G per layer
    per step, each loss from a separate forward pass."""
    iterates = [p]
    for _ in range(steps):
        if isinstance(p, DeepLinearParams):
            grads = grads_deep_linear(p, batch)
            layers = tuple(W - eta * g for W, g in zip(p.layers, grads))
            p = DeepLinearParams(layers=layers, width=p.width)
        else:
            p = TwoLayerParams(hidden=p.hidden - eta * grad_two_layer(p, batch), signs=p.signs)
        iterates.append(p)
    return iterates, [loss_of(q, batch) for q in iterates]


def _weights(p):
    return p.layers if isinstance(p, DeepLinearParams) else (p.hidden,)


def _relu_batch(dim, n, scale, seed=4):
    return LabeledBatch(
        X=np.random.default_rng(seed).standard_normal((dim, n)) * scale,
        Y=np.random.default_rng(seed + 1).standard_normal(n),
    )


# eta is not a power of two, so scaling by it rounds. The last field says
# whether a ReLU case descends in sample space; the dense ReLU path is the
# oracle's arithmetic, so its cases must match it bit for bit.
DESCENT_CASES = [
    *[
        pytest.param(
            init_deep_linear(depth, width, 10, 5, seed=1),
            LabeledBatch(
                X=np.random.default_rng(2).standard_normal((10, 16)),
                Y=np.random.default_rng(3).standard_normal((5, 16)),
            ),
            0.3 / width,
            False,
            id=f"deep-linear-depth{depth}-width{width}",
        )
        for depth, width in ((1, 8), (3, 256), (3, 1000), (4, 64))
    ],
    *[
        pytest.param(
            init_two_layer(width, 16, seed=2),
            _relu_batch(16, 100, 0.25),
            0.07,
            False,
            id=f"two-layer-relu-width{width}",
        )
        for width in (16, 2048)
    ],
    # fewer samples than input dimensions; at eta 0.05 the displacement
    # stands well above the rounding of a full H matrix, eps * |H0|
    *[
        pytest.param(
            init_two_layer(width, dim, seed=2),
            _relu_batch(dim, n, 1.0 / np.sqrt(dim)),
            0.05,
            True,
            id=f"two-layer-relu-width{width}-dim{dim}-n{n}",
        )
        for width, dim, n in ((2048, 64, 20), (128, 784, 200), (16, 64, 8))
    ],
]


@pytest.mark.parametrize("p,batch,eta,sample_space", DESCENT_CASES)
def test_fused_descent_matches_dense_steps(p, batch, eta, sample_space):
    steps = 4
    relu = isinstance(p, TwoLayerParams)
    if relu:
        assert _descends_in_sample_space(p.width, p.dim, batch.n, steps) is sample_space
    dense, dense_losses = _dense_descent(p, batch, eta, steps)
    ((fused, losses),), average = p.descend_round([batch], eta, steps, keep=copied)
    assert len(fused) == len(losses) == steps + 1
    assert all(np.array_equal(W, W0) for W, W0 in zip(_weights(fused[0]), _weights(p)))
    assert losses[-1] < losses[0]  # the steps descend, so the updates are not negligible
    np.testing.assert_allclose(losses, dense_losses, rtol=1e-12, atol=0)
    for a, b in zip(fused[1:], dense[1:]):
        for Wa, Wb, W0 in zip(_weights(a), _weights(b), _weights(p)):
            # the displacement from the start, not the weights, at 1e-12
            assert np.linalg.norm(Wa - Wb) <= 1e-12 * np.linalg.norm(Wb - W0)
            if relu and not sample_space:
                assert np.array_equal(Wa, Wb)
    if relu and not sample_space:
        assert losses == dense_losses
    ((unkept, last_losses),), last = p.descend_round([batch], eta, steps)
    assert unkept == () and last_losses == losses
    # one client's average is its last iterate, whether or not the round keeps iterates
    for q in (average(), last()):
        assert all(np.array_equal(Wa, Wb) for Wa, Wb in zip(_weights(q), _weights(fused[-1])))


@pytest.mark.parametrize(
    "width,dim,n,steps,sample_space",
    [
        pytest.param(128, 784, 200, 5, True, id="idx-client"),
        pytest.param(2048, 16, 100, 5, False, id="more-samples-than-dims"),
    ],
)
def test_relu_descent_takes_the_path_with_fewer_multiply_adds(
    width, dim, n, steps, sample_space, monkeypatch
):
    assert _descends_in_sample_space(width, dim, n, steps) is sample_space
    # the round descends on the state that _client picks; record its type
    pick, picked = TwoLayerParams._client, []
    monkeypatch.setattr(
        TwoLayerParams, "_client", lambda *a: picked.append(type(pick(*a))) or pick(*a)
    )
    init_two_layer(width, dim, seed=0).descend_round([_relu_batch(dim, n, 0.1)], 0.01, steps)
    assert picked == [_SampleSpaceClient if sample_space else _DenseClient]


@pytest.mark.parametrize("steps", [1, 5, 20])
def test_a_relu_client_costs_the_cheaper_of_its_two_states(steps):
    # one count both picks the state and states the cost; the pick is the
    # dense-or-sample rule's on a grid of shapes that includes the idx-setup
    # boundary at width 128, 784 inputs and 600 samples
    for width, dim, n in itertools.product((16, 128, 2048), (4, 16, 64, 784), (0, 1, 8, 100, 600)):
        dense = (2 * steps + 1) * width * dim * n
        sample = 2 * width * dim * n + dim * n * n + steps * width * n * n
        assert _descends_in_sample_space(width, dim, n, steps) is (sample <= dense)
        p = TwoLayerParams(hidden=np.zeros((width, dim)), signs=np.ones(width))
        batch = LabeledBatch(X=np.zeros((dim, n)), Y=np.zeros(n))
        assert p.client_cost(batch, steps) == min(dense, sample)
    assert _descends_in_sample_space(128, 784, 600, 5)
    assert not _descends_in_sample_space(128, 784, 640, 5)


@pytest.mark.parametrize("n", [0, 1])
def test_relu_client_with_one_or_no_sample_descends_in_sample_space(n):
    p = init_two_layer(16, 64, seed=3)
    before = p.hidden.copy()
    batch = _relu_batch(64, n, 1.0 / 8.0)
    steps = 4
    assert _descends_in_sample_space(p.width, p.dim, n, steps)
    for keep in (_lent, None):
        ((iterates, losses),), average = p.descend_round([batch], 0.5, steps, keep=keep)
        last = average()
        assert len(losses) == steps + 1
        assert not np.shares_memory(last.hidden, p.hidden)
        if n == 0:
            assert losses == [0.0] * (steps + 1)
            assert np.array_equal(last.hidden, p.hidden)
        else:
            dense, dense_losses = _dense_descent(p, batch, 0.5, steps)
            np.testing.assert_allclose(losses, dense_losses, rtol=1e-12, atol=0)
            assert losses[-1] < losses[0]
            shift = dense[-1].hidden - p.hidden
            assert np.linalg.norm(last.hidden - dense[-1].hidden) <= 1e-12 * np.linalg.norm(shift)
        # its iterates are fresh arrays, even lent: none shares memory with another or the start
        arrays = [q.hidden for q in iterates]
        assert len(arrays) == (steps + 1 if keep else 0)
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :]
        )
    assert np.array_equal(p.hidden, before)


def test_descent_leaves_its_start_and_each_iterate_unchanged():
    p, batch = _linear_instance(seed=4)
    before = [W.copy() for W in p.layers]

    def apart(i, k, iterate):  # each iterate a step forms is lent from the client's own copy
        pairs = zip(iterate.layers, p.layers)
        return k == 0 or not any(np.shares_memory(W, W0) for W, W0 in pairs)

    ((apart_from_start, _),), _ = p.descend_round([batch], 0.01, 3, keep=apart)
    assert all(apart_from_start)
    # with no steps every client's last iterate is the start, which the
    # server sum must not be formed in
    _, average = p.descend_round([batch, batch, batch], 0.01, 0)
    assert not any(np.shares_memory(W, W0) for W, W0 in zip(average().layers, p.layers))
    assert all(np.array_equal(W, W0) for W, W0 in zip(p.layers, before))


# the three client states, each with the client sizes it takes at 3 and at
# 10 steps and an eta at which its first two clients diverge within 10 steps
STATES = {
    "deep-linear": (_DenseClient, (3, 5, 1), 1e8),
    "relu-dense": (_DenseClient, (8, 12, 20), 1e40),
    "relu-sample-space": (_SampleSpaceClient, (3, 5, 1), 1e40),
}


def _clients(state, seed=8):
    """(params, batches, eta) for the client state named `state` (STATES),
    having checked that every batch descends on that state."""
    client, sizes, eta = STATES[state]
    rng = np.random.default_rng(seed)
    if state == "deep-linear":
        p = init_deep_linear(3, 32, 4, 2, seed=seed)
        batches = [
            LabeledBatch(X=rng.standard_normal((4, n)), Y=rng.standard_normal((2, n)))
            for n in sizes
        ]
    else:
        dim = 4 if state == "relu-dense" else 64
        p = init_two_layer(16, dim, seed=seed)
        batches = [_relu_batch(dim, n, 1.0 / np.sqrt(dim), seed=seed + n) for n in sizes]
    assert all(type(p._client(b, steps)) is client for b in batches for steps in (3, 10))
    return p, batches, eta


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("state", STATES)
def test_descent_stops_at_the_first_non_finite_loss(state):
    p, (batch, *_), eta = _clients(state)
    ((iterates, losses),), _ = p.descend_round([batch], eta, 10, keep=_lent)
    assert 1 < len(losses) < 11
    assert np.all(np.isfinite(losses[:-1])) and not np.isfinite(losses[-1])
    assert len(iterates) == len(losses)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("state", STATES)
def test_a_round_has_no_average_once_a_client_diverged(state):
    p, batches, eta = _clients(state)
    for keep in (None, _lent):
        runs, average = p.descend_round(batches[:2], eta, 10, keep=keep)
        assert all(not np.isfinite(losses[-1]) for _, losses in runs)
        assert all(len(iterates) == (len(losses) if keep else 0) for iterates, losses in runs)
        with pytest.raises(ValueError, match="non-finite"):
            average()
        # without keep, a client that diverges before its last step forms no
        # iterate beyond its start, whichever state it descends on
        client = p._client(batches[0], 10)
        kept, losses, last = p._descend(client, eta, 10, keep, 0)
        assert len(losses) < 11 and len(kept) == (len(losses) if keep else 0)
        assert last is (kept[-1] if keep else p)


def _stacked_average(runs):
    """Each weight array's stacked mean over the runs' last iterates."""
    return [stacked_mean(arrays) for arrays in zip(*(_weights(it[-1]) for it, _ in runs))]


@pytest.mark.parametrize("state", STATES)
def test_a_round_averages_its_clients_as_average_does(state):
    # the round's own sum is the server average, bit for bit the stacked mean
    p, batches, _ = _clients(state)
    runs, kept = p.descend_round(batches, 0.01, 3, keep=copied)
    want = _stacked_average(runs)
    _, folded = p.descend_round(batches, 0.01, 3)
    for q in (kept(), folded()):
        assert all(np.array_equal(W, Wo) for W, Wo in zip(_weights(q), want))
    assert all(np.linalg.norm(W - W0) > 0 for W, W0 in zip(want, _weights(p)))


@pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS thread count cannot be set")
@pytest.mark.parametrize("state", STATES)
def test_a_round_side_by_side_averages_its_clients_as_average_does(
    state, monkeypatch, usable_cores, cheap_rounds_side_by_side
):
    # a scheduler's round of several clients, kept or not, runs them in
    # its window, and the server sum still adds each client in batch order
    p, batches, _ = _clients(state)
    windowed, descend_round = [], type(p).descend_round

    def spy(self, *args, **kwargs):
        windowed.append(kwargs.get("map", map) is not map)
        return descend_round(self, *args, **kwargs)

    monkeypatch.setattr(type(p), "descend_round", spy)
    usable_cores(2)
    rounds = []
    for keep in (copied, None):
        with federation.scheduler() as (_, descend):
            rounds.append(descend(p, batches, 0.01, 3, keep))
    (runs, kept), (_, folded) = rounds
    assert windowed == [True, True]
    want = _stacked_average(runs)
    for q in (kept(), folded()):
        assert all(np.array_equal(W, Wo) for W, Wo in zip(_weights(q), want))


@pytest.mark.parametrize(
    "rows,cols,n",
    [
        (500, 500, 4), (1000, 1000, 8), (500, 10, 4), (1, 64, 3), (64, 1, 3), (33, 17, 1),
        (40, 30, 0),
    ],
)
def test_subtract_product_is_the_numpy_update_bit_for_bit(rows, cols, n):
    rng = np.random.default_rng(rows + cols + n)
    W = rng.standard_normal((rows, cols))
    A = 0.0137 * rng.standard_normal((rows, n))
    B = rng.standard_normal((cols, 2 * n))[:, ::2]  # strided, as a batch's column slice can be
    want = W.copy()
    want -= A @ B.T
    _subtract_product(W, A, B)
    assert np.array_equal(W, want)
