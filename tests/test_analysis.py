"""Gram builders, spectra, bounds, checkers, and the first-order oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspectra import analysis, federation
from fedspectra.analysis import (
    bound_series,
    check_drift,
    check_gram_floor,
    check_init_spectra,
    check_local_descent,
    check_local_deviation,
    check_local_drift,
    check_ntk_trace,
    drift_radius_deep_linear,
    drift_radius_two_layer,
    first_order_scaling,
    gram_H_infinity,
    gram_P0,
    gram_P0_lambda_min,
    lambda_min_floor,
    make_report,
    predict_first_order,
    sigma_min_nonzero,
    spectrum,
)
from fedspectra.data import partition_iid, synth_linear_dataset
from fedspectra.federation import FederationConfig, local_trajectory, run_fedavg
from fedspectra.models import (
    DeepLinearParams,
    LabeledBatch,
    blas_threads,
    init_deep_linear,
    init_two_layer,
    input_chain,
    output_chain,
    vec_residual,
)

from oracles import eig_2x2, gram_H_tkc, gram_linear_bruteforce, mc_relu_kernel


def _perturbed(p: DeepLinearParams, scale, seed):
    rng = np.random.default_rng(seed)
    return DeepLinearParams(
        layers=tuple(W + scale * rng.standard_normal(W.shape) for W in p.layers),
        width=p.width,
    )


# ---------------------------------------------------------------- gram_P0 ----


def test_gram_P0_depth_one_identity_data_is_identity():
    p = DeepLinearParams(layers=(np.array([[3.0, -2.0]]),), width=7)
    np.testing.assert_allclose(gram_P0(p, np.eye(2)), np.eye(2), atol=1e-15)


def test_gram_P0_is_symmetric_psd():
    p = init_deep_linear(3, 12, 4, 2, seed=0)
    X = np.random.default_rng(1).standard_normal((4, 6))
    P = gram_P0(p, X)
    assert np.max(np.abs(P - P.T)) == 0.0
    assert spectrum(P).lambda_min >= -1e-8


def test_gram_P0_matches_entrywise_oracle():
    p = init_deep_linear(2, 3, 2, 2, seed=5)
    X = np.random.default_rng(2).standard_normal((2, 3))
    expected = gram_linear_bruteforce(
        list(p.layers), list(p.layers), X, X, p.width, p.d_out
    )
    assert np.max(np.abs(gram_P0(p, X) - expected)) <= 1e-10


# ----------------------------------------- compressed P0 and Gram products ----


def _bruteforce(g, l, X, X_c):
    return gram_linear_bruteforce(list(g.layers), list(l.layers), X, X_c, g.width, g.d_out)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(1, 3),
    d_in=st.integers(1, 5),
    d_out=st.integers(1, 3),
    n=st.integers(1, 7),
    repeats=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_gram_P0_lambda_min_matches_the_dense_rank_restricted_eigenvalue(
    depth, d_in, d_out, n, repeats, seed
):
    # data of rank min(d_in, n) with singular values in [1, 2], plus repeated
    # columns; the dense reference is the (rank*d_out)-th largest eigenvalue
    # of the loop oracle (worst seen over 300 draws: 1.3e-14 relative)
    rng = np.random.default_rng(seed)
    r = min(d_in, n)
    U = np.linalg.qr(rng.standard_normal((d_in, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    X = (U * rng.uniform(1.0, 2.0, r)) @ V.T
    X = np.hstack([X, X[:, rng.integers(0, n, repeats)]])
    p = init_deep_linear(depth, 8, d_in, d_out, seed)
    lam, rank = gram_P0_lambda_min(p, X)
    assert rank == r
    expected = np.linalg.eigvalsh(_bruteforce(p, p, X, X))[-r * d_out]
    assert lam == pytest.approx(expected, rel=1e-12)


def test_gram_P0_lambda_min_rejects_zero_data():
    p = init_deep_linear(2, 4, 3, 2, seed=0)
    with pytest.raises(ValueError, match="numerically zero"):
        gram_P0_lambda_min(p, np.zeros((3, 5)))


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_gram_product_matches_the_oracle_block(depth):
    # distinct global and local parameters, local features on a subset of columns
    g = init_deep_linear(depth, 6, 4, 3, seed=7)
    l = _perturbed(g, 0.3, seed=8)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 5))
    X_c = X[:, [1, 3, 4]]
    V = rng.standard_normal((3, 3))
    pairs = analysis._gram_pairs(g, output_chain(g), l, X_c)
    got = analysis._gram_times(pairs, input_chain(g, X), V).flatten(order="F")
    want = _bruteforce(g, l, X, X_c) @ V.flatten(order="F")
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# -------------------------------------------------------- ReLU Gram kernels ----


def _unit_columns(d, n, seed):
    X = np.random.default_rng(seed).standard_normal((d, n))
    return X / np.linalg.norm(X, axis=0)


def test_H_infinity_unit_norm_diagonal_is_half():
    X = _unit_columns(5, 6, seed=0)
    H = gram_H_infinity(X)
    np.testing.assert_allclose(np.diag(H), 0.5, atol=1e-12)


def test_H_infinity_orthogonal_pair_is_zero():
    H = gram_H_infinity(np.eye(2))
    assert H[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_H_infinity_matches_monte_carlo():
    X = _unit_columns(5, 8, seed=1)
    estimate = mc_relu_kernel(X, draws=100_000, seed=123)
    assert np.max(np.abs(gram_H_infinity(X) - estimate)) <= 1e-2


def test_H_infinity_rejects_zero_column():
    X = np.zeros((3, 2))
    X[0, 0] = 1.0
    with pytest.raises(ValueError):
        gram_H_infinity(X)


def test_ntk_trace_identity_for_unit_norm_inputs():
    rep = check_ntk_trace(_unit_columns(6, 9, seed=2))
    assert rep.passed and rep.measured <= 1e-10


def test_H_tkc_symmetric_when_shared_and_entrywise_bounded():
    X = _unit_columns(4, 5, seed=3)
    W = np.random.default_rng(4).standard_normal((50, 4))
    H = gram_H_tkc(W, W, X, X)
    assert np.max(np.abs(H - H.T)) == 0.0
    assert np.all(np.abs(H) <= np.abs(X.T @ X) + 1e-12)


def test_H_tkc_converges_to_H_infinity_at_large_width():
    X = _unit_columns(6, 8, seed=5)
    W = init_two_layer(20_000, 6, seed=6).hidden
    assert np.max(np.abs(gram_H_tkc(W, W, X, X) - gram_H_infinity(X))) <= 5e-2


# ---------------------------------------------------------------- spectrum ----


def test_spectrum_identity_and_diagonal():
    s = spectrum(np.eye(3))
    assert s.lambda_min == s.lambda_max == 1.0
    d = spectrum(np.diag([1.0, 4.0]))
    assert (d.lambda_min, d.lambda_max) == (1.0, 4.0)


def test_spectrum_matches_characteristic_polynomial_oracle():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((2, 2))
    M = 0.5 * (A + A.T)
    s = spectrum(M)
    np.testing.assert_allclose(s.eigenvalues, eig_2x2(M), atol=1e-12)


def test_spectrum_asymmetric_matrix_has_no_eigenvalues():
    with pytest.raises(ValueError, match="asymmetric"):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        spectrum(np.ones((2, 3)))


def test_spectrum_rejects_non_finite():
    with pytest.raises(ValueError):
        spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rank_helpers():
    X = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # rank 1
    assert analysis.nonzero_singular_values(X).size == 1
    assert sigma_min_nonzero(X) == pytest.approx(np.linalg.norm(X))


# ------------------------------------------------------------- bound_series ----


def test_bound_series_starts_at_loss0_and_multiplies_in_order():
    s = bound_series(10.0, 0.1, 4, 8, 0.5, sizes=[8, 4, 2])
    assert s.values[0] == 10.0
    acc = 10.0
    for t, r in enumerate(s.rho):
        acc *= r
        assert s.values[t + 1] == acc  # exact, computed left to right
    full = 1.0 - 0.1 * 8 * 0.5 * 4 / (2.0 * 64)
    assert s.rho[0] == pytest.approx(full)


def test_bound_series_factor_shrinks_with_more_participants():
    a = bound_series(1.0, 0.1, 2, 8, 0.5, sizes=[2]).rho[0]
    b = bound_series(1.0, 0.1, 2, 8, 0.5, sizes=[4]).rho[0]
    assert b < a < 1.0


def test_bound_series_values_nonincreasing_when_contracting():
    s = bound_series(5.0, 0.05, 3, 4, 1.0, sizes=[4] * 6)
    assert all(b <= a for a, b in zip(s.values, s.values[1:]))


def test_bound_series_rejects_overlarge_eta():
    with pytest.raises(ValueError):
        bound_series(1.0, 10.0, 5, 2, 3.0, sizes=[2])


def test_lambda_min_floor_values():
    assert lambda_min_floor(3, 1.0, 1) == pytest.approx(1.2288)
    assert lambda_min_floor(1, 0.0, 3) == 0.0


# ------------------------------------------------------------------ checks ----


def test_make_report_orientation_and_slack():
    good = make_report("x", measured=1.0, bound=2.0)
    assert good.passed and good.slack == 0.5
    bad = make_report("x", measured=3.0, bound=2.0)
    assert not bad.passed
    edge = make_report("x", measured=2.0, bound=2.0)
    assert edge.passed  # pass iff measured <= bound
    zero = make_report("x", measured=0.0, bound=0.0)
    assert zero.passed and zero.slack == 0.0


def test_check_init_spectra_depth_one_is_vacuous():
    p = DeepLinearParams(layers=(np.ones((2, 3)),), width=4)
    reports = check_init_spectra(p, np.random.default_rng(0).standard_normal((3, 5)))
    assert len(reports) == 1
    assert reports[0].passed and "vacuous" in reports[0].name


def test_check_init_spectra_report_inventory():
    p = init_deep_linear(3, 32, 4, 2, seed=0)
    X = np.random.default_rng(1).standard_normal((4, 6))
    reports = check_init_spectra(p, X)
    names = [r.name for r in reports]
    # depth 3: two suffix products, two prefix products, one interior block
    assert sum(n.startswith("init-suffix") for n in names) == 4
    assert sum(n.startswith("init-prefix") for n in names) == 4
    assert sum(n.startswith("init-interior") for n in names) == 1
    assert all(np.isfinite(r.slack) and r.slack >= 0.0 for r in reports)


def test_check_init_spectra_passes_at_moderate_width():
    ds, _ = synth_linear_dataset(10, 5, 32, seed=0)
    p = init_deep_linear(3, 1000, 10, 5, seed=0)
    reports = check_init_spectra(p, ds.X)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("width", [16, 256, 1000])
def test_init_interior_norms_agree_with_the_dense_svd(width):
    # depth 4 has three interior products: layers 2..2, 2..3 and 3..3
    p = init_deep_linear(4, width, 10, 5, seed=width)
    X = np.random.default_rng(width).standard_normal((10, 32))
    interior = [r for r in check_init_spectra(p, X) if r.name.startswith("init-interior")]
    assert [r.name for r in interior] == [
        "init-interior-norm:2..2", "init-interior-norm:2..3", "init-interior-norm:3..3"
    ]
    for r in interior:
        i, j = map(int, r.context["layers"].split(".."))
        product = p.layers[i - 1] if i == j else p.layers[j - 1] @ p.layers[i - 1]
        dense = np.linalg.svd(product, compute_uv=False)[0]
        assert abs(r.measured - dense) <= 1e-12 * dense


def test_check_local_descent_trivial_cases():
    flat = [2.0, 2.0, 2.0]
    rep = check_local_descent(flat, 1.0, 0.7)
    assert rep.passed and rep.context["factor"] == 1.0
    only_start = check_local_descent([5.0], 0.9, 0.7)
    assert only_start.passed and only_start.measured == 1.0
    growing = check_local_descent([1.0, 2.0], 0.9, 0.5)
    assert not growing.passed


def test_check_local_descent_reports_the_worst_step():
    # ratios 0.75 and 0.725 against 0.95 and 0.9025: step 2 has the larger slack
    rep = check_local_descent([4.0, 3.0, 2.9], 0.95, 1.0)
    assert (rep.context["worst_step"], rep.measured, rep.bound) == (2, 0.725, 0.95**2)
    assert rep.passed and rep.context["factor"] == 0.95 and rep.context["lambda"] == 1.0
    assert not check_local_descent([4.0, 3.9], 0.95, 1.0).passed


def test_check_local_deviation_bound_is_coefficient_times_base_norm():
    xi = np.array([3.0, 4.0])
    rep0 = check_local_deviation(xi, xi, 0.0, 0, 0.1)
    assert rep0.passed and rep0.measured == 0.0 and rep0.bound == 0.0
    moved = np.array([3.0, 4.5])
    rep = check_local_deviation(moved, xi, 0.2, 2, 0.1)
    assert (rep.measured, rep.bound) == (0.5, 0.2 * 5.0)
    assert rep.context == {"k": 2, "eta": 0.1, "coefficient": 0.2, "base_norm": 5.0}
    assert not check_local_deviation(moved, xi, 0.05, 2, 0.1).passed
    with pytest.raises(ValueError):
        check_local_deviation(xi, xi[:1], 1.0, 1, 0.1)


def test_drift_radius_plug_in_values():
    assert drift_radius_two_layer(2, 4, 1.0, 100, 0.5) == pytest.approx(14.4)
    # 25*sqrt(4)*3*2^2*1.5 / (3*0.5^2)
    assert drift_radius_deep_linear(4.0, 3, 2, 1.5, 3, 0.5) == pytest.approx(1200.0)


def test_check_drift_zero_at_initialization():
    p = init_deep_linear(3, 8, 4, 2, seed=0)
    rep = check_drift(p, p, radius=1.0)
    assert rep.passed and rep.measured == 0.0
    q = init_two_layer(8, 4, seed=0)
    rep2 = check_drift(q, q, radius=0.5)
    assert rep2.passed and rep2.measured == 0.0


def test_check_drift_fails_beyond_radius():
    p = init_deep_linear(2, 4, 3, 2, seed=0)
    moved = DeepLinearParams(layers=(p.layers[0] + 1.0, p.layers[1]), width=4)
    rep = check_drift(moved, p, radius=1e-3)
    assert not rep.passed


@pytest.mark.parametrize(
    "now, init",
    [
        (init_deep_linear(2, 4, 3, 2, seed=0), init_two_layer(4, 3, seed=0)),
        (init_two_layer(4, 3, seed=0), init_deep_linear(2, 4, 3, 2, seed=0)),
        (init_deep_linear(2, 4, 3, 2, seed=0), init_deep_linear(3, 4, 3, 2, seed=0)),
        (init_deep_linear(2, 1, 3, 2, seed=0), init_deep_linear(2, 8, 3, 2, seed=0)),
        (init_two_layer(1, 3, seed=0), init_two_layer(8, 3, seed=0)),
    ],
)
def test_check_drift_rejects_mismatched_architectures(now, init):
    with pytest.raises(ValueError, match="share an architecture"):
        check_drift(now, init, radius=1.0)


def test_check_local_drift_zero_when_local_equals_global():
    ds, _ = synth_linear_dataset(4, 2, 8, seed=1)
    p = init_deep_linear(3, 8, 4, 2, seed=1)
    batch = LabeledBatch(X=ds.X, Y=ds.Y)
    (rep,) = check_local_drift([p, p], batch)
    assert rep.passed and rep.measured == 0.0


def test_check_local_drift_passes_a_client_without_samples():
    # every gradient is a product with X_c, so an empty client never moves
    p = init_deep_linear(2, 8, 4, 2, seed=1)
    batch = LabeledBatch(X=np.zeros((4, 0)), Y=np.zeros((2, 0)))
    traj = local_trajectory(p, batch, 0.01, 2)[0]
    reports = check_local_drift(traj, batch)
    assert [(r.passed, r.measured, r.bound) for r in reports] == [(True, 0.0, 0.0)] * 2


def _client_trajectory(width, eta=2e-5, steps=3, seed=0):
    """Broadcast weights, a client batch and that client's local iterates, in
    the shape of the wide verify config (4 clients of 8 samples)."""
    ds, _ = synth_linear_dataset(10, 5, 32, seed=seed)
    p = init_deep_linear(3, width, 10, 5, seed=seed)
    batch = LabeledBatch(X=ds.X[:, :8], Y=ds.Y[:, :8])
    return p, batch, local_trajectory(p, batch, eta, steps)[0]


@pytest.mark.parametrize("width", [48, 256, 1000])
def test_local_drift_sketch_agrees_with_dense_spectral_norms(width):
    p, batch, traj = _client_trajectory(width)
    reports = check_local_drift(traj, batch)
    assert len(reports) == 3
    for k, rep in enumerate(reports, start=1):
        dense = [np.linalg.norm(Wl - Wg, ord=2) for Wl, Wg in zip(traj[k].layers, p.layers)]
        np.testing.assert_allclose(rep.context["per_layer_spectral"], dense, rtol=1e-12)
        assert rep.measured == max(rep.context["per_layer_spectral"])


def test_local_drift_sketch_is_reproducible():
    p, batch, traj = _client_trajectory(256)
    first = check_local_drift(traj, batch)
    assert [r.context for r in check_local_drift(traj, batch)] == [r.context for r in first]


def test_local_drift_rejects_a_delta_above_the_rank_bound():
    p, batch, _ = _client_trajectory(48)
    noise = 1e-6 * np.random.default_rng(0).standard_normal(p.layers[1].shape)
    perturbed = DeepLinearParams(
        layers=(p.layers[0], p.layers[1] + noise, p.layers[2]), width=p.width
    )
    with pytest.raises(ValueError, match="rank 5"):
        check_local_drift([p, perturbed], batch)


def test_local_drift_fails_when_drift_exceeds_the_radius():
    p, batch, traj = _client_trajectory(48)
    # targets within 1e-12 of the broadcast model's predictions shrink the
    # radius to almost nothing, while the local weights trained on real ones
    near = LabeledBatch(X=batch.X, Y=p.predict(batch.X) + 1e-12)
    rep = check_local_drift(traj, near)[-1]
    assert rep.measured > 0.0
    assert not rep.passed and rep.slack > 1.0
    assert all(r.passed for r in check_local_drift(traj, batch))


def test_check_gram_floor_on_a_moderate_instance():
    ds, _ = synth_linear_dataset(8, 2, 16, seed=0)
    p = init_deep_linear(3, 512, 8, 2, seed=0)
    rep = check_gram_floor(p, ds.X)
    assert rep.passed
    assert rep.context["data_rank"] == 8


# ------------------------------------------------- first-order residual oracle ----


def test_vec_of_triple_product_matches_kron_identity():
    rng = np.random.default_rng(21)
    for _ in range(5):
        A = rng.standard_normal((2, 3))
        C = rng.standard_normal((3, 2))
        B = rng.standard_normal((2, 2))
        lhs = (A @ C @ B).flatten(order="F")
        rhs = np.kron(B.T, A) @ C.flatten(order="F")
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def _round_state(seed=0, rounds_before=2, eta=0.02):
    ds, _ = synth_linear_dataset(5, 2, 12, seed=seed)
    batches = [
        LabeledBatch(X=ds.X[:, ix], Y=ds.Y[:, ix]) for ix in partition_iid(12, 3)
    ]
    init = init_deep_linear(3, 24, 5, 2, seed=seed)
    cfg = FederationConfig(n_clients=3, local_steps=4, rounds=rounds_before, eta=eta, seed=seed)
    result = run_fedavg(cfg, init, batches)
    return init, result.params, batches, cfg


def test_predict_first_order_with_zero_rate_returns_current_residual():
    init, params, batches, cfg = _round_state()
    members = [0, 1, 2]
    trajs = [local_trajectory(params, batches[c], 0.0, cfg.local_steps)[0] for c in members]
    rep = predict_first_order(params, init, trajs, batches, members, 0.0)
    X = np.hstack([b.X for b in batches])
    Y = np.hstack([b.Y for b in batches])
    np.testing.assert_array_equal(rep.predicted, vec_residual(params.predict(X), Y))


def test_predict_first_order_terms_recombine():
    init, params, batches, cfg = _round_state()
    members = [0, 2]
    trajs = [
        local_trajectory(params, batches[c], cfg.eta, cfg.local_steps)[0] for c in members
    ]
    rep = predict_first_order(params, init, trajs, batches, members, cfg.eta)
    assert rep.reconstruction_gap <= 1e-10 * max(rep.base_norm, 1.0)


def _dense_first_order(params, init, trajs, batches, members, eta):
    """The recursion with dense Gram blocks from the loop oracle: the
    prediction and the norms of its three terms."""
    X = np.hstack([b.X for b in batches])
    xi_bar = vec_residual(params.predict(X), np.hstack([b.Y for b in batches]))

    def stack(ps):
        return np.concatenate(
            [vec_residual(p.predict(batches[c].X), batches[c].Y) for p, c in zip(ps, members)]
        )

    P0_S = np.hstack([_bruteforce(init, init, X, batches[c].X) for c in members])
    xi_bar_S = stack([params] * len(members))
    update = shift = dev = 0.0
    for k in range(len(trajs[0]) - 1):
        xi_k = stack([t[k] for t in trajs])
        P_tk = np.hstack(
            [_bruteforce(params, t[k], X, batches[c].X) for t, c in zip(trajs, members)]
        )
        update = update + P_tk @ xi_k
        shift = shift + (P_tk - P0_S) @ xi_k
        dev = dev + P0_S @ (xi_k - xi_bar_S)
    coeff = eta / len(members)
    term1 = xi_bar - coeff * (len(trajs[0]) - 1) * (P0_S @ xi_bar_S)
    norms = [np.linalg.norm(v) for v in (term1, coeff * shift, coeff * dev)]
    return xi_bar - coeff * update, norms


def test_predict_first_order_matches_the_dense_recursion():
    init, params, batches, cfg = _round_state()
    members = [0, 2]
    trajs = [
        local_trajectory(params, batches[c], cfg.eta, cfg.local_steps)[0] for c in members
    ]
    rep = predict_first_order(params, init, trajs, batches, members, cfg.eta)
    predicted, norms = _dense_first_order(params, init, trajs, batches, members, cfg.eta)
    assert np.linalg.norm(rep.predicted - predicted) <= 1e-12 * np.linalg.norm(predicted)
    got = [rep.term_contraction, rep.term_gram_shift, rep.term_local_deviation]
    np.testing.assert_allclose(got, norms, rtol=0.0, atol=1e-10)


def test_predict_first_order_prediction_is_accurate_and_eta_scaled():
    init, params, batches, cfg = _round_state()
    members = [0, 1, 2]
    trajs = [
        local_trajectory(params, batches[c], cfg.eta, cfg.local_steps)[0] for c in members
    ]
    full, half, ratio = first_order_scaling(
        params, init, batches, members, cfg.eta, cfg.local_steps, trajectories=trajs
    )
    assert full.relative_error <= 1e-2
    assert half.actual_error < full.actual_error
    assert 2.5 <= ratio <= 5.5  # quadratic remainder signature, loose band


def test_first_order_scaling_predicts_from_the_given_trajectories(monkeypatch):
    # the eta probe uses the trajectories as given; only the eta/2 probe
    # trains, every member in one round
    init, params, batches, cfg = _round_state()
    members = [0, 2]
    X, Y = np.hstack([b.X for b in batches]), np.hstack([b.Y for b in batches])

    def probe(eta):
        trajs = [local_trajectory(params, batches[c], eta, cfg.local_steps)[0] for c in members]
        actual = vec_residual(type(params).average([t[-1] for t in trajs]).predict(X), Y)
        rep = predict_first_order(params, init, trajs, batches, members, eta, next_residual=actual)
        return trajs, rep

    trajs, want_full = probe(cfg.eta)
    _, want_half = probe(0.5 * cfg.eta)
    rounds = []

    def counted(self, round_batches, *args, _round=type(params).descend_round, **kwargs):
        rounds.append((len(round_batches), kwargs.get("map", map) is map))
        return _round(self, round_batches, *args, **kwargs)

    monkeypatch.setattr(type(params), "descend_round", counted)
    monkeypatch.setattr(federation.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for workers in (1, None):
        rounds.clear()
        full, half, ratio = first_order_scaling(
            params, init, batches, members, cfg.eta, cfg.local_steps, trajectories=trajs,
            workers=workers,
        )
        # the probe's members descend on the given worker count's client
        # pool: by default two cores give two workers, unless BLAS cannot be
        # held to one thread
        assert rounds == [(len(members), workers == 1 or blas_threads() is None)]
        for got, want in ((full, want_full), (half, want_half)):
            np.testing.assert_array_equal(got.predicted, want.predicted)
            assert got.actual_error == want.actual_error
        assert ratio == full.actual_error / half.actual_error


def test_predict_first_order_validates_trajectories():
    init, params, batches, cfg = _round_state()
    trajs = [local_trajectory(params, batches[0], cfg.eta, cfg.local_steps)[0]]
    with pytest.raises(ValueError):
        predict_first_order(params, init, trajs, batches, [0, 1], cfg.eta)
