"""Gram builders, spectra, bounds and the first-order oracle, and the verify
checks that measure with them, each on a small run context and a hand-built
round snapshot."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedspectra import analysis, federation, verify
from fedspectra.analysis import (
    bound_series,
    contraction_factor,
    gram_H_infinity,
    gram_P0,
    gram_P0_lambda_min,
    predict_first_order,
    spectrum,
)
from fedspectra.data import partition_iid, synth_linear_dataset
from fedspectra.federation import FederationConfig, RoundSnapshot, local_round, run_fedavg
from fedspectra.verify import make_report
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

from oracles import (
    eig_2x2,
    gram_H_infinity_closed_form,
    gram_H_tkc,
    gram_linear_bruteforce,
    gram_P0_kron,
    mc_relu_kernel,
)


def _round(params, batches, members, eta, steps):
    """The members' local trajectories of one round from params (every
    iterate kept), and the server average that the round formed."""
    runs, average = local_round(params, [batches[c] for c in members], eta, steps, keep=True)
    return [iterates for iterates, _ in runs], average()


def _perturbed(p: DeepLinearParams, scale, seed):
    rng = np.random.default_rng(seed)
    return DeepLinearParams(
        layers=tuple(W + scale * rng.standard_normal(W.shape) for W in p.layers),
        width=p.width,
    )


def _context(params, *batches, eta=0.01, steps=1, lambda_min=None):
    """A run context over the given client batches, in client order."""
    return verify.RunContext(batches, params, lambda_min, eta, steps)


def _snapshot(params, members=(0,), losses=(), averaged=None, t=0):
    """Round t entered at params: its members, their local losses and the
    round's average."""
    return RoundSnapshot(t, tuple(members), losses, params, averaged)


def _measured(measure, rnd, trajectories):
    """A check's measure of each member's given iterates, [i][k] for member
    i's iterate k, as a re-descent of the round would record them."""
    return [
        [measure(rnd, i, k, p) for k, p in enumerate(traj)] for i, traj in enumerate(trajectories)
    ]


def _linear_batch(p, X):
    """X with zero targets, for a check that reads only the data."""
    return LabeledBatch(X=X, Y=np.zeros((p.d_out, X.shape[1])))


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


def _relu_context(X):
    """A two-layer run context of one client holding X, whose stacked copy
    of the data is already built."""
    ctx = _context(init_two_layer(4, X.shape[0], seed=0), LabeledBatch(X=X, Y=np.zeros(X.shape[1])))
    assert ctx.X.shape == X.shape
    return ctx


def test_ntk_trace_identity_for_unit_norm_inputs():
    (rep,) = verify.ntk_trace(_relu_context(_unit_columns(6, 9, seed=2)))
    assert rep.passed and rep.measured <= 1e-10


@pytest.mark.parametrize("unit", [True, False])
def test_ntk_trace_agrees_with_the_trace_of_H_infinity(unit):
    # the check sums |x_i|^2/2 in place of building the n x n matrix
    X = np.random.default_rng(5).standard_normal((7, 40)) * 3.0
    if unit:
        X /= np.linalg.norm(X, axis=0)
    trace = float(np.trace(gram_H_infinity(X)))
    (rep,) = verify.ntk_trace(_relu_context(X))
    assert rep.context == {"n": 40, "expected_trace": 20.0} and rep.bound == 1e-10
    assert abs(rep.measured - abs(trace - 20.0)) <= 1e-12 * trace
    assert rep.passed == unit


def test_ntk_trace_builds_no_n_by_n_matrix():
    X = np.random.default_rng(6).standard_normal((16, 3000))
    ctx = _relu_context(X)
    tracemalloc.start()
    try:
        verify.ntk_trace(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes  # an n x n array would take 187 times X


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


def _symmetric(n, seed):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return A + A.T


@pytest.mark.parametrize("skew", [0.0, 1e-13])
def test_spectrum_leaves_its_argument_as_it_was(skew):
    M = _symmetric(70, seed=12)
    M[40, 3] += skew
    before = M.tobytes()
    M.flags.writeable = False  # a write would raise
    spectrum(M)
    assert M.tobytes() == before


def test_spectrum_of_an_exactly_symmetric_matrix_is_that_of_its_symmetrized_copy():
    for n in (1, 33, 100):
        M = _symmetric(n, seed=n)
        for A in (M, np.asfortranarray(M)):
            want = np.linalg.eigvalsh(0.5 * (A + A.T))
            assert spectrum(A).eigenvalues.tobytes() == want.tobytes()


@pytest.mark.parametrize("where", [(0, 1), (1, 0), (90, 37), (37, 90), (99, 98)])
def test_spectrum_symmetrizes_an_asymmetry_within_the_tolerance(where):
    # the asymmetry sits above or below the diagonal, in the first or a later
    # block of rows; eigh alone would read only one triangle
    M = _symmetric(100, seed=13)
    M[where] += 1e-13
    got = spectrum(M).eigenvalues
    assert got.tobytes() == np.linalg.eigvalsh(0.5 * (M + M.T)).tobytes()
    assert got.tobytes() != np.linalg.eigvalsh(M).tobytes()


@pytest.mark.parametrize("where", [(0, 1), (90, 37), (37, 90)])
def test_spectrum_refuses_a_1e_9_asymmetry_with_the_largest_gap(where):
    M = _symmetric(100, seed=14)
    M[where] += 1e-9
    M[5, 60] += 1e-12
    message = f"matrix is materially asymmetric (max |M - M^T| = {np.max(np.abs(M - M.T)):g})"
    with pytest.raises(ValueError) as raised:
        spectrum(M)
    assert str(raised.value) == message


def _with_repeats(X, repeat, flip):
    """X with its column 0 repeated, and column 0 negated, when asked."""
    extra = [X[:, :1]] * repeat + [-X[:, :1]] * flip
    return np.hstack([X, *extra])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 6),
    n=st.integers(1, 40),
    repeat=st.integers(0, 2),
    flip=st.integers(0, 1),
    seed=st.integers(0, 2**16),
)
@example(d=3, n=1, repeat=0, flip=0, seed=0)
@example(d=3, n=1, repeat=1, flip=0, seed=1)
@example(d=4, n=1, repeat=0, flip=1, seed=2)
@example(d=1, n=5, repeat=1, flip=1, seed=3)
def test_H_infinity_is_the_closed_form_expression_bit_for_bit(d, n, repeat, flip, seed):
    X = _with_repeats(np.random.default_rng(seed).standard_normal((d, n)), repeat, flip)
    H = gram_H_infinity(X)
    want = gram_H_infinity_closed_form(X)
    assert H.tobytes() == want.tobytes()
    assert np.array_equal(H, H.T)
    got = spectrum(H).eigenvalues
    assert got.tobytes() == np.linalg.eigvalsh(0.5 * (want + want.T)).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    depth=st.integers(1, 4),
    d_in=st.integers(1, 5),
    d_out=st.integers(1, 3),
    n=st.integers(1, 9),
    repeat=st.integers(0, 2),
    flip=st.integers(0, 1),
    seed=st.integers(0, 2**16),
)
@example(depth=1, d_in=3, d_out=1, n=1, repeat=0, flip=0, seed=0)
@example(depth=4, d_in=3, d_out=2, n=1, repeat=1, flip=1, seed=1)
@example(depth=1, d_in=4, d_out=3, n=5, repeat=2, flip=0, seed=2)
@example(depth=4, d_in=5, d_out=1, n=7, repeat=0, flip=1, seed=3)
def test_gram_P0_is_the_scaled_kron_sum_bit_for_bit(depth, d_in, d_out, n, repeat, flip, seed):
    p = init_deep_linear(depth, 6, d_in, d_out, seed)
    X = _with_repeats(np.random.default_rng(seed).standard_normal((d_in, n)), repeat, flip)
    P = gram_P0(p, X)
    want = gram_P0_kron(input_chain(p, X), output_chain(p), p.scale)
    assert P.tobytes() == want.tobytes()
    assert np.array_equal(P, P.T)


def _peak_in_grams(f, side):
    """tracemalloc's peak while f runs, in arrays of side x side floats."""
    tracemalloc.start()
    try:
        f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (side * side * 8)


def test_set_up_gram_matrices_are_built_in_place():
    """Traced peaks in Gram-sized arrays: H-infinity with its spectrum holds
    X^T X and one angle array, P0 only itself, and gram_P0_lambda_min P0
    and the finiteness test's booleans. LAPACK's working copy of the matrix
    in eigh is allocated outside the allocator that tracemalloc traces, so
    it is not counted here."""
    X = _unit_columns(16, 600, seed=15)
    assert _peak_in_grams(lambda: spectrum(gram_H_infinity(X)), 600) <= 2.25
    # P0 of 100 samples at d_out 6, on data of rank 80
    p = init_deep_linear(3, 32, 80, 6, seed=16)
    X = np.random.default_rng(17).standard_normal((80, 100))
    assert _peak_in_grams(lambda: gram_P0(p, X), 600) <= 1.25
    assert _peak_in_grams(lambda: gram_P0_lambda_min(p, X), 480) <= 1.5


def test_rank_helpers():
    X = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # rank 1
    sv = analysis.nonzero_singular_values(X)
    assert sv.size == 1 and sv[-1] == pytest.approx(np.linalg.norm(X))


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
    # eta 20 contracts by 0.375 with one client of 4; with four, rho is -1.5
    sizes = [1, 4, 2]
    s = bound_series(3.0, 20.0, 2, 4, 0.5, sizes)
    assert s.rho == tuple(contraction_factor(20.0, k, 0.5, 2, 4) for k in sizes)
    assert s.values is None
    assert s.refused == "contraction factor -1.5 is not in (0, 1]: eta too large for the bound"


@pytest.mark.parametrize(
    "lam, reason",
    [(0.0, "lambda_min 0 is not positive"), (-0.25, "lambda_min -0.25 is not positive")],
    ids=["lambda-zero", "lambda-negative"],
)
def test_bound_series_refuses_a_nonpositive_lambda_min(lam, reason):
    sizes = [1, 4, 2]
    s = bound_series(3.0, 0.1, 2, 4, lam, sizes)
    assert s.rho == tuple(contraction_factor(0.1, k, lam, 2, 4) for k in sizes)
    assert s.values is None and s.refused == reason


def test_bound_series_values_are_the_running_product_of_its_factors():
    sizes = [3, 1, 4, 4, 2, 1]
    s = bound_series(7.5, 0.03, 3, 4, 1.7, sizes)
    assert s.refused is None
    assert s.rho == tuple(contraction_factor(0.03, k, 1.7, 3, 4) for k in sizes)
    expected = [7.5]
    for r in s.rho:
        expected.append(expected[-1] * r)
    assert s.values == tuple(expected)  # bit for bit


def test_lambda_min_floor_values():
    # gram-floor's floor 0.8^4 * depth * sigma_min(X)^2 / d_out, with
    # sigma_min(I) = 1
    for depth, d_out, floor in ((3, 1, 1.2288), (1, 3, 0.8**4 / 3)):
        p = init_deep_linear(depth, 8, 4, d_out, seed=0)
        lam = gram_P0_lambda_min(p, np.eye(4))[0]
        (rep,) = verify.gram_floor(_context(p, _linear_batch(p, np.eye(4)), lambda_min=lam))
        assert rep.measured == rep.context["floor"] == pytest.approx(floor)


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


def _init_spectra(p, X):
    return verify.init_spectra(_context(p, _linear_batch(p, X)))


def test_check_init_spectra_depth_one_is_vacuous():
    p = DeepLinearParams(layers=(np.ones((2, 3)),), width=4)
    reports = _init_spectra(p, np.random.default_rng(0).standard_normal((3, 5)))
    assert len(reports) == 1
    assert reports[0].passed and "vacuous" in reports[0].name


def test_check_init_spectra_report_inventory():
    p = init_deep_linear(3, 32, 4, 2, seed=0)
    X = np.random.default_rng(1).standard_normal((4, 6))
    reports = _init_spectra(p, X)
    names = [r.name for r in reports]
    # depth 3: two suffix products, two prefix products, one interior block
    assert sum(n.startswith("init-suffix") for n in names) == 4
    assert sum(n.startswith("init-prefix") for n in names) == 4
    assert sum(n.startswith("init-interior") for n in names) == 1
    assert all(np.isfinite(r.slack) and r.slack >= 0.0 for r in reports)


def test_check_init_spectra_passes_at_moderate_width():
    ds, _ = synth_linear_dataset(10, 5, 32, seed=0)
    p = init_deep_linear(3, 1000, 10, 5, seed=0)
    reports = _init_spectra(p, ds.X)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("width", [16, 256, 1000])
def test_init_interior_norms_agree_with_the_dense_svd(width):
    # depth 4 has three interior products: layers 2..2, 2..3 and 3..3
    p = init_deep_linear(4, width, 10, 5, seed=width)
    X = np.random.default_rng(width).standard_normal((10, 32))
    interior = [r for r in _init_spectra(p, X) if r.name.startswith("init-interior")]
    assert [r.name for r in interior] == [
        "init-interior-norm:2..2", "init-interior-norm:2..3", "init-interior-norm:3..3"
    ]
    for r in interior:
        i, j = map(int, r.context["layers"].split(".."))
        product = p.layers[i - 1] if i == j else p.layers[j - 1] @ p.layers[i - 1]
        dense = np.linalg.svd(product, compute_uv=False)[0]
        assert abs(r.measured - dense) <= 1e-12 * dense


def _descent(losses, eta, lam=1.0):
    """The local-descent report of one ReLU participant with these local
    losses: its step factor is 1 - eta*lam/2."""
    ctx = _context(init_two_layer(4, 2, seed=0), eta=eta, lambda_min=lam)
    (rep,) = verify.local_descent(ctx, _snapshot(None, losses=(losses,)))
    return rep


def test_check_local_descent_trivial_cases():
    flat = [2.0, 2.0, 2.0]
    rep = _descent(flat, eta=0.1, lam=0.0)  # factor 1
    assert rep.passed and rep.context["factor"] == 1.0
    only_start = _descent([5.0], eta=0.2)  # factor 0.9
    assert only_start.passed and only_start.measured == 1.0
    growing = _descent([1.0, 2.0], eta=0.2)
    assert not growing.passed


def test_check_local_descent_reports_the_worst_step():
    # factor 0.95: ratios 0.75 and 0.725 against 0.95 and 0.9025, so step 2
    # has the larger slack
    rep = _descent([4.0, 3.0, 2.9], eta=0.1)
    assert (rep.context["worst_step"], rep.measured, rep.bound) == (2, 0.725, 0.95**2)
    assert rep.passed and rep.context["factor"] == 0.95 and rep.context["lambda"] == 1.0
    assert not _descent([4.0, 3.9], eta=0.1).passed


def test_a_report_against_a_nonpositive_bound_has_no_negative_slack():
    # a negative bound (a rounding-level Gram floor, a large eta's factor)
    # ranks a failure above every pass: inf when it fails, 0 when it passes
    fails, passes = make_report("x", 1.0, -5.7e-16), make_report("x", -2.0, -1.0)
    assert (fails.passed, fails.slack, passes.passed, passes.slack) == (False, np.inf, True, 0.0)
    assert make_report("x", 1.0, 4.0).slack == 0.25
    # a step factor of -0.5: step 1 cannot reach -0.5, step 2 reaches 0.25
    rep = _descent([4.0, 3.0, 0.5], eta=3.0)
    assert (rep.context["worst_step"], rep.passed, rep.slack) == (1, False, np.inf)
    # a factor of 0 with the loss at 0: every step meets its bound
    rep = _descent([4.0, 0.0, 0.0], eta=2.0)
    assert (rep.passed, rep.slack) == (True, 0.0)


def test_check_local_deviation_bound_is_coefficient_times_base_norm():
    # one client of two unit samples whose residual at broadcast is (3, 4),
    # and a step that moves the second prediction by 0.5
    start = DeepLinearParams(layers=(np.zeros((1, 2)),), width=1)
    moved = DeepLinearParams(layers=(np.array([[0.0, 0.5]]),), width=1)
    batch = LabeledBatch(X=np.eye(2), Y=np.array([[-3.0, -4.0]]))

    def deviation(step, eta):
        rnd = verify.ObservedRound(_context(start, batch, eta=eta), _snapshot(start))
        residuals = _measured(verify.local_deviation_residual, rnd, [step])
        (rep,) = verify.local_deviation(rnd, residuals)
        return rep

    rep0 = deviation((start, start), 0.1)
    assert rep0.passed and rep0.measured == 0.0
    rep = deviation((start, moved), 0.1)
    coefficient = rep.context["coefficient"]
    assert coefficient == pytest.approx(57.0 * 0.1 / 10.0)  # |X| = 1, k = 1, d_out = 1
    assert (rep.measured, rep.bound) == (0.5, coefficient * 5.0)
    assert rep.context == {"k": 1, "eta": 0.1, "coefficient": coefficient, "base_norm": 5.0, "t": 0}
    assert not deviation((start, moved), 0.001).passed


def test_drift_radius_plug_in_values():
    X = np.random.default_rng(0).standard_normal((3, 8))
    halves = (X[:, :4], X[:, 4:])
    # 25*sqrt(B)*d_out*N^2*|X| / (L*sigma_min^2(X)), B the starting loss
    p = init_deep_linear(3, 16, 3, 2, seed=0)
    ctx = _context(p, *(LabeledBatch(X=Xc, Y=Xc[:2]) for Xc in halves))
    sv = np.linalg.svd(X, compute_uv=False)
    radius = 25.0 * np.sqrt(ctx.loss0) * 2 * 2**2 * sv[0] / (3 * sv[-1] ** 2)
    assert ctx.drift_radius == pytest.approx(radius, rel=1e-12)
    # 9*N^2*sqrt(n)*|y(0)-y| / (sqrt(m)*lambda), |y(0)-y| = sqrt(2 B)
    q = init_two_layer(100, 3, seed=0)
    ctx = _context(q, *(LabeledBatch(X=Xc, Y=Xc[0]) for Xc in halves), lambda_min=0.5)
    radius = 9.0 * 2**2 * np.sqrt(8) * np.sqrt(2.0 * ctx.loss0) / (np.sqrt(100) * 0.5)
    assert ctx.drift_radius == pytest.approx(radius, rel=1e-12)
    (rep,) = verify.global_drift(ctx, _snapshot(q))
    assert rep.bound == rep.context["radius"] == ctx.drift_radius


def test_check_drift_zero_at_initialization():
    X = np.random.default_rng(0).standard_normal((4, 6))
    p = init_deep_linear(3, 8, 4, 2, seed=0)
    (rep,) = verify.global_drift(_context(p, LabeledBatch(X=X, Y=X[:2])), _snapshot(p))
    assert rep.passed and rep.measured == 0.0
    q = init_two_layer(8, 4, seed=0)
    ctx = _context(q, LabeledBatch(X=X, Y=X[0]), lambda_min=0.5)
    (rep2,) = verify.global_drift(ctx, _snapshot(q))
    assert rep2.passed and rep2.measured == 0.0


def test_check_drift_fails_beyond_radius():
    # targets equal to the initial predictions shrink the radius to about 0
    p = init_deep_linear(2, 4, 3, 2, seed=0)
    X = np.random.default_rng(0).standard_normal((3, 5))
    moved = DeepLinearParams(layers=(p.layers[0] + 1.0, p.layers[1]), width=4)
    (rep,) = verify.global_drift(_context(p, LabeledBatch(X=X, Y=p.predict(X))), _snapshot(moved))
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
        verify.global_drift(_context(init), _snapshot(now))


def _local_drift(trajectory, batch):
    """local-drift's reports for one client's trajectory on its batch."""
    p = trajectory[0]
    rnd = verify.ObservedRound(_context(p, batch), _snapshot(p))
    return verify.local_drift(rnd, _measured(verify.local_drift_norms, rnd, [trajectory]))


def test_check_local_drift_zero_when_local_equals_global():
    ds, _ = synth_linear_dataset(4, 2, 8, seed=1)
    p = init_deep_linear(3, 8, 4, 2, seed=1)
    batch = LabeledBatch(X=ds.X, Y=ds.Y)
    (rep,) = _local_drift([p, p], batch)
    assert rep.passed and rep.measured == 0.0


def test_check_local_drift_passes_a_client_without_samples():
    # every gradient is a product with X_c, so an empty client never moves
    p = init_deep_linear(2, 8, 4, 2, seed=1)
    batch = LabeledBatch(X=np.zeros((4, 0)), Y=np.zeros((2, 0)))
    (traj,), _ = _round(p, [batch], [0], 0.01, 2)
    reports = _local_drift(traj, batch)
    assert [(r.passed, r.measured, r.bound) for r in reports] == [(True, 0.0, 0.0)] * 2


def _client_trajectory(width, eta=2e-5, steps=3, seed=0):
    """Broadcast weights, a client batch and that client's local iterates, in
    the shape of the wide verify config (4 clients of 8 samples)."""
    ds, _ = synth_linear_dataset(10, 5, 32, seed=seed)
    p = init_deep_linear(3, width, 10, 5, seed=seed)
    batch = LabeledBatch(X=ds.X[:, :8], Y=ds.Y[:, :8])
    (traj,), _ = _round(p, [batch], [0], eta, steps)
    return p, batch, traj


@pytest.mark.parametrize("width", [48, 256, 1000])
def test_local_drift_sketch_agrees_with_dense_spectral_norms(width):
    p, batch, traj = _client_trajectory(width)
    reports = _local_drift(traj, batch)
    assert len(reports) == 3
    for k, rep in enumerate(reports, start=1):
        dense = [np.linalg.norm(Wl - Wg, ord=2) for Wl, Wg in zip(traj[k].layers, p.layers)]
        np.testing.assert_allclose(rep.context["per_layer_spectral"], dense, rtol=1e-12)
        assert rep.measured == max(rep.context["per_layer_spectral"])


def test_local_drift_sketch_is_reproducible():
    p, batch, traj = _client_trajectory(256)
    first = _local_drift(traj, batch)
    assert [r.context for r in _local_drift(traj, batch)] == [r.context for r in first]


def test_local_drift_rejects_a_delta_above_the_rank_bound():
    p, batch, _ = _client_trajectory(48)
    noise = 1e-6 * np.random.default_rng(0).standard_normal(p.layers[1].shape)
    perturbed = DeepLinearParams(
        layers=(p.layers[0], p.layers[1] + noise, p.layers[2]), width=p.width
    )
    with pytest.raises(ValueError, match="rank 5"):
        _local_drift([p, perturbed], batch)


def test_local_drift_fails_when_drift_exceeds_the_radius():
    p, batch, traj = _client_trajectory(48)
    # targets within 1e-12 of the broadcast model's predictions shrink the
    # radius to almost nothing, while the local weights trained on real ones
    near = LabeledBatch(X=batch.X, Y=p.predict(batch.X) + 1e-12)
    rep = _local_drift(traj, near)[-1]
    assert rep.measured > 0.0
    assert not rep.passed and rep.slack > 1.0
    assert all(r.passed for r in _local_drift(traj, batch))


def test_check_gram_floor_on_a_moderate_instance():
    ds, _ = synth_linear_dataset(8, 2, 16, seed=0)
    p = init_deep_linear(3, 512, 8, 2, seed=0)
    lam = gram_P0_lambda_min(p, ds.X)[0]
    (rep,) = verify.gram_floor(_context(p, LabeledBatch(X=ds.X, Y=ds.Y), lambda_min=lam))
    assert rep.passed
    assert rep.bound == rep.context["observed_lambda_min"] == lam
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


def _predict(params, init, trajs, batches, members, eta, **kwargs):
    """predict_first_order of the round from params whose members' kept
    trajectories are trajs."""
    start = analysis.FirstOrderStart(params, init, batches, members)
    terms = [[start.iterate_terms(i, p) for p in traj[:-1]] for i, traj in enumerate(trajs)]
    return predict_first_order(start, terms, eta, **kwargs)


def test_predict_first_order_with_zero_rate_returns_current_residual():
    init, params, batches, cfg = _round_state()
    members = [0, 1, 2]
    trajs, _ = _round(params, batches, members, 0.0, cfg.local_steps)
    rep = _predict(params, init, trajs, batches, members, 0.0)
    X = np.hstack([b.X for b in batches])
    Y = np.hstack([b.Y for b in batches])
    np.testing.assert_array_equal(rep.predicted, vec_residual(params.predict(X), Y))


def test_predict_first_order_terms_recombine():
    init, params, batches, cfg = _round_state()
    members = [0, 2]
    trajs, _ = _round(params, batches, members, cfg.eta, cfg.local_steps)
    rep = _predict(params, init, trajs, batches, members, cfg.eta)
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
    trajs, _ = _round(params, batches, members, cfg.eta, cfg.local_steps)
    rep = _predict(params, init, trajs, batches, members, cfg.eta)
    predicted, norms = _dense_first_order(params, init, trajs, batches, members, cfg.eta)
    assert np.linalg.norm(rep.predicted - predicted) <= 1e-12 * np.linalg.norm(predicted)
    got = [rep.term_contraction, rep.term_gram_shift, rep.term_local_deviation]
    np.testing.assert_allclose(got, norms, rtol=0.0, atol=1e-10)


def _first_order_round(members):
    """The run context of _round_state's run, and a hand-built snapshot of
    its next round taken by `members`."""
    init, params, batches, cfg = _round_state()
    ctx = _context(init, *batches, eta=cfg.eta, steps=cfg.local_steps)
    trajs, averaged = _round(params, batches, members, cfg.eta, cfg.local_steps)
    return ctx, _snapshot(params, members, averaged=averaged, t=2), trajs


def _first_order(ctx, snap, trajs):
    """first-order's reports of the round: its eta/2 probe, then its measure
    of each of the members' iterates trajs."""
    rnd = verify.ObservedRound(ctx, snap)
    half = verify.half_rate_probe(rnd, federation.local_round)
    terms = _measured(verify.first_order_terms, rnd, trajs)
    return verify.first_order(rnd, terms, half)


def test_predict_first_order_prediction_is_accurate_and_eta_scaled(first_order_probes):
    _, halved = _first_order(*_first_order_round([0, 1, 2]))
    half, full = first_order_probes
    ratio = halved.context["scaling_ratio"]
    assert full.relative_error <= 1e-2
    assert half.actual_error < full.actual_error
    assert 2.5 <= ratio <= 5.5  # quadratic remainder signature, loose band


def test_first_order_scaling_predicts_from_the_given_trajectories(
    monkeypatch, usable_cores, first_order_probes, cheap_rounds_side_by_side
):
    # the eta probe uses the snapshot's round; only the eta/2 probe trains,
    # every member in one round
    init, params, batches, cfg = _round_state()
    members = [0, 2]
    X, Y = np.hstack([b.X for b in batches]), np.hstack([b.Y for b in batches])

    def probe(eta):
        trajs, averaged = _round(params, batches, members, eta, cfg.local_steps)
        actual = vec_residual(averaged.predict(X), Y)
        rep = _predict(params, init, trajs, batches, members, eta, next_residual=actual)
        return trajs, averaged, rep

    trajs, averaged, want_full = probe(cfg.eta)
    _, _, want_half = probe(0.5 * cfg.eta)
    ctx = _context(init, *batches, eta=cfg.eta, steps=cfg.local_steps)
    snap = _snapshot(params, members, averaged=averaged)
    rounds = []

    def counted(self, round_batches, *args, _round=type(params).descend_round, **kwargs):
        rounds.append((len(round_batches), kwargs.get("map", map) is map))
        return _round(self, round_batches, *args, **kwargs)

    monkeypatch.setattr(type(params), "descend_round", counted)
    for cores in (1, 2):
        usable_cores(cores)
        rounds.clear()
        first_order_probes.clear()
        _, halved = _first_order(ctx, snap, trajs)
        # the probe's members descend on a client pool: one core runs them
        # serially, two side by side, unless BLAS cannot be held to one thread
        assert rounds == [(len(members), cores == 1 or blas_threads() is None)]
        half, full = first_order_probes
        for got, want in ((full, want_full), (half, want_half)):
            np.testing.assert_array_equal(got.predicted, want.predicted)
            assert got.actual_error == want.actual_error
        assert halved.context["scaling_ratio"] == full.actual_error / half.actual_error


def test_first_order_scaling_scores_the_average_each_probe_round_formed(
    monkeypatch, first_order_probes
):
    # the eta probe scores the snapshot's average, the eta/2 probe the
    # average that its local_round summed as the round ran; neither averages
    ctx, snap, trajs = _first_order_round([0, 2])
    probes = []

    def probe(*args, _round=federation.local_round, **kwargs):
        runs, round_average = _round(*args, **kwargs)
        probes.append(round_average)
        return runs, round_average

    monkeypatch.setattr(federation, "local_round", probe)
    X, Y = ctx.X, np.hstack([b.Y for b in ctx.batches])
    # any parameters a snapshot carries as its round's average are the ones scored
    for given in (snap.averaged, snap.global_params):
        first_order_probes.clear()
        _first_order(ctx, dataclasses.replace(snap, averaged=given), trajs)
        half, full = first_order_probes
        actual = vec_residual(given.predict(X), Y)
        assert full.actual_error == float(np.linalg.norm(actual - full.predicted))
        actual = vec_residual(probes.pop()().predict(X), Y)
        assert half.actual_error == float(np.linalg.norm(actual - half.predicted))
    assert not probes


def test_first_order_scaling_skips_the_half_rate_probe_at_depth_one(
    monkeypatch, first_order_probes
):
    # depth 1 is linear in its weights: the prediction is exact, so there is
    # no remainder whose scaling the eta/2 probe could measure
    ds, _ = synth_linear_dataset(4, 3, 12, seed=0)
    batches = [LabeledBatch(X=ds.X[:, ix], Y=ds.Y[:, ix]) for ix in partition_iid(12, 3)]
    init = init_deep_linear(1, 8, 4, 3, seed=0)
    trajs, averaged = _round(init, batches, [0, 1, 2], 0.01, 3)
    monkeypatch.setattr(federation, "local_round", None)
    snap = _snapshot(init, [0, 1, 2], averaged=averaged)
    relative, vacuous = _first_order(_context(init, *batches, eta=0.01, steps=3), snap, trajs)
    (full,) = first_order_probes
    assert full.relative_error <= 1e-12
    assert relative.context["scaling_ratio"] is None
    assert vacuous.name == "first-order:halving-vacuous" and "depth 1" in vacuous.context["reason"]


def test_first_order_passes_the_halving_form_vacuously_when_no_member_holds_a_sample():
    # neither round moves, so both prediction errors are 0 and their ratio
    # is undefined
    ds, _ = synth_linear_dataset(2, 1, 2, seed=0)
    empty = LabeledBatch(X=np.zeros((2, 0)), Y=np.zeros((1, 0)))
    batches = [LabeledBatch(X=ds.X, Y=ds.Y), empty, empty]
    init = init_deep_linear(3, 8, 2, 1, seed=0)
    trajs, averaged = _round(init, batches, [1, 2], 0.01, 3)
    snap = _snapshot(init, [1, 2], averaged=averaged)
    relative, vacuous = _first_order(_context(init, *batches, eta=0.01, steps=3), snap, trajs)
    assert relative.passed and relative.measured == 0.0
    assert relative.context["scaling_ratio"] is None
    assert vacuous.name == "first-order:halving-vacuous" and vacuous.passed
    assert vacuous.context == {"t": 0, "reason": "the eta/2 probe's prediction error is 0: no remainder to halve"}


@pytest.mark.parametrize("cores", [1, 2])
def test_a_round_keeps_each_iterates_first_order_terms_bit_for_bit(
    cores, one_blas_thread, usable_cores
):
    # a round hands each iterate to first-order's measure as it descends, on
    # its client's thread, and keeps the terms alone; the last iterate starts
    # no step, so its terms are not formed
    init, params, batches, cfg = _round_state()
    members = [0, 2]
    ctx = _context(init, *batches, eta=cfg.eta, steps=cfg.local_steps)
    rnd = verify.ObservedRound(ctx, _snapshot(params, members=members))
    own = [batches[c] for c in members]
    usable_cores(cores)
    keep = functools.partial(verify.first_order_terms, rnd)
    runs, _ = local_round(params, own, cfg.eta, cfg.local_steps, keep=keep)
    trajs, _ = _round(params, batches, members, cfg.eta, cfg.local_steps)
    start = analysis.FirstOrderStart(params, init, batches, members)
    for i, ((kept, _), traj) in enumerate(zip(runs, trajs, strict=True)):
        assert len(kept) == len(traj) == cfg.local_steps + 1
        assert kept[-1] is None
        for got, p in zip(kept[:-1], traj):
            want = start.iterate_terms(i, p)
            assert len(got) == 3 and all(np.array_equal(a, b) for a, b in zip(got, want))


def test_the_half_rate_probe_holds_no_round_of_iterates(usable_cores):
    # a width-500 round of 4 clients x 3 steps, as the wide verify config
    # has; kept, the eta/2 round's 12 new iterates would hold 12 interior
    # layers beside the server sum
    width = 500
    ds, _ = synth_linear_dataset(10, 5, 32, seed=1)
    batches = [LabeledBatch(X=ds.X[:, ix], Y=ds.Y[:, ix]) for ix in partition_iid(32, 4)]
    init = init_deep_linear(3, width, 10, 5, seed=1)
    trajs, averaged = _round(init, batches, [0, 1, 2, 3], 2e-5, 3)
    ctx = _context(init, *batches, eta=2e-5, steps=3)
    snap = _snapshot(init, [0, 1, 2, 3], averaged=averaged)
    ctx.X  # the stacked data, cached before the count starts
    usable_cores(1)
    tracemalloc.start()
    try:
        relative, halved = _first_order(ctx, snap, trajs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert relative.passed and halved.name == "first-order:halving"
    # the sum and one client's state: each iterate's terms are formed from
    # the state's own arrays before its next step (2.6 layers measured)
    assert peak < 4.5 * width * width * 8


def test_predict_first_order_validates_trajectories():
    init, params, batches, cfg = _round_state()
    trajs, _ = _round(params, batches, [0], cfg.eta, cfg.local_steps)
    with pytest.raises(ValueError):
        _predict(params, init, trajs, batches, [0, 1], cfg.eta)
