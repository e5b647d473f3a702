"""The verify checks' bound inputs, from the paper's formulas, on tiny runs."""

import json

import numpy as np
import pytest

from fedspectra import analysis, cli, verify
from fedspectra.federation import run_fedavg

TINY_LINEAR = {
    "model": {"kind": "deep-linear", "depth": 3, "width": 64, "d_in": 6, "d_out": 2},
    "data": {"kind": "synthetic", "n": 12},
    "federation": {"n_clients": 3, "local_steps": 3, "rounds": 1, "eta": 0.001, "seed": 0},
}
TINY_RELU = {
    "model": {"kind": "two-layer-relu", "width": 128, "dim": 5},
    "data": {"kind": "synthetic", "n": 15},
    "federation": {"n_clients": 3, "local_steps": 3, "rounds": 1, "eta": 0.05, "seed": 0},
}


def _round_zero(doc):
    cfg = cli.parse_config(json.dumps(doc))
    ctx = cli.build_experiment(cfg)
    snapshots = []
    run_fedavg(
        cfg.federation, ctx.init_params, list(ctx.batches),
        observer=snapshots.append, observe_rounds={0},
    )
    return ctx, snapshots[0]


def test_local_descent_factor_per_model_kind():
    ctx, snap = _round_zero(TINY_LINEAR)
    reports = verify.local_descent(ctx, snap)
    assert [r.context["client"] for r in reports] == [0, 1, 2]
    for rep, b in zip(reports, ctx.batches):
        # 1 - eta*L*lambda_min(X_c^T X_c)/(4*d_out); 4 samples in 6 dimensions
        lam = np.linalg.eigvalsh(b.X.T @ b.X)[0]
        assert rep.context["factor"] == pytest.approx(1.0 - 0.001 * 3 * lam / (4.0 * 2), rel=1e-12)
        assert rep.context["lambda"] == pytest.approx(lam, rel=1e-9)

    ctx, snap = _round_zero(TINY_RELU)
    lam = np.linalg.eigvalsh(analysis.gram_H_infinity(ctx.X))[0]
    for rep in verify.local_descent(ctx, snap):
        # 1 - eta*lambda_min(H-infinity)/2
        assert rep.context["factor"] == pytest.approx(1.0 - 0.05 * lam / 2.0, rel=1e-12)


def test_local_deviation_coefficient_per_model_kind():
    ctx, snap = _round_zero(TINY_LINEAR)
    norm_x = np.linalg.norm(ctx.X, ord=2)
    reports = verify.local_deviation(ctx, snap)
    assert [r.name for r in reports] == ["local-deviation"] * 3
    for k, rep in enumerate(reports, start=1):
        # 57*k*eta*|X|^2/(10*d_out)
        assert rep.context["coefficient"] == pytest.approx(57.0 * k * 0.001 * norm_x**2 / 20.0)

    ctx, snap = _round_zero(TINY_RELU)
    norm_x = np.linalg.norm(ctx.X, ord=2)
    reports = verify.local_deviation(ctx, snap)
    assert [r.name for r in reports] == ["local-deviation", "local-deviation-crude"] * 3
    for k, (rep, crude) in enumerate(zip(reports[::2], reports[1::2]), start=1):
        assert rep.context["coefficient"] == pytest.approx(57.0 * k * 0.05 * norm_x**2 / 10.0)
        # 2*eta*n*K, the same for every step
        assert crude.context["coefficient"] == pytest.approx(2.0 * 0.05 * 15 * 3)


def test_gram_dim_is_the_side_of_the_matrix_set_up_builds():
    ctx = cli.build_experiment(cli.parse_config(json.dumps(TINY_LINEAR)))
    # rank min(d_in, n) = 6 of 12 samples, times d_out = 2
    U, sv, _ = np.linalg.svd(ctx.X, full_matrices=False)
    assert ctx.gram_dim == analysis.gram_P0(ctx.init_params, U * sv).shape[0] == 12
    ctx = cli.build_experiment(cli.parse_config(json.dumps(TINY_RELU)))
    assert ctx.gram_dim == analysis.gram_H_infinity(ctx.X).shape[0] == 15


def test_select_observes_rounds_only_for_per_round_checks():
    ctx = cli.build_experiment(cli.parse_config(json.dumps(TINY_LINEAR)))
    assert verify.select(ctx, ("gram-floor", "init-spectra"), [0], 4, 1024) == (
        ["init-spectra", "gram-floor"], [],
    )
    names, rounds = verify.select(ctx, None, [0], 4, 1024)
    assert (names, rounds) == (list(verify.known_checks("deep-linear")), [0])


@pytest.mark.parametrize("T, expected", [(0, []), (1, [0]), (2, [0, 1]), (5, [0, 2, 4])])
def test_select_defaults_to_the_first_middle_and_last_round(T, expected):
    ctx = cli.build_experiment(cli.parse_config(json.dumps(TINY_LINEAR)))
    assert verify.select(ctx, None, None, T, 1024)[1] == expected
    assert verify.select(ctx, ("init-spectra",), None, T, 1024)[1] == []


def test_worst_per_name_keeps_a_failing_report_against_a_negative_bound():
    # a gram-floor whose observed eigenvalue rounds below zero fails, and
    # must outrank a passing report of the same name whatever their order
    failing = verify.make_report("gram-floor", 1.1, -5.7e-16)
    passing = verify.make_report("gram-floor", 0.5, 1.0)
    assert not failing.passed and failing.slack > passing.slack
    for reports in ([passing, failing], [failing, passing]):
        assert verify.worst_per_name(reports) == [failing]
