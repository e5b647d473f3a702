"""End-to-end acceptance runs for the simulator and theory checks.

One test per criterion; run with -rA (set in pyproject) so the summary shows a
single PASSED/FAILED line for each. The two reference training runs (a deep
linear job and a two-layer ReLU job) are module fixtures shared by the
criteria that inspect them, with per-round checks computed inside observers
as `fedspectra verify` computes them, each round's local iterates measured
as the round is descended again from its start, so that no local iterate is
retained.
"""

import json
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from fedspectra import analysis, verify
from fedspectra.cli import EXIT_OK, main
from fedspectra.data import partition_iid, synth_linear_dataset
from fedspectra.federation import FederationConfig, RoundSnapshot, local_round, run_fedavg
from fedspectra.models import (
    LabeledBatch,
    TwoLayerParams,
    DeepLinearParams,
    grad_two_layer,
    grads_deep_linear,
    init_deep_linear,
    init_two_layer,
    input_chain,
    loss_of,
    output_chain,
)

from oracles import finite_difference_grad, gram_linear_bruteforce, mc_relu_kernel


def _linear_batches(d_in, d_out, n, n_clients, seed):
    ds, _ = synth_linear_dataset(d_in, d_out, n, seed=seed)
    parts = partition_iid(n, n_clients)
    return ds, [LabeledBatch(X=ds.X[:, ix], Y=ds.Y[:, ix]) for ix in parts]


def _relu_batches(d, n, n_clients, seed):
    ds, _ = synth_linear_dataset(d, 1, n, seed=seed)
    parts = partition_iid(n, n_clients)
    return ds, [LabeledBatch(X=ds.X[:, ix], Y=ds.Y[:, ix].ravel()) for ix in parts]


def _initial_loss(params, batches):
    return sum(float(loss_of(params, b)) for b in batches)


def _setup_context(params, ds, lambda_min=None):
    """The run context of one client holding the whole dataset, as the
    set-up checks read it: the data, the initial parameters and the least
    Gram eigenvalue that set-up took."""
    return verify.RunContext((LabeledBatch(X=ds.X, Y=ds.Y),), params, lambda_min, 0.01, 1)


def _tallies(*keys):
    """State holding <key>_count, <key>_fail and worst_<key> for each key."""
    state = SimpleNamespace()
    for key in keys:
        vars(state).update({f"{key}_count": 0, f"{key}_fail": [], f"worst_{key}": -np.inf})
    return state


def _tally(state, key, reports):
    """Count the reports, keep the largest slack and the context of each failure."""
    fields = vars(state)
    for rep in reports:
        fields[f"{key}_count"] += 1
        fields[f"worst_{key}"] = max(fields[f"worst_{key}"], rep.slack)
        if not rep.passed:
            fields[f"{key}_fail"].append(rep.context)


def _local_checks(state, ctx, snap):
    """Tally the round's local-descent reports, and its local-deviation
    reports, measured as verify measures them: on the round descended
    again from its start."""
    _tally(state, "descent", verify.local_descent(ctx, snap))
    rnd = verify.ObservedRound(ctx, snap)
    measured = verify.redescend(
        rnd, [("local-deviation", verify.local_deviation_residual)], local_round
    )
    _tally(state, "deviation", verify.local_deviation(rnd, measured["local-deviation"]))


# ---------------------------------------------------------- shared run (4) ----
# Deep linear reference job: d_in=10, d_out=5, n=32, depth 3, width 256,
# 8 clients, 5 local steps, full participation, 500 rounds, seed 2.


@pytest.fixture(scope="module")
def run4():
    t0 = time.monotonic()
    ds, batches = _linear_batches(10, 5, 32, 8, seed=2)
    sv = np.linalg.svd(ds.X, compute_uv=False)
    eta = 4.0 * 5 / (3 * (sv[0] / sv[-1]) ** 2 * 5 * sv[0] ** 2)
    init = init_deep_linear(3, 256, 10, 5, seed=2)
    ctx = verify.RunContext(batches, init, None, eta, 5)
    state = _tallies("descent", "deviation")

    def observer(snap):
        if snap.t == 3:
            state.round3 = snap
        _local_checks(state, ctx, snap)

    cfg = FederationConfig(n_clients=8, local_steps=5, rounds=500, eta=eta, seed=2)
    result = run_fedavg(cfg, init, batches, observer=observer)
    state.elapsed = time.monotonic() - t0
    state.result = result
    state.ctx = ctx
    return state


# ---------------------------------------------------------- shared run (6) ----
# Two-layer ReLU reference job: d=16, n=64 unit-norm inputs, width 2048,
# 4 clients, 5 local steps, full participation, stop at 1e-2 of the starting
# loss (cap 2000 rounds), seed 0.


@pytest.fixture(scope="module")
def run6():
    t0 = time.monotonic()
    ds, batches = _relu_batches(16, 64, 4, seed=0)
    lam = analysis.spectrum(analysis.gram_H_infinity(ds.X)).lambda_min
    init = init_two_layer(2048, 16, seed=0)
    ctx = verify.RunContext(batches, init, lam, 0.05, 5)
    state = _tallies("descent", "deviation")

    cfg = FederationConfig(
        n_clients=4, local_steps=5, rounds=2000, eta=0.05, seed=0, stop_loss_fraction=1e-2
    )
    observer = partial(_local_checks, state, ctx)
    result = run_fedavg(cfg, init, batches, observer=observer)
    state.elapsed = time.monotonic() - t0
    state.result = result
    state.lambda_min = lam
    state.loss0 = ctx.loss0
    return state


@pytest.fixture(scope="module")
def run6_wide():
    # same ReLU job at width 4096, tracking how far each hidden row moves
    ds, batches = _relu_batches(16, 64, 4, seed=0)
    lam = analysis.spectrum(analysis.gram_H_infinity(ds.X)).lambda_min
    init = init_two_layer(4096, 16, seed=0)
    ctx = verify.RunContext(batches, init, lam, 0.05, 5)
    state = _tallies("drift")

    def observer(snap):
        _tally(state, "drift", verify.global_drift(ctx, snap))

    cfg = FederationConfig(
        n_clients=4, local_steps=5, rounds=2000, eta=0.05, seed=0, stop_loss_fraction=1e-2
    )
    result = run_fedavg(cfg, init, batches, observer=observer)
    end = RoundSnapshot(len(result.traces), (), (), result.params, None)
    _tally(state, "drift", verify.global_drift(ctx, end))
    state.result = result
    return state


# ------------------------------------------------------------------ criteria ----


def test_criterion_01_gradient_fidelity():
    """Closed-form gradients match central finite differences to 1e-6."""
    t0 = time.monotonic()

    p = init_deep_linear(3, 8, 4, 2, seed=0)
    rng = np.random.default_rng(1)
    batch = LabeledBatch(X=rng.standard_normal((4, 5)), Y=rng.standard_normal((2, 5)))

    def f_linear(flat):
        layers, at = [], 0
        for W in p.layers:
            layers.append(flat[at : at + W.size].reshape(W.shape))
            at += W.size
        return loss_of(DeepLinearParams(layers=tuple(layers), width=p.width), batch)

    flat = np.concatenate([W.ravel() for W in p.layers])
    fd = finite_difference_grad(f_linear, flat)
    closed = np.concatenate([g.ravel() for g in grads_deep_linear(p, batch)])
    assert np.linalg.norm(fd - closed) / np.linalg.norm(closed) <= 1e-6

    for seed in range(100):
        q = init_two_layer(16, 6, seed=seed)
        X = np.random.default_rng(seed + 500).standard_normal((6, 8))
        if np.min(np.abs(q.hidden @ X)) > 1e-3:
            break
    else:
        pytest.fail("no activation-margin instance found")
    rbatch = LabeledBatch(X=X, Y=np.random.default_rng(2).standard_normal(8))

    def f_relu(flat):
        q2 = TwoLayerParams(hidden=flat.reshape(q.hidden.shape), signs=q.signs)
        return loss_of(q2, rbatch)

    fd = finite_difference_grad(f_relu, q.hidden.ravel())
    closed = grad_two_layer(q, rbatch).ravel()
    assert np.linalg.norm(fd - closed) / np.linalg.norm(closed) <= 1e-6

    assert time.monotonic() - t0 < 1.0


def test_criterion_02_infinite_width_kernel_closed_form():
    """Closed-form wide-limit kernel matches Monte Carlo; trace is n/2."""
    t0 = time.monotonic()
    X = np.random.default_rng(0).standard_normal((6, 8))
    X = X / np.linalg.norm(X, axis=0)
    H = analysis.gram_H_infinity(X)
    estimate = mc_relu_kernel(X, draws=200_000, seed=7)
    assert np.max(np.abs(H - estimate)) <= 5e-3
    assert abs(np.trace(H) - 8 / 2.0) <= 1e-10
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_gram_builders_match_bruteforce_oracle():
    """Dense P0, its least nonzero eigenvalue from the data's row space, and
    the mixed Gram block applied as products agree with the entrywise loop
    oracle."""
    p = init_deep_linear(2, 3, 2, 2, seed=0)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((2, 3))
    oracle = gram_linear_bruteforce(
        list(p.layers), list(p.layers), X, X, p.width, p.d_out
    )
    assert np.max(np.abs(analysis.gram_P0(p, X) - oracle)) <= 1e-10
    lam, rank = analysis.gram_P0_lambda_min(p, X)
    assert rank == 2
    assert lam == pytest.approx(np.linalg.eigvalsh(oracle)[-2 * p.d_out], rel=1e-12)
    local = DeepLinearParams(
        layers=tuple(W + 0.3 * rng.standard_normal(W.shape) for W in p.layers), width=p.width
    )
    V = rng.standard_normal((p.d_out, 2))
    pairs = analysis._gram_pairs(p, output_chain(p), local, X[:, :2])
    got = analysis._gram_times(pairs, input_chain(p, X), V).flatten(order="F")
    mixed = gram_linear_bruteforce(
        list(p.layers), list(local.layers), X, X[:, :2], p.width, p.d_out
    )
    assert np.linalg.norm(got - mixed @ V.flatten(order="F")) <= 1e-12 * np.linalg.norm(got)


def test_criterion_04_deep_linear_convergence(run4):
    """Reference linear job: 1000x loss drop, contracting rounds, log-linear fit."""
    losses = np.asarray(run4.result.losses)
    assert losses[0] / losses[-1] >= 1e3
    ratios = losses[1:] / losses[:-1]
    assert all(r < 1.0 for r in ratios[1:])
    logs = np.log(losses)
    t_ax = np.arange(len(logs))
    slope, icpt = np.polyfit(t_ax, logs, 1)
    ss_res = np.sum((logs - slope * t_ax - icpt) ** 2)
    ss_tot = np.sum((logs - logs.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot >= 0.98
    assert run4.elapsed < 60.0


def test_criterion_05_more_participants_reach_the_target_sooner():
    """Mean rounds to 1e-2 of the starting loss strictly decreases with rate."""
    mean_rounds = []
    for rate in (0.125, 0.5, 1.0):
        counts = []
        for seed in range(5):
            ds, batches = _linear_batches(10, 5, 32, 8, seed=seed)
            sv = np.linalg.svd(ds.X, compute_uv=False)
            eta = 4.0 * 5 / (3 * (sv[0] / sv[-1]) ** 2 * 5 * sv[0] ** 2)
            init = init_deep_linear(3, 256, 10, 5, seed=seed)
            cfg = FederationConfig(
                n_clients=8, local_steps=5, rounds=3000, eta=eta,
                rate=rate, seed=seed, stop_loss_fraction=1e-2,
            )
            loss0 = _initial_loss(init, batches)
            result = run_fedavg(cfg, init, batches)
            assert result.final_loss <= 1e-2 * loss0  # cap was never the stopper
            counts.append(len(result.traces))
        mean_rounds.append(np.mean(counts))
    assert mean_rounds[0] > mean_rounds[1] > mean_rounds[2]


def test_criterion_06_relu_convergence(run6):
    """Reference ReLU job reaches 1e-2 of the starting loss within 2000 rounds."""
    assert run6.lambda_min > 0.0  # kernel is positive definite first
    assert len(run6.result.traces) <= 2000
    assert run6.result.final_loss <= 1e-2 * run6.loss0
    assert run6.elapsed < 120.0


def test_criterion_07_gram_eigenvalue_floor():
    """Least Gram eigenvalue clears the depth-scaled data floor on 5/5 seeds."""
    for seed in range(5):
        ds, _ = synth_linear_dataset(8, 2, 16, seed=seed)
        p = init_deep_linear(3, 512, 8, 2, seed=seed)
        lam = analysis.gram_P0_lambda_min(p, ds.X)[0]
        (rep,) = verify.gram_floor(_setup_context(p, ds, lam))
        assert rep.passed, f"seed {seed}: {rep}"


def test_criterion_08_initialization_spectra_bounds():
    """1.2/0.8 singular-value windows for layer products hold on 5/5 seeds."""
    for seed in range(5):
        ds, _ = synth_linear_dataset(10, 5, 32, seed=seed)
        p = init_deep_linear(3, 1000, 10, 5, seed=seed)
        reports = [
            r
            for r in verify.init_spectra(_setup_context(p, ds))
            if r.name.startswith(("init-suffix", "init-prefix"))
        ]
        assert len(reports) == 8
        bad = [r.name for r in reports if not r.passed]
        assert not bad, f"seed {seed}: {bad}"


def test_criterion_09_per_round_local_checks(run4, run6):
    """Local descent and local deviation bounds hold at every (round, step)."""
    assert run4.descent_count == 500 * 8
    assert run4.deviation_count == 500 * 5
    assert run4.descent_fail == [] and run4.deviation_fail == []
    assert run4.worst_descent <= 1.0 and run4.worst_deviation <= 1.0

    rounds6 = len(run6.result.traces)
    assert run6.descent_count == rounds6 * 4
    assert run6.deviation_count == rounds6 * 5 * 2  # proportional + crude form
    assert run6.descent_fail == [] and run6.deviation_fail == []


def test_criterion_10_hidden_row_drift_stays_in_radius(run6_wide):
    """Width-4096 ReLU job: every hidden row stays inside the drift radius."""
    rounds = len(run6_wide.result.traces)
    assert run6_wide.drift_count == rounds + 1  # every round start plus the end
    assert run6_wide.drift_fail == []
    assert run6_wide.worst_drift <= 1.0


def test_criterion_11_first_order_residual_prediction(run4, first_order_probes):
    """Round-3 residual prediction: small error, quartering under eta halving."""
    rnd = verify.ObservedRound(run4.ctx, run4.round3)
    half = verify.half_rate_probe(rnd, local_round)
    measured = verify.redescend(rnd, [("first-order", verify.first_order_terms)], local_round)
    _, halved = verify.first_order(rnd, measured["first-order"], half)
    half, full = first_order_probes
    ratio = halved.context["scaling_ratio"]
    assert full.relative_error <= 1e-2
    assert 3.5 <= ratio <= 4.5
    assert half.actual_error < full.actual_error


def test_criterion_12_trace_files_are_deterministic(tmp_path, one_blas_thread, usable_cores):
    """Fixed config+seed reproduces trace.csv byte for byte on the host's
    cores, on one and on four, at one BLAS thread."""
    base = {
        "model": {"kind": "deep-linear", "depth": 3, "width": 256, "d_in": 10, "d_out": 5},
        "data": {"kind": "synthetic", "n": 32},
        "federation": {
            "n_clients": 8, "local_steps": 5, "rounds": 40,
            "eta": 0.01, "rate": 0.5, "seed": 2,
        },
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(base))
    contents = []
    for name, cores in (("a", None), ("b", 1), ("c", 1), ("d", 4), ("e", 4)):
        if cores is not None:
            usable_cores(cores)
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        contents.append((out / "trace.csv").read_bytes())
    assert contents[0] == contents[1] == contents[2] == contents[3] == contents[4]
    assert len(contents[0].splitlines()) == 1 + 40
