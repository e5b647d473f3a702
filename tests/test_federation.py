"""Round loop behavior: sampling, local descent, aggregation, determinism."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspectra.data import partition_iid, synth_linear_dataset
from fedspectra.federation import (
    DivergenceError,
    FederationConfig,
    global_loss,
    local_trajectory,
    run_fedavg,
    sample_participants,
)
from fedspectra.models import (
    DeepLinearParams,
    LabeledBatch,
    TwoLayerParams,
    init_deep_linear,
    init_two_layer,
    loss_of,
)

from oracles import pooled_gradient_step_linear, relu_gradient_step_loops


def _workload(seed=0, n_clients=4, d_in=5, d_out=2, n=16, depth=3, width=16):
    ds, _ = synth_linear_dataset(d_in, d_out, n, seed=seed)
    batches = [
        LabeledBatch(X=ds.X[:, ix], Y=ds.Y[:, ix]) for ix in partition_iid(n, n_clients)
    ]
    params = init_deep_linear(depth, width, d_in, d_out, seed=seed)
    return params, batches


def test_sample_participants_deterministic_sorted_and_sized():
    cfg = FederationConfig(n_clients=10, local_steps=1, rounds=5, eta=0.1, rate=0.5, seed=4)
    a = sample_participants(2, cfg)
    b = sample_participants(2, cfg)
    assert a == b
    assert list(a) == sorted(a)
    assert len(a) == 5
    draws = [sample_participants(t, cfg) for t in range(10)]
    assert len(set(draws)) > 1  # each round draws afresh
    reseeded = dataclasses.replace(cfg, seed=5)
    assert any(sample_participants(t, reseeded) != draws[t] for t in range(10))
    tiny = FederationConfig(n_clients=10, local_steps=1, rounds=1, eta=0.1, rate=0.01)
    assert len(sample_participants(0, tiny)) == 1  # at least one client every round


def test_explicit_schedule_is_used_verbatim():
    cfg = FederationConfig(
        n_clients=4, local_steps=1, rounds=2, eta=0.1, schedule=((2, 0), (3,))
    )
    assert sample_participants(0, cfg) == (0, 2)
    assert sample_participants(1, cfg) == (3,)


# the rules the config file's federation section is read with, in code
CONFIG_ERRORS = [
    ({"rate": 1.5}, "rate: must lie in (0, 1], got 1.5"),
    ({"rate": 0.0}, "rate: must lie in (0, 1], got 0.0"),
    ({"rate": float("nan")}, "rate: must be finite, got nan"),
    ({"schedule": ((0,),), "rounds": 2}, "schedule: must have one entry per round"),
    ({"schedule": ((),)}, "schedule: round 0: empty participant set"),
    ({"schedule": ((0, 0),)}, "schedule: round 0: duplicate participant"),
    ({"schedule": ((5,),)}, "schedule: round 0: client index out of range"),
    ({"schedule": ((-1,),)}, "schedule: round 0: client index out of range"),
    ({"schedule": ((0.5,),)}, "schedule: expected a list of client index lists"),
    ({"schedule": "all"}, "schedule: expected a list of client index lists"),
    ({"eta": -0.1}, "eta: must be positive, got -0.1"),
    ({"eta": 0.0}, "eta: must be positive, got 0.0"),
    ({"eta": float("nan")}, "eta: must be finite, got nan"),
    ({"n_clients": 0}, "n_clients: must be positive, got 0"),
    ({"local_steps": 0}, "local_steps: must be positive, got 0"),
    ({"rounds": -1}, "rounds: must be >= 0, got -1"),
    ({"workers": 0}, "workers: must be positive, got 0"),
    ({"stop_loss_fraction": 0}, "stop_loss_fraction: must be positive, got 0"),
]


def test_config_validation():
    for bad, message in CONFIG_ERRORS:
        with pytest.raises(ValueError) as exc:
            FederationConfig(**{"n_clients": 2, "local_steps": 1, "rounds": 1, "eta": 0.1, **bad})
        assert str(exc.value) == message


def test_config_defaults_and_schedule_normalisation():
    cfg = FederationConfig(schedule=[[1, 0]] * 100)
    assert (cfg.n_clients, cfg.local_steps, cfg.rounds, cfg.eta) == (20, 5, 100, 0.0005)
    assert (cfg.rate, cfg.seed, cfg.workers, cfg.stop_loss_fraction) == (1.0, 0, 1, None)
    assert cfg.schedule == ((1, 0),) * 100  # kept in the given order, as tuples
    assert hash(cfg) == hash(dataclasses.replace(cfg))


def test_local_trajectory_shapes_and_descent():
    params, batches = _workload()
    traj, losses = local_trajectory(params, batches[0], eta=0.05, steps=4)
    assert len(traj) == 5 and len(losses) == 5
    assert traj[0] is params
    assert losses == sorted(losses, reverse=True)  # small step descends monotonically


def test_one_local_step_matches_pooled_gradient_oracle():
    params, batches = _workload()
    b = batches[1]
    stepped = params.step(b, eta=0.03)
    expected = pooled_gradient_step_linear(list(params.layers), params.scale, b.X, b.Y, 0.03)
    for W, We in zip(stepped.layers, expected):
        np.testing.assert_allclose(W, We, atol=1e-12)


def test_one_relu_step_matches_loop_oracle():
    q = init_two_layer(16, 5, seed=2)
    rng = np.random.default_rng(3)
    b = LabeledBatch(X=rng.standard_normal((5, 8)), Y=rng.standard_normal(8))
    expected = relu_gradient_step_loops(q.hidden, q.signs, b.X, b.Y, 0.03)
    np.testing.assert_allclose(q.step(b, eta=0.03).hidden, expected, atol=1e-12)


def test_aggregate_averages_layerwise():
    params, _ = _workload()
    shifted = DeepLinearParams(
        layers=tuple(W + 1.0 for W in params.layers), width=params.width
    )
    mean = DeepLinearParams.average([params, shifted])
    for W, Wm in zip(params.layers, mean.layers):
        np.testing.assert_allclose(Wm, W + 0.5, atol=1e-12)
    q = init_two_layer(8, 3, seed=0)
    other = TwoLayerParams(hidden=init_two_layer(8, 3, seed=1).hidden, signs=q.signs)
    mid = TwoLayerParams.average([q, other])
    np.testing.assert_allclose(mid.hidden, 0.5 * (q.hidden + other.hidden), atol=1e-12)
    np.testing.assert_array_equal(mid.signs, q.signs)
    for cls in (DeepLinearParams, TwoLayerParams):
        with pytest.raises(ValueError):
            cls.average([])


def test_aggregate_rejects_mismatched_relu_signs():
    a = init_two_layer(8, 3, seed=0)
    flipped = TwoLayerParams(hidden=a.hidden.copy(), signs=-a.signs)
    with pytest.raises(ValueError):
        TwoLayerParams.average([a, flipped])


def test_full_participation_single_step_equals_centralized_gd():
    # averaging N one-step clients equals one pooled gradient step at eta/N
    params, batches = _workload(n_clients=4)
    cfg = FederationConfig(n_clients=4, local_steps=1, rounds=1, eta=0.08, seed=0)
    result = run_fedavg(cfg, params, batches)
    X = np.hstack([b.X for b in batches])
    Y = np.hstack([b.Y for b in batches])
    expected = pooled_gradient_step_linear(list(params.layers), params.scale, X, Y, 0.08 / 4)
    for W, We in zip(result.params.layers, expected.__iter__()):
        np.testing.assert_allclose(W, We, atol=1e-10)


def test_run_is_deterministic_and_thread_count_invariant():
    params, batches = _workload(seed=3)
    cfg = FederationConfig(
        n_clients=4, local_steps=3, rounds=6, eta=0.04, rate=0.5, seed=7
    )
    r1 = run_fedavg(cfg, params, batches)
    r2 = run_fedavg(cfg, params, batches)
    r4 = run_fedavg(dataclasses.replace(cfg, workers=4), params, batches)
    assert r1.losses == r2.losses == r4.losses  # exact float equality
    assert [t.members for t in r1.traces] == [t.members for t in r4.traces]
    for Wa, Wb in zip(r1.params.layers, r4.params.layers):
        assert np.array_equal(Wa, Wb)


def test_trace_rows_are_consistent_with_the_loss_series():
    params, batches = _workload(seed=2)
    cfg = FederationConfig(n_clients=4, local_steps=2, rounds=5, eta=0.03, seed=1)
    result = run_fedavg(cfg, params, batches)
    assert len(result.losses) == len(result.traces) + 1
    for tr in result.traces:
        assert tr.loss == result.losses[tr.t]
        assert tr.ratio == pytest.approx(result.losses[tr.t + 1] / result.losses[tr.t])
        assert len(tr.local_losses) == len(tr.members)
        assert all(len(ls) == cfg.local_steps + 1 for ls in tr.local_losses)


def test_observer_sees_requested_rounds_with_full_trajectories():
    params, batches = _workload(seed=5)
    cfg = FederationConfig(n_clients=4, local_steps=3, rounds=6, eta=0.02, seed=2)
    seen = {}
    run_fedavg(
        cfg, params, batches, observer=lambda s: seen.setdefault(s.t, s), observe_rounds={0, 4}
    )
    assert sorted(seen) == [0, 4]
    snap = seen[0]
    assert snap.global_params is params
    assert all(len(traj) == 4 for traj in snap.trajectories)
    # broadcast copy is the entering global model
    assert snap.trajectories[0][0] is params


def test_stop_loss_ends_the_run_early():
    params, batches = _workload(seed=1)
    cfg = FederationConfig(n_clients=4, local_steps=2, rounds=50, eta=0.05, seed=0)
    full = run_fedavg(cfg, params, batches)
    target = full.losses[0] * 0.5
    stopped = run_fedavg(dataclasses.replace(cfg, stop_loss_fraction=0.5), params, batches)
    assert len(stopped.traces) < 50
    assert stopped.final_loss <= target
    assert stopped.losses[-2] > target  # stopped at the first crossing


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_context():
    params, batches = _workload(seed=0)
    cfg = FederationConfig(n_clients=4, local_steps=8, rounds=10, eta=1e6, seed=0)
    with pytest.raises(DivergenceError) as exc:
        run_fedavg(cfg, params, batches)
    assert exc.value.round_index == 0
    assert exc.value.client is not None


def test_global_loss_sums_client_losses():
    params, batches = _workload(seed=6)
    total = global_loss(params, batches)
    assert total == pytest.approx(sum(loss_of(params, b) for b in batches))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.05, 1.0))
def test_sampling_count_and_range(seed, n_clients, rate):
    cfg = FederationConfig(
        n_clients=n_clients, local_steps=1, rounds=3, eta=0.1, rate=rate, seed=seed
    )
    members = sample_participants(1, cfg)
    assert len(members) == max(1, int(round(rate * n_clients)))
    assert len(set(members)) == len(members)
    assert all(0 <= c < n_clients for c in members)
