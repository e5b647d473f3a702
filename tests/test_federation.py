"""Round loop behavior: sampling, local descent, aggregation, determinism."""

import builtins
import dataclasses
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedspectra import federation
from fedspectra.data import partition_iid, synth_linear_dataset
from fedspectra.federation import (
    DivergenceError,
    FederationConfig,
    global_loss,
    local_round,
    run_fedavg,
    sample_participants,
)
from fedspectra.models import (
    DeepLinearParams,
    LabeledBatch,
    TwoLayerParams,
    _descends_in_sample_space,
    blas_threads,
    init_deep_linear,
    init_two_layer,
    loss_of,
)

from oracles import (
    copied,
    eager_run_fedavg,
    pooled_gradient_step_linear,
    relu_gradient_step_loops,
    stacked_mean,
)


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
    ({"schedule": ((0,),), "rate": 0.5}, "schedule: give either rate or schedule, not both"),
    ({"eta": -0.1}, "eta: must be positive, got -0.1"),
    ({"eta": 0.0}, "eta: must be positive, got 0.0"),
    ({"eta": float("nan")}, "eta: must be finite, got nan"),
    ({"n_clients": 0}, "n_clients: must be positive, got 0"),
    ({"local_steps": 0}, "local_steps: must be positive, got 0"),
    ({"rounds": -1}, "rounds: must be >= 0, got -1"),
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
    assert (cfg.rate, cfg.seed, cfg.stop_loss_fraction) == (1.0, 0, None)
    assert cfg.schedule == ((1, 0),) * 100  # kept in the given order, as tuples
    assert hash(cfg) == hash(dataclasses.replace(cfg))


def _stepped(params, batch, eta, steps):
    """The last iterate of one client's local_round."""
    _, average = local_round(params, [batch], eta, steps)
    return average()


def test_local_round_shapes_and_descent():
    params, batches = _workload()
    ((traj, losses),), _ = local_round(params, batches[:1], eta=0.05, steps=4, keep=copied)
    assert len(traj) == 5 and len(losses) == 5
    assert all(np.array_equal(W, W0) for W, W0 in zip(traj[0].layers, params.layers))
    assert losses == sorted(losses, reverse=True)  # small step descends monotonically


def test_one_local_step_matches_pooled_gradient_oracle():
    params, batches = _workload()
    b = batches[1]
    stepped = _stepped(params, b, 0.03, 1)
    expected = pooled_gradient_step_linear(list(params.layers), params.scale, b.X, b.Y, 0.03)
    for W, We in zip(stepped.layers, expected):
        np.testing.assert_allclose(W, We, atol=1e-12)


def test_one_relu_step_matches_loop_oracle():
    q = init_two_layer(16, 5, seed=2)
    rng = np.random.default_rng(3)
    b = LabeledBatch(X=rng.standard_normal((5, 8)), Y=rng.standard_normal(8))
    expected = relu_gradient_step_loops(q.hidden, q.signs, b.X, b.Y, 0.03)
    np.testing.assert_allclose(_stepped(q, b, 0.03, 1).hidden, expected, atol=1e-12)


def test_aggregate_matches_a_stacked_mean_bit_for_bit():
    # a round sums its clients' last iterates in batch order, as np.mean over
    # a stacked axis does, keeps the start's output signs and leaves every
    # iterate alone
    rng = np.random.default_rng(0)
    linear = init_deep_linear(3, 16, 5, 2, seed=0)
    relu = init_two_layer(16, 5, seed=0)
    for n in (1, 2, 9, 20):
        for p in (linear, relu):
            Y = [rng.standard_normal((2, 3) if p is linear else 3) for _ in range(n)]
            batches = [LabeledBatch(X=rng.standard_normal((5, 3)), Y=y) for y in Y]
            # each client's last iterate as lent: the arrays the server sum adds
            runs, average = local_round(p, batches, 0.05, 2, keep=lambda i, k, q: q)
            lasts = [iterates[-1] for iterates, _ in runs]
            weights = [q.layers if p is linear else (q.hidden,) for q in lasts]
            before = [[W.copy() for W in ws] for ws in weights]
            mean = average()
            got = mean.layers if p is linear else (mean.hidden,)
            for i, W in enumerate(got):
                assert np.array_equal(W, stacked_mean([ws[i] for ws in weights]))
            for ws, ws0 in zip(weights, before):
                assert all(np.array_equal(W, W0) for W, W0 in zip(ws, ws0))
            if p is relu:
                assert np.array_equal(mean.signs, p.signs)


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


def test_run_is_deterministic_and_thread_count_invariant(one_blas_thread, usable_cores):
    params, batches = _workload(seed=3)
    cfg = FederationConfig(
        n_clients=4, local_steps=3, rounds=6, eta=0.04, rate=0.5, seed=7
    )
    runs = [run_fedavg(cfg, params, batches) for _ in range(2)]
    usable_cores(1)
    r1 = run_fedavg(cfg, params, batches)
    usable_cores(4)
    runs.append(run_fedavg(cfg, params, batches))
    for r in runs:
        assert r.losses == r1.losses  # exact float equality
        assert [t.members for t in r.traces] == [t.members for t in r1.traces]
        for Wa, Wb in zip(r1.params.layers, r.params.layers):
            assert np.array_equal(Wa, Wb)


def test_trace_rows_are_consistent_with_the_loss_series():
    # one record per applied round, in order; the losses live in result.losses
    params, batches = _workload(seed=2)
    cfg = FederationConfig(n_clients=4, local_steps=2, rounds=5, eta=0.03, seed=1)
    result = run_fedavg(cfg, params, batches)
    assert [tr.t for tr in result.traces] == list(range(cfg.rounds))
    assert len(result.losses) == len(result.traces) + 1
    for tr in result.traces:
        assert tr.members == sample_participants(tr.t, cfg)
        assert len(tr.local_losses) == len(tr.members)
        assert all(len(ls) == cfg.local_steps + 1 for ls in tr.local_losses)


def test_observer_sees_requested_rounds_with_full_trajectories():
    params, batches = _workload(seed=5)
    cfg = FederationConfig(n_clients=4, local_steps=3, rounds=6, eta=0.02, seed=2)
    seen = {}
    run_fedavg(cfg, params, batches, observer=lambda s: seen.setdefault(s.t, s))
    assert sorted(seen) == list(range(cfg.rounds))
    snap = seen[0]
    assert snap.global_params is params
    # the round's full trajectories, descended again from the snapshot,
    # start at the entering global model and have the losses the run recorded
    own = [batches[c] for c in snap.members]
    runs, _ = local_round(snap.global_params, own, cfg.eta, cfg.local_steps, keep=copied)
    assert all(len(traj) == 4 for traj, _ in runs)
    starts = [traj[0] for traj, _ in runs]
    assert all(np.array_equal(W, W0) for q in starts for W, W0 in zip(q.layers, params.layers))
    assert [tuple(losses) for _, losses in runs] == list(snap.local_losses)


def test_a_snapshot_carries_the_average_the_run_applies():
    # one server average per round: the object the observer sees is the one
    # the next round starts from, or the run's result after the last round
    params, batches = _workload(seed=5)
    cfg = FederationConfig(n_clients=4, local_steps=2, rounds=4, eta=0.02, rate=0.5, seed=3)
    seen = []
    result = run_fedavg(cfg, params, batches, observer=seen.append)
    assert [s.t for s in seen] == list(range(cfg.rounds))
    applied = [s.global_params for s in seen[1:]] + [result.params]
    assert all(s.averaged is after for s, after in zip(seen, applied))


def test_observed_rounds_do_not_change_the_run():
    params, batches = _workload(seed=4, width=64)
    cfg = FederationConfig(n_clients=4, local_steps=3, rounds=5, eta=0.013, seed=1)
    plain = run_fedavg(cfg, params, batches)
    seen = []
    watched = run_fedavg(cfg, params, batches, observer=seen.append)
    assert [s.t for s in seen] == list(range(cfg.rounds))
    assert plain.losses == watched.losses
    assert [tr.local_losses for tr in plain.traces] == [tr.local_losses for tr in watched.traces]
    assert all(np.array_equal(a, b) for a, b in zip(plain.params.layers, watched.params.layers))


def test_snapshot_iterates_outlive_the_run_unchanged():
    # descent updates its weights in place; neither the start nor the
    # average handed to an observer may share them, so each snapshot still
    # holds what a fresh descent of its round starts from and gives
    params, batches = _workload(seed=6, width=64)
    cfg = FederationConfig(n_clients=4, local_steps=3, rounds=4, eta=0.011, seed=2)
    seen = []
    run_fedavg(
        cfg, params, batches,
        observer=lambda s: seen.append((s, [W.copy() for W in s.global_params.layers])),
    )
    for snap, start in seen:
        assert all(np.array_equal(W, W0) for W, W0 in zip(snap.global_params.layers, start))
        own = [batches[c] for c in snap.members]
        _, fresh = local_round(snap.global_params, own, cfg.eta, cfg.local_steps)
        assert all(np.array_equal(Wa, Wb) for Wa, Wb in zip(snap.averaged.layers, fresh().layers))


def _uneven_workload(width, sizes, seed=3, depth=3, d_in=10, d_out=5):
    ds, _ = synth_linear_dataset(d_in, d_out, sum(sizes), seed=seed)
    ends = np.cumsum(sizes)
    batches = [
        LabeledBatch(X=ds.X[:, e - n : e], Y=ds.Y[:, e - n : e]) for n, e in zip(sizes, ends)
    ]
    return init_deep_linear(depth, width, d_in, d_out, seed=seed), batches


def _dense_steps_linear(params, batch, eta, steps):
    """The layers of iterates 0 to steps, each step from the pooled-gradient
    oracle, and each iterate's loss."""
    iterates = [list(params.layers)]
    for _ in range(steps):
        iterates.append(
            pooled_gradient_step_linear(iterates[-1], params.scale, batch.X, batch.Y, eta)
        )
    return iterates, [
        loss_of(DeepLinearParams(layers=tuple(layers), width=params.width), batch)
        for layers in iterates
    ]


@pytest.mark.parametrize(
    "width,sizes,eta",
    [
        pytest.param(256, (2, 9, 1, 5, 12, 3), 0.05, id="uneven-clients"),
        # as many samples per client as the width: every update is full rank
        pytest.param(100, (100,) * 4, 0.002, id="full-rank"),
    ],
)
def test_rounds_match_the_dense_step_oracle(width, sizes, eta):
    """Each observed member's iterates and losses, and the server average,
    against dense steps from the pooled-gradient oracle, at 1e-12 of the
    displacement; half the clients take part. Rounds that keep no iterates
    reach the same average bit for bit."""
    params, batches = _uneven_workload(width, sizes)
    cfg = FederationConfig(
        n_clients=len(sizes), local_steps=4, rounds=3, eta=eta, rate=0.5, seed=1
    )
    seen = []
    result = run_fedavg(cfg, params, batches, observer=seen.append)
    unobserved = run_fedavg(cfg, params, batches)
    assert all(np.array_equal(a, b) for a, b in zip(result.params.layers, unobserved.params.layers))
    assert all(len(s.members) == len(sizes) // 2 for s in seen)
    for snap, after in zip(seen, [s.global_params for s in seen[1:]] + [result.params]):
        start = snap.global_params
        # the observed round's iterates, descended again from its start
        own = [batches[c] for c in snap.members]
        runs, again = local_round(start, own, cfg.eta, cfg.local_steps, keep=copied)
        assert all(np.array_equal(a, b) for a, b in zip(again().layers, after.layers))
        assert [tuple(ls) for _, ls in runs] == list(snap.local_losses)
        last = []
        for c, (traj, _), losses in zip(snap.members, runs, snap.local_losses):
            want, want_losses = _dense_steps_linear(start, batches[c], cfg.eta, cfg.local_steps)
            assert len(traj) == len(want)
            assert all(np.array_equal(W, W0) for W, W0 in zip(traj[0].layers, start.layers))
            assert losses[-1] < losses[0]
            np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0)
            for q, layers in zip(traj[1:], want[1:]):
                for W, Wo, W0 in zip(q.layers, layers, start.layers):
                    assert np.linalg.norm(W - Wo) <= 1e-12 * np.linalg.norm(Wo - W0)
            last.append(want[-1])
        average = [stacked_mean(arrays) for arrays in zip(*last)]
        for W, Wo, W0 in zip(after.layers, average, start.layers):
            assert np.linalg.norm(W - Wo) <= 1e-12 * np.linalg.norm(Wo - W0)


def test_an_unobserved_linear_round_holds_one_client_at_a_time(usable_cores):
    # the default linear shape: 20 clients of 4 samples, 5 local steps; each
    # client's last iterate joins the server sum as soon as it is done
    width = 500
    params, batches = _workload(n_clients=20, d_in=10, d_out=5, n=80, width=width)
    cfg = FederationConfig(n_clients=20, local_steps=5, rounds=1, eta=0.0005)
    usable_cores(1)
    tracemalloc.start()
    try:
        run_fedavg(cfg, params, batches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sum and one client's interior copy; a client's weights are let go
    # before the next client copies them
    assert peak < 2.5 * width * width * 8


def test_a_round_observed_as_verify_observes_it_holds_no_iterate(usable_cores):
    # verify's run records each observed round and keeps none of its
    # iterates, so the round holds what an unobserved one holds
    width = 500
    params, batches = _workload(n_clients=20, d_in=10, d_out=5, n=80, width=width)
    cfg = FederationConfig(n_clients=20, local_steps=5, rounds=1, eta=0.0005)
    usable_cores(1)
    seen = []
    tracemalloc.start()
    try:
        run_fedavg(cfg, params, batches, observer=seen.append)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.t for s in seen] == [0]
    assert peak < 2.5 * width * width * 8


@pytest.mark.parametrize("workers", [2, 4])
def test_an_unobserved_round_holds_one_client_per_worker_beside_the_sum(workers, usable_cores):
    # a run's first round of several clients runs side by side, one client
    # per pool thread
    width = 500
    params, batches = _workload(n_clients=20, d_in=10, d_out=5, n=80, width=width)
    cfg = FederationConfig(n_clients=20, local_steps=5, rounds=1, eta=0.0005)
    usable_cores(workers)
    tracemalloc.start()
    try:
        run_fedavg(cfg, params, batches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (workers + 1.5) * width * width * 8


def _spy_on_clients(monkeypatch, summing_lag=0.005):
    """Record, as each client's descent starts, how many clients have
    started whose results descend_round has not yet added to the server sum,
    and the BLAS thread count the client sees. descend_round adds a result
    to the sum before it asks for the next; it is made to lag that long
    after each, so that a map running ahead of it would start more."""
    state = {"started": 0, "summed": 0, "ahead": [], "threads": []}
    lock = threading.Lock()
    descend, descend_round = DeepLinearParams._descend, DeepLinearParams.descend_round
    get = blas_threads()[0] if blas_threads() is not None else lambda: None

    def spy(self, *args):
        with lock:
            state["started"] += 1
            state["ahead"].append(state["started"] - state["summed"])
            state["threads"].append(get())
        return descend(self, *args)

    def summing(self, batches, eta, steps, keep=None, map=map):
        def counted(fn, items):
            for result in map(fn, items):
                yield result
                time.sleep(summing_lag)
                with lock:
                    state["summed"] += 1

        return descend_round(self, batches, eta, steps, keep, map=counted)

    monkeypatch.setattr(DeepLinearParams, "_descend", spy)
    monkeypatch.setattr(DeepLinearParams, "descend_round", summing)
    return state


@pytest.mark.parametrize("cores", [1, 2, 8])
def test_parallel_clients_run_in_an_ordered_bounded_window(
    monkeypatch, cores, one_blas_thread, usable_cores, cheap_rounds_side_by_side
):
    # both rounds run side by side on the pool's threads, one per usable
    # core, unless there is one; the clients are equal, so the window holds
    # one client per thread
    params, batches = _workload(n_clients=20, n=80)
    cfg = FederationConfig(n_clients=20, local_steps=2, rounds=2, eta=0.01)
    usable_cores(1)
    serial = run_fedavg(cfg, params, batches)
    usable_cores(cores)
    state = _spy_on_clients(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter as often as it allows
    try:
        _assert_same_run(run_fedavg(cfg, params, batches), serial)
    finally:
        sys.setswitchinterval(interval)
    assert len(state["ahead"]) == 40
    threads = cores if blas_threads() is not None else 1
    assert max(state["ahead"]) == threads  # never more beside the sum


@pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS thread count cannot be set")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_parallel_clients_hold_blas_to_one_thread_and_restore_it(
    monkeypatch, usable_cores, cheap_rounds_side_by_side
):
    get, put = blas_threads()
    before = get()
    put(2)
    if get() != 2:
        put(before)
        pytest.skip("OpenBLAS will not run two threads here")
    try:
        params, batches = _workload(n_clients=20, n=80)
        cfg = FederationConfig(n_clients=20, local_steps=2, rounds=2, eta=0.01)
        state = _spy_on_clients(monkeypatch, summing_lag=0.0)
        usable_cores(2)
        run_fedavg(cfg, params, batches)  # side by side, held
        assert state["threads"] == [1] * 40
        assert get() == 2
        state["threads"].clear()
        usable_cores(1)
        run_fedavg(cfg, params, batches)
        assert state["threads"] == [2] * 40  # one core leaves BLAS alone
        usable_cores(2)
        with pytest.raises(DivergenceError):
            run_fedavg(dataclasses.replace(cfg, eta=1e6, local_steps=8), params, batches)
        assert get() == 2

        def raising(snapshot):
            assert get() == 2  # the observer runs outside the held section
            raise KeyError("observer")

        with pytest.raises(KeyError):
            run_fedavg(cfg, params, batches, observer=raising)
        assert get() == 2
    finally:
        put(before)


@pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS thread count cannot be set")
def test_a_failing_client_lets_go_of_blas_only_once_no_client_runs(
    monkeypatch, usable_cores, cheap_rounds_side_by_side
):
    # client 3 fails while client 4 descends beside it; the thread count is
    # put back only once client 4 has ended
    get, put = blas_threads()
    params, batches = _workload(n_clients=20, n=80)
    cfg = FederationConfig(n_clients=20, local_steps=2, rounds=1, eta=0.01)
    usable_cores(2)
    lock, started, state = threading.Lock(), threading.Event(), {"running": 0, "puts": []}
    descend = DeepLinearParams._descend

    def failing(self, client, *args):
        if client.batch is batches[3]:
            assert started.wait(10.0)
            raise MemoryError("client 3")
        with lock:
            state["running"] += 1
        if client.batch is batches[4]:
            started.set()
            time.sleep(0.1)
        try:
            return descend(self, client, *args)
        finally:
            with lock:
                state["running"] -= 1

    def counted_put(n):
        with lock:
            state["puts"].append((n, state["running"]))
        put(n)

    before = get()
    monkeypatch.setattr(DeepLinearParams, "_descend", failing)
    monkeypatch.setattr(federation, "blas_threads", lambda: (get, counted_put))
    with pytest.raises(MemoryError):
        run_fedavg(cfg, params, batches)
    assert state["puts"] == [(1, 0), (before, 0)]
    assert get() == before


@pytest.mark.parametrize("blas", ["settable", "fixed"])
def test_the_default_pool_has_one_thread_per_usable_core(
    monkeypatch, blas, cheap_rounds_side_by_side
):
    monkeypatch.setattr(federation.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    if blas == "fixed":
        monkeypatch.setattr(federation, "blas_threads", lambda: None)
    params, batches = _workload(n_clients=20, n=80)
    state = _spy_on_clients(monkeypatch)
    # a round runs side by side, unless BLAS cannot be held to one thread:
    # then the clients would fight over its cores
    run_fedavg(FederationConfig(n_clients=20, local_steps=2, rounds=1, eta=0.01), params, batches)
    held = blas == "settable" and blas_threads() is not None
    assert max(state["ahead"]) == (3 if held else 1)


def _side_by_side(calls) -> list:
    """The results of calls, each a function of no arguments, in order,
    each a unit of one scheduler."""
    with federation.scheduler() as (submit, _):
        results = [submit(call) for call in calls]
        return [result() for result in results]


@pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS thread count cannot be set")
@pytest.mark.parametrize("cores, threads, together", [(1, 1, False), (2, 1, True), (2, 2, False)])
def test_calls_run_side_by_side_only_where_blas_already_runs_one_thread(
    usable_cores, cores, threads, together
):
    # so no call runs at a BLAS thread count other than the serial loop's;
    # the results keep the calls' order, and a call that raises raises
    get, put = blas_threads()
    before = get()
    put(threads)
    try:
        if get() != threads:
            pytest.skip(f"OpenBLAS will not run {threads} threads here")
        usable_cores(cores)
        caller, seen = threading.get_ident(), []

        def call(k):
            seen.append((threading.get_ident() != caller, get()))
            return k

        def fail():
            raise ValueError("call 1")

        assert _side_by_side([lambda k=k: call(k) for k in range(6)]) == list(range(6))
        assert set(seen) == {(together, threads)} and len(seen) == 6
        with pytest.raises(ValueError, match="call 1"):
            _side_by_side([lambda: call(0), fail, lambda: call(2)])
        assert get() == threads
    finally:
        put(before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cores", [1, 2])
def test_a_scheduler_round_is_local_round_bit_for_bit(cores, one_blas_thread, usable_cores):
    # its clients queue behind the units before them, a unit each, and the
    # server sum still adds them in client order; descend raises for no
    # client, and through raising, as in local_round, a client whose loss
    # goes non-finite names itself
    params, batches = _workload(n_clients=5, n=40)
    usable_cores(cores)
    want, want_average = local_round(params, batches, 0.01, 3, keep=copied)
    with federation.scheduler() as (submit, descend):
        busy = [submit(lambda: time.sleep(0.01)) for _ in range(3)]
        runs, average = descend(params, batches, 0.01, 3, keep=copied)
        assert [wait() for wait in busy] == [None] * 3
        diverged, _ = descend(params, batches, 1e6, 8, None)
        assert not np.isfinite(diverged[0][1][-1])
        with pytest.raises(DivergenceError) as exc:
            federation.raising(descend)(params, batches, 1e6, 8, None)
    assert (exc.value.client, exc.value.round_index) == (0, None)
    for (kept, losses), (want_kept, want_losses) in zip(runs, want, strict=True):
        assert losses == want_losses
        for p, q in zip(kept, want_kept, strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(p._weights(), q._weights()))
    pairs = zip(average()._weights(), want_average()._weights(), strict=True)
    assert all(np.array_equal(x, y) for x, y in pairs)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_a_round_runs_side_by_side_once_its_cheapest_client_costs_the_constant(
    monkeypatch, cores, usable_cores
):
    # read off the shapes, the same for every round of a pool, whether and
    # whatever it keeps: below the constant serially, at it side by side on
    # more than one usable core
    params, batches = _uneven_workload(16, (3, 5, 3, 4, 6, 3))
    cheapest = min(params.client_cost(b, 2) for b in batches)
    assert cheapest == params.client_cost(batches[0], 2) > 0
    ways, descend_round = [], DeepLinearParams.descend_round

    def spy(self, *args, map=map):
        ways.append("serial" if map is builtins.map else "side by side")
        return descend_round(self, *args, map=map)

    monkeypatch.setattr(DeepLinearParams, "descend_round", spy)
    usable_cores(cores)
    together = cores > 1 and blas_threads() is not None
    for constant, way in ((cheapest + 1, "serial"), (cheapest, "side by side")):
        monkeypatch.setattr(federation, "SIDE_BY_SIDE_COST", constant)
        ways.clear()
        with federation.scheduler() as (_, descend):
            for keep in (None, lambda i, k, p: p.layers[0][0, 0], copied, None):
                descend(params, batches, 0.01, 2, keep)
            descend(params, batches[:1], 0.01, 2, None)  # one client: serially
        assert ways == [way if together else "serial"] * 4 + ["serial"]


def _window_reached(sizes) -> int:
    """The most clients that ran ahead of the server sum in a run of two
    rounds, every client of `sizes` in each."""
    params, batches = _uneven_workload(16, sizes)
    cfg = FederationConfig(n_clients=len(sizes), local_steps=2, rounds=2, eta=0.01)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter as often as it allows
    try:
        with pytest.MonkeyPatch.context() as patch:
            state = _spy_on_clients(patch)
            run_fedavg(cfg, params, batches)
    finally:
        sys.setswitchinterval(interval)
    assert len(state["ahead"]) == 2 * len(sizes)
    return max(state["ahead"])


@pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS thread count cannot be set")
@pytest.mark.parametrize("cores", [2, 4])
def test_an_uneven_round_lets_short_clients_run_past_a_long_head(
    cores, one_blas_thread, usable_cores, cheap_rounds_side_by_side
):
    # the costliest client costs 14/4 of the cheapest, so the window holds
    # three times the threads; equal clients keep one per thread
    usable_cores(cores)
    uneven = (14, 4, 5) + (4, 6) * 8 + (7,)
    assert _window_reached(uneven) == 3 * cores
    assert _window_reached((5, 9) + (5,) * 18) == cores
    assert _window_reached((14, 4, 5, 4)) == 4  # all the round has


@pytest.mark.parametrize("workers", [2, 4])
def test_an_uneven_round_holds_its_window_of_clients_beside_the_sum(workers, usable_cores):
    # width 500 clients of 4 to 12 samples: the window holds three client
    # states per worker, each a copy of the weights, beside the sum
    width, sizes = 500, (12, 4) + (4, 8) * 9
    params, batches = _uneven_workload(width, sizes, d_in=10, d_out=5)
    cfg = FederationConfig(n_clients=len(sizes), local_steps=5, rounds=1, eta=0.0005)
    assert min(params.client_cost(b, 5) for b in batches) >= federation.SIDE_BY_SIDE_COST
    usable_cores(workers)
    tracemalloc.start()
    try:
        run_fedavg(cfg, params, batches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window = 3 * workers if blas_threads() is not None else 1
    assert peak < (window + 1.5) * sum(W.nbytes for W in params.layers)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_initial_loss_names_no_round():
    params, batches = _workload(seed=0)
    batches[2] = LabeledBatch(X=batches[2].X, Y=np.full_like(batches[2].Y, np.inf))
    cfg = FederationConfig(n_clients=4, local_steps=2, rounds=3, eta=0.01)
    with pytest.raises(DivergenceError) as exc:
        run_fedavg(cfg, params, batches)
    assert (exc.value.round_index, exc.value.client, exc.value.step) == (None, None, None)
    assert str(exc.value) == "non-finite initial loss inf" and exc.value.loss == np.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_the_first_member_even_when_it_diverges_later():
    params, batches = _workload(seed=0)
    # larger inputs diverge sooner: client 2 before client 0, clients 1 and 3 not at all
    for c, scale in ((0, 2.0), (2, 16.0)):
        batches[c] = LabeledBatch(X=scale * batches[c].X, Y=batches[c].Y)
    steps = {}
    for c in (0, 2):
        with pytest.raises(DivergenceError) as alone:
            local_round(params, [batches[c]], 1.0, 8)
        steps[c] = alone.value.step
    assert steps[2] < steps[0]
    cfg = FederationConfig(n_clients=4, local_steps=8, rounds=1, eta=1.0)
    with pytest.raises(DivergenceError) as exc:
        run_fedavg(cfg, params, batches)
    assert (exc.value.round_index, exc.value.client, exc.value.step) == (0, 0, steps[0])
    assert str(exc.value).startswith("round 0, client 0: non-finite local loss")


def test_global_loss_sums_client_losses():
    params, batches = _workload(seed=6)
    total = global_loss(params, batches)
    assert total == sum(loss_of(params, b) for b in batches)


def _relu_workload(seed=0, sizes=(4, 40, 8, 50), width=64, dim=20):
    """ReLU clients of the given sizes; at 3 local steps those of 4 and 8
    samples descend in sample space and those of 40 and 50 on the dense step."""
    rng = np.random.default_rng(seed)
    batches = [
        LabeledBatch(X=rng.standard_normal((dim, n)) / np.sqrt(dim), Y=rng.standard_normal(n))
        for n in sizes
    ]
    return init_two_layer(width, dim, seed=seed), batches


def _assert_same_run(a, b):
    assert a.traces == b.traces
    assert a.losses == b.losses
    assert all(np.array_equal(x, y) for x, y in zip(a.params._weights(), b.params._weights()))


RUN_CASES = {
    "rate-1": {},
    "rate-half": {"rate": 0.5},
    "schedule": {"schedule": ((0, 2, 5), (1,), tuple(range(8)), (3, 7), (2, 3, 4, 6), (1, 2))},
    # a pool of k workers: the process's usable cores
    "workers-1": {"cores": 1},
    "workers-4": {"rate": 0.5, "cores": 4},
    "workers-4-full": {"cores": 4},
}


@pytest.mark.parametrize("kind", ["deep-linear", "two-layer-relu"])
@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_matches_the_eager_loop_bit_for_bit(kind, case, usable_cores):
    """Reading each round's global loss off the next round's step-0 losses
    changes no bit of the traces, the losses or the final weights, with and
    without an observer."""
    if kind == "deep-linear":
        (params, batches), eta = _workload(seed=2, n_clients=8, n=32), 0.03
    else:
        (params, batches), eta = _relu_workload(seed=2, sizes=(4, 40, 8, 50) * 2), 0.05
    fed = dict(RUN_CASES[case])
    if "cores" in fed:
        usable_cores(fed.pop("cores"))
    cfg = FederationConfig(n_clients=8, local_steps=3, rounds=6, eta=eta, seed=1, **fed)
    _assert_same_run(run_fedavg(cfg, params, batches), eager_run_fedavg(cfg, params, batches))
    seen = {"new": [], "eager": []}
    runs = [
        run(cfg, params, batches, observer=seen[name].append)
        for name, run in (("new", run_fedavg), ("eager", eager_run_fedavg))
    ]
    _assert_same_run(*runs)
    assert [s.t for s in seen["new"]] == [s.t for s in seen["eager"]] == list(range(cfg.rounds))
    for a, b in zip(seen["new"], seen["eager"]):
        assert (a.members, a.local_losses) == (b.members, b.local_losses)
        for qa, qb in ((a.global_params, b.global_params), (a.averaged, b.averaged)):
            assert all(np.array_equal(x, y) for x, y in zip(qa._weights(), qb._weights()))


@pytest.mark.parametrize("kind", ["deep-linear", "two-layer-relu"])
def test_a_stopped_run_matches_the_eager_loop_and_hides_the_discarded_round(kind):
    params, batches = _workload(seed=1) if kind == "deep-linear" else _relu_workload(seed=1)
    eta = 0.05 if kind == "deep-linear" else 0.1
    cfg = FederationConfig(n_clients=4, local_steps=2, rounds=20, eta=eta, rate=0.5, seed=3)
    full = run_fedavg(cfg, params, batches).losses
    # stop once the loss falls to midway between the losses after rounds 3 and 4
    stopped = dataclasses.replace(cfg, stop_loss_fraction=0.5 * (full[4] + full[5]) / full[0])
    seen = {"new": [], "eager": []}
    runs = [
        run(stopped, params, batches, observer=seen[name].append)
        for name, run in (("new", run_fedavg), ("eager", eager_run_fedavg))
    ]
    _assert_same_run(*runs)
    assert len(runs[0].traces) == 5 and runs[0].losses == full[:6]
    # round 5 descended, but the stop test discarded it before any observer
    assert [s.t for s in seen["new"]] == [s.t for s in seen["eager"]] == [0, 1, 2, 3, 4]
    everything = dataclasses.replace(cfg, stop_loss_fraction=1.0)
    for run in (run_fedavg, eager_run_fedavg):
        shown = []
        result = run(everything, params, batches, observer=shown.append)
        assert (result.traces, result.losses, shown) == ((), full[:1], [])
        assert result.params is params


def test_a_full_participation_run_makes_one_forward_pass_per_client(monkeypatch):
    # every client's loss at the averaged weights is its step-0 loss of the
    # next round; only the loss after the last round takes forward passes
    calls = []

    def counted(params, batch):
        calls.append(batch)
        return loss_of(params, batch)

    monkeypatch.setattr(federation, "loss_of", counted)
    rounds = 5
    for params, batches in (_workload(seed=3), _relu_workload(seed=3)):
        for rate, run in ((1.0, run_fedavg), (1.0, eager_run_fedavg), (0.5, run_fedavg)):
            cfg = FederationConfig(
                n_clients=4, local_steps=2, rounds=rounds, eta=0.01, rate=rate, seed=4
            )
            calls.clear()
            run(cfg, params, batches)
            if run is eager_run_fedavg:
                assert len(calls) == (rounds + 1) * 4
            else:  # the non-participants of every round, then everyone once
                idle = sum(4 - len(sample_participants(t, cfg)) for t in range(rounds))
                assert len(calls) == idle + 4 == (4 if rate == 1.0 else 14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_global_loss_names_its_round_and_no_client(monkeypatch):
    # round 1's average is poisoned; round 2 then descends from it and its
    # clients diverge too, but the global loss after round 1 is raised first
    params, batches = _relu_workload()
    rounds = []
    descend_round = TwoLayerParams.descend_round

    def poisoned(self, *args, **kwargs):
        runs, average = descend_round(self, *args, **kwargs)
        rounds.append(None)
        if len(rounds) == 2:
            return runs, lambda: TwoLayerParams(np.full_like(self.hidden, np.inf), self.signs)
        return runs, average

    monkeypatch.setattr(TwoLayerParams, "descend_round", poisoned)
    cfg = FederationConfig(n_clients=4, local_steps=2, rounds=4, eta=0.01)
    for run in (run_fedavg, eager_run_fedavg):
        rounds.clear()
        with pytest.raises(DivergenceError) as exc:
            run(cfg, params, batches)
        assert (exc.value.round_index, exc.value.client, exc.value.step) == (1, None, None)
        assert str(exc.value).startswith("non-finite global loss")


def test_each_client_gram_is_formed_once_per_run(monkeypatch):
    params, batches = _relu_workload()
    steps = 3
    sample = [_descends_in_sample_space(params.width, params.dim, b.n, steps) for b in batches]
    assert sample == [True, False, True, False]
    used = {id(b): [] for b in batches}
    descend = TwoLayerParams._descend

    def spy(self, client, *args):
        out = descend(self, client, *args)
        used[id(client.batch)].append(client.batch.__dict__.get("gram"))
        return out

    monkeypatch.setattr(TwoLayerParams, "_descend", spy)
    cfg = FederationConfig(n_clients=4, local_steps=steps, rounds=4, eta=0.05)
    run_fedavg(cfg, params, batches)
    for b, in_sample_space in zip(batches, sample):
        assert len(used[id(b)]) == cfg.rounds
        if in_sample_space:  # one Gram, formed in round 0 and read by every round
            assert all(g is b.gram for g in used[id(b)])
            assert np.array_equal(b.gram, b.X.T @ b.X)
        else:
            assert used[id(b)] == [None] * cfg.rounds


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
