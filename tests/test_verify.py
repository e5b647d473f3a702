"""The verify checks' bound inputs, from the paper's formulas, on tiny runs."""

import builtins
import concurrent.futures
import contextlib
import dataclasses
import json
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fedspectra import analysis, cli, federation, models, verify
from fedspectra.federation import local_round, run_fedavg
from fedspectra.models import blas_threads

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


def _observed(doc, rounds):
    """The run context of doc and the snapshots of its rounds in `rounds`."""
    cfg = cli.parse_config(json.dumps(doc))
    ctx = cli.build_experiment(cfg)
    seen = []
    run_fedavg(cfg.federation, ctx.init_params, list(ctx.batches), observer=seen.append)
    return ctx, [snap for snap in seen if snap.t in rounds]


def _round_zero(doc):
    ctx, (snap,) = _observed(doc, {0})
    return ctx, snap


def _local_deviation(ctx, snap):
    """local-deviation's reports of the round, its measure taken of each
    iterate of the round descended again."""
    rnd = verify.ObservedRound(ctx, snap)
    measured = verify.redescend(
        rnd, [("local-deviation", verify.local_deviation_residual)], local_round
    )
    return verify.local_deviation(rnd, measured["local-deviation"])


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
    reports = _local_deviation(ctx, snap)
    assert [r.name for r in reports] == ["local-deviation"] * 3
    for k, rep in enumerate(reports, start=1):
        # 57*k*eta*|X|^2/(10*d_out)
        assert rep.context["coefficient"] == pytest.approx(57.0 * k * 0.001 * norm_x**2 / 20.0)

    ctx, snap = _round_zero(TINY_RELU)
    norm_x = np.linalg.norm(ctx.X, ord=2)
    reports = _local_deviation(ctx, snap)
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
    # the parameter class's side on either side of min(d_in, n), d_in = 6
    assert [ctx.init_params.gram_dim(n) for n in (4, 6, 9)] == [8, 12, 12]
    ctx = cli.build_experiment(cli.parse_config(json.dumps(TINY_RELU)))
    assert ctx.gram_dim == analysis.gram_H_infinity(ctx.X).shape[0] == 15
    # n whatever the input size, dim = 5
    assert [ctx.init_params.gram_dim(n) for n in (3, 5, 9)] == [3, 5, 9]


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


WIDE_ROUND = {
    "model": {"kind": "deep-linear", "depth": 3, "width": 500, "d_in": 10, "d_out": 5},
    "data": {"kind": "synthetic", "n": 32},
    "federation": {"n_clients": 4, "local_steps": 3, "rounds": 1, "eta": 2e-05, "seed": 1},
}


def test_a_re_descent_holds_no_round_of_iterates(usable_cores):
    # a width-500 round of 4 clients x 3 steps; every measure of the linear
    # model records each iterate as it is formed, and holds none of them
    usable_cores(1)  # the run's and the re-descent's, so that both round alike
    ctx, snap = _round_zero(WIDE_ROUND)
    width = WIDE_ROUND["model"]["width"]
    rnd = verify.ObservedRound(ctx, snap)
    measured = [(name, row.measure) for name, row in verify.CHECKS.items() if row.measure]
    assert [name for name, _ in measured] == ["local-deviation", "local-drift", "first-order"]
    ctx.X, ctx.client_singular_values  # the run's set-up, cached before the count starts
    tracemalloc.start()
    try:
        kept = verify.redescend(rnd, measured, local_round)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(kept[name]) == 4 and len(kept[name][0]) == 4 for name, _ in measured)
    # the sum, one client's state, one delta of local-drift's sketch and
    # its residual blocks (4.2 layers measured); kept, the round's 12 new
    # iterates would hold 12 interior layers more
    assert peak < 4.5 * width * width * 8


@pytest.mark.parametrize("field", ["local_losses", "averaged"])
def test_a_snapshot_that_its_round_does_not_reproduce_is_refused(field):
    # a re-descent measures the round that the snapshot records or none:
    # one ulp off in a local loss or in the average names the round
    ctx, snap = _round_zero(TINY_LINEAR)
    snap = dataclasses.replace(snap, t=7)
    if field == "local_losses":
        (first, *rest), *others = snap.local_losses
        off = ((np.nextafter(first, np.inf), *rest), *others)
    else:
        W, *layers = snap.averaged.layers
        W = W.copy()
        W[0, 0] = np.nextafter(W[0, 0], np.inf)
        off = dataclasses.replace(snap.averaged, layers=(W, *layers))
    for recorded, raises in ((snap, False), (dataclasses.replace(snap, **{field: off}), True)):
        names = verify.known_checks("deep-linear")
        if not raises:
            assert verify.run_checks(ctx, names, [recorded])
            continue
        with pytest.raises(verify.ReplayError, match="round 7: .* differ from the snapshot's"):
            verify.run_checks(ctx, names, [recorded])


def test_the_round_start_terms_are_built_once_before_the_rounds_calls_start(monkeypatch):
    # the client threads of a round's re-descent and of its eta/2 probe read
    # the round-start terms at once; from Python 3.12 cached_property takes
    # no lock, so run_checks builds them before either round's clients start
    ctx, snap = _round_zero(TINY_LINEAR)
    built, starts = [], []
    pool, start = verify.scheduler, analysis.FirstOrderStart

    @contextlib.contextmanager
    def calls_start():
        with pool() as (submit, descend):

            def round_starts(*args, **kwargs):
                built.append(len(starts) == 1)
                return descend(*args, **kwargs)

            yield submit, round_starts

    def counted(*args):
        starts.append(args)
        return start(*args)

    monkeypatch.setattr(verify, "scheduler", calls_start)
    monkeypatch.setattr(analysis, "FirstOrderStart", counted)
    verify.run_checks(ctx, verify.known_checks("deep-linear"), [snap])
    assert built == [True, True] and len(starts) == 1


def _pool_events(tmp_path, monkeypatch, rounds) -> list:
    """(event, thread) of every thread pool that `fedspectra verify` opens,
    shuts down or waits on, in order, observing `rounds` of a 4-round run
    of the tiny linear config; thread is the waiting or opening thread."""
    events = []

    class Pool(federation.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            events.append(("open", threading.get_ident()))
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            events.append(("wait", threading.get_ident()))
            super().shutdown(*args, **kwargs)

    def waited(self, *args, _result=concurrent.futures.Future.result, **kwargs):
        events.append(("wait", threading.get_ident()))
        return _result(self, *args, **kwargs)

    def waited_on_all(futures, *args, _wait=federation.wait, **kwargs):
        events.append(("wait", threading.get_ident()))
        return _wait(futures, *args, **kwargs)

    monkeypatch.setattr(federation, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(federation, "wait", waited_on_all)
    monkeypatch.setattr(concurrent.futures.Future, "result", waited)
    doc = TINY_LINEAR | {
        "federation": TINY_LINEAR["federation"] | {"rounds": 4},
        "verify": {"rounds": rounds},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / f"rounds-{len(rounds)}"
    # width 64 is below init-spectra's band, which does not matter here
    exits = (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED)
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) in exits
    return events


def test_verify_opens_as_many_pools_however_many_rounds_it_observes(
    tmp_path, monkeypatch, one_blas_thread, usable_cores
):
    # the run's scheduler and the checks' scheduler: each observed
    # round's re-descent and eta/2 probe put their clients on the latter
    usable_cores(2)
    opened = [
        [event for event, _ in _pool_events(tmp_path, monkeypatch, rounds)].count("open")
        for rounds in ([0], [0, 1, 2, 3])
    ]
    assert opened == [2, 2]


def test_no_pool_opens_or_is_waited_on_inside_a_pool_thread(
    tmp_path, monkeypatch, one_blas_thread, usable_cores
):
    usable_cores(2)
    events = _pool_events(tmp_path, monkeypatch, [0, 2])
    assert {"open", "wait"} == {event for event, _ in events}
    assert {thread for _, thread in events} == {threading.get_ident()}


@pytest.mark.parametrize("cores", [2, 4])
def test_the_checks_compute_on_at_most_one_thread_per_usable_core(
    cores, monkeypatch, one_blas_thread, usable_cores
):
    # every check and every client of a round descended again is one unit
    # of one pool, and no unit opens a pool of its own
    doc = TINY_LINEAR | {"federation": TINY_LINEAR["federation"] | {"rounds": 3}}
    ctx, snapshots = _observed(doc, {0, 1, 2})
    usable_cores(cores)
    lock, running, most = threading.Lock(), [0], [0]

    def counted(fn):
        def unit(*args, **kwargs):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                time.sleep(0.002)  # long enough that units which may overlap do
                return fn(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        return unit

    rows = {name: row._replace(check=counted(row.check)) for name, row in verify.CHECKS.items()}
    monkeypatch.setattr(verify, "CHECKS", rows)
    monkeypatch.setattr(models._LocalDescent, "_descend", counted(models._LocalDescent._descend))
    assert verify.run_checks(ctx, verify.known_checks("deep-linear"), snapshots)
    assert most[0] <= cores
    assert (most[0] > 1) is (blas_threads() is not None)


@pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS thread count cannot be set")
def test_verify_descends_its_rounds_side_by_side_at_two_blas_threads(
    tmp_path, monkeypatch, usable_cores, cheap_rounds_side_by_side
):
    # the eta/2 probe and the re-descent go through the window, as the run's
    # own rounds do; either way a round holds BLAS to one thread, so
    # verify.json is the one every serial round writes
    get, put = blas_threads()
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS will not run 2 threads here")
        usable_cores(2)
        ctx, snapshots = _observed(TINY_LINEAR, {0})
        windowed, descend_round = [], models.DeepLinearParams.descend_round

        def spy(self, *args, map=map):
            windowed.append(map is not builtins.map)
            return descend_round(self, *args, map=map)

        monkeypatch.setattr(models.DeepLinearParams, "descend_round", spy)
        verify.run_checks(ctx, verify.known_checks("deep-linear"), snapshots)
        assert windowed == [True, True]  # the eta/2 probe, then the re-descent
        path = tmp_path / "c.json"
        path.write_text(json.dumps(TINY_LINEAR))
        written = []
        for constant, together in ((1, True), (float("inf"), False)):
            monkeypatch.setattr(federation, "SIDE_BY_SIDE_COST", constant)
            windowed.clear()
            out = tmp_path / f"together-{together}"
            # width 64 is below init-spectra's band, which does not matter here
            exits = (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED)
            assert cli.main(["verify", "--config", str(path), "--out", str(out)]) in exits
            assert windowed == [together] * 3  # the run's round, the probe, the re-descent
            written.append((out / "verify.json").read_bytes())
        assert written[0] == written[1]
    finally:
        put(before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_probe_exits_with_the_divergence_code(tmp_path, monkeypatch, capsys):
    # the rounds run_checks drives raise DivergenceError as local_round does,
    # naming the client by its index, and verify reports it without a traceback
    def steep(rnd, descend, _probe=verify.half_rate_probe):
        def diverging(params, batches, eta, steps, keep):
            return descend(params, batches, 1e6 * eta, steps, keep)

        return _probe(rnd, diverging)

    monkeypatch.setattr(verify, "half_rate_probe", steep)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(TINY_LINEAR))
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.startswith("divergence: non-finite local loss") and "Traceback" not in err
