"""Synchronous federated averaging with deterministic partial participation."""

import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .models import blas_threads, loss_of
from .rng import stream


class DivergenceError(RuntimeError):
    """Raised when a loss goes non-finite during local or global training."""

    def __init__(self, message, *, round_index=None, client=None, step=None, loss=None):
        super().__init__(message)
        self.round_index = round_index
        self.client = client
        self.step = step
        self.loss = loss


def is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def positive(path, value):
    if not value > 0:
        raise ValueError(f"{path}: must be positive, got {value}")


def nonnegative(path, value):
    if not value >= 0:
        raise ValueError(f"{path}: must be >= 0, got {value}")


def unit_interval(path, value):
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{path}: must lie in (0, 1], got {value}")


def client_lists(path, value):
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(r, (list, tuple)) and all(is_int(c) for c in r) for r in value
    ):
        raise ValueError(f"{path}: expected a list of client index lists")


def setting(default, check=None):
    """A field whose value rule check(path, value) runs on construction."""
    return field(default=default, metadata={"check": check})


class Settings:
    """Base of every config section: construction runs each field's value
    rule, naming the field, once a float is finite; None is unset and passes."""

    def __post_init__(self):
        for f in fields(self):
            value, check = getattr(self, f.name), f.metadata.get("check")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name}: must be finite, got {value}")
            if value is not None and check is not None:
                check(f.name, value)


@dataclass(frozen=True)
class FederationConfig(Settings):
    """One federated run, and the config file's `federation` section.

    A round's participants are schedule[t] when a schedule is given (one
    entry per round, the rate left at its default), else a `rate` share of
    the clients, at least one, drawn uniformly without replacement. Either
    way they are visited and averaged in ascending client order, side by
    side on the usable cores or one after another, as the round's stated
    cost says (see client_pool). The run ends early once the global loss
    reaches stop_loss_fraction times the starting loss, after one more round
    of local descent that it discards (see run_fedavg).
    """

    n_clients: int = setting(20, check=positive)
    local_steps: int = setting(5, check=positive)
    rounds: int = setting(100, check=nonnegative)
    eta: float = setting(0.0005, check=positive)
    rate: float = setting(1.0, check=unit_interval)
    schedule: tuple | None = setting(None, check=client_lists)
    seed: int = 0
    stop_loss_fraction: float | None = setting(None, check=positive)

    def __post_init__(self):
        super().__post_init__()
        if self.schedule is None:
            return
        if self.rate != 1.0:  # the file format cannot hold both
            raise ValueError("schedule: give either rate or schedule, not both")
        object.__setattr__(self, "schedule", tuple(tuple(r) for r in self.schedule))
        if len(self.schedule) != self.rounds:
            raise ValueError("schedule: must have one entry per round")
        for t, members in enumerate(self.schedule):
            if not members:
                raise ValueError(f"schedule: round {t}: empty participant set")
            if len(set(members)) != len(members):
                raise ValueError(f"schedule: round {t}: duplicate participant")
            if min(members) < 0 or max(members) >= self.n_clients:
                raise ValueError(f"schedule: round {t}: client index out of range")


@dataclass(frozen=True)
class RoundTrace:
    """One applied round: its participants and each one's local losses. The
    global loss before and after round t is RunResult.losses[t] and [t + 1]."""

    t: int
    members: tuple
    local_losses: tuple


@dataclass(frozen=True)
class RoundSnapshot(RoundTrace):
    """Handed to an observer: the round's record plus the global params
    entering round t and the server average of the participants' last
    iterates, the params entering round t + 1. It holds no local iterate: a
    caller that reads them descends the round again from global_params
    (local_round). No array in it is written to once built."""

    global_params: object
    averaged: object


@dataclass(frozen=True)
class RunResult:
    traces: tuple
    params: object
    losses: tuple  # global loss at t = 0 .. end, one longer than traces

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def sample_participants(t, cfg: FederationConfig) -> tuple:
    """Participant set for round t, sorted ascending. Deterministic in
    (cfg.seed, t) and independent of any other randomness in the run."""
    if cfg.schedule is not None:
        return tuple(sorted(int(c) for c in cfg.schedule[t]))
    count = max(1, int(round(float(cfg.rate) * cfg.n_clients)))
    rng = stream(cfg.seed, "participants", t)
    members = rng.choice(cfg.n_clients, size=count, replace=False)
    return tuple(int(c) for c in np.sort(members))


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _blas_held(hold):
    """Hold OpenBLAS to one thread when hold and numpy's BLAS allows it, so
    that clients descending side by side do not each split their products
    over the cores the others use."""
    threads = blas_threads() if hold else None
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# A round runs side by side once its cheapest client's stated cost (client_cost,
# multiply-adds) reaches this break-even, measured for 8 clients x 5 steps on 2
# cores at one BLAS thread, ms per client serial vs side by side: depth-3 linear
# on 4 samples, width 320 (6.9 M) 1.8 vs 2.2, 384 (9.8 M) 1.5-2.7 vs 1.7-2.4;
# ReLU of width 128 on 784 inputs, 100 samples (34 M) 2.3-2.9 vs 1.8-2.1.
SIDE_BY_SIDE_COST = 10_000_000


@contextmanager
def _windowed(pool, count):
    """Yields a map for descend_round: builtin map when count is 1, else an
    ordered window of count clients on pool (_round_descent's depth). A
    client is submitted, and its state made, only once the result count
    clients before it is in the server sum, so at most count client states
    live beside the sum. On leaving, no client of it runs, or ever starts."""
    pending = deque()

    def window(fn, clients):
        for client in clients:  # taken only once the window has room
            pending.append(pool.submit(fn, client))
            if len(pending) == count:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    try:
        yield map if count == 1 else window
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _round_descent(pool, cores, threads, serially):
    """descend(params, batches, eta, steps, keep): params.descend_round in
    _windowed's window on pool when there are several threads and the
    cheapest client costs SIDE_BY_SIDE_COST or more, as deep as threads
    times the costliest's cost in cheapest ones, rounded down, at most the
    round (an uneven round lets short clients pass a long head); else inside
    serially(call), which returns call's result. On several usable cores a
    round of several clients holds OpenBLAS to one thread either way."""

    def descend(params, batches, eta, steps, keep):
        costs = [params.client_cost(b, steps) for b in batches]
        together = threads > 1 and min(costs) >= SIDE_BY_SIDE_COST
        depth = min(len(costs), threads * (max(costs) // min(costs))) if together else 1
        # the window closes first: no client may still run once the hold is let go
        with _blas_held(cores > 1 and len(batches) > 1), _windowed(pool, depth) as clients_map:
            call = partial(params.descend_round, batches, eta, steps, keep, map=clients_map)
            return call() if depth > 1 else serially(call)

    return descend


@contextmanager
def client_pool():
    """Yields _round_descent's descend on one thread pool that lives as long
    as the context, e.g. a whole run: one thread per usable core (CPU
    affinity, so `taskset` bounds it), and a serial round in the calling
    thread. The choice is read off the shapes, not timed, so under CPU steal
    a round sent side by side stays there. On one usable core, or where
    OpenBLAS's thread count cannot be set, every round runs serially."""
    count = _usable_cores() if blas_threads() is not None else 1
    with ThreadPoolExecutor(max_workers=count) as pool:  # starts threads on first use
        yield _round_descent(pool, count, count, lambda call: call())


@contextmanager
def unit_pool():
    """Yields (submit, descend): one thread pool for a batch of work whose
    units are calls of no arguments and clients of rounds, so that no pool
    opens, or is waited on, inside a pool thread. submit(call) queues call
    and returns a function of no arguments that waits for its result and
    returns it, or raises what it raised. descend is local_round on the
    pool: a unit per client of a round side by side, one per serial round,
    so the calling thread computes only server sums beside the units.
    Units run on one thread per usable core when more than one is usable
    and numpy's OpenBLAS already runs one thread, else each at once in the
    calling thread, so no unit runs at a BLAS thread count other than the
    serial loop's. A unit that raises raises in the calling thread once no
    unit is running; units not yet started never do."""
    threads = blas_threads()
    cores = _usable_cores() if threads is not None else 1
    count = cores if threads is not None and threads[0]() == 1 else 1

    def submit(call):
        if count == 1:
            result = call()
            return lambda: result
        return pool.submit(call).result

    def descend(params, batches, eta, steps, keep):
        runs, average = rounds(params, batches, eta, steps, keep)
        _raise_local_divergence(runs, range(len(runs)), None)
        return runs, average

    with ThreadPoolExecutor(max_workers=count) as pool:  # starts threads on first use
        rounds = _round_descent(pool, cores, count, lambda call: submit(call)())
        try:
            yield submit, descend
        except BaseException:
            pool.shutdown(cancel_futures=True)  # and waits for the units running
            raise


def local_round(params, batches, eta, steps, keep=False) -> tuple:
    """One round of full-batch gradient descent from params on each batch,
    on a client pool of its own: (runs, average) as params.descend_round
    returns them. Raises DivergenceError, its client being the index into
    batches and its round None, for the first batch whose loss went
    non-finite."""
    with client_pool() as descend:
        runs, average = descend(params, batches, eta, steps, keep)
    _raise_local_divergence(runs, range(len(runs)), None)
    return runs, average


def _raise_local_divergence(runs, clients, t):
    """Raise DivergenceError for the first run whose loss ended non-finite,
    naming clients[i] for runs[i] and, unless t is None, round t."""
    for c, (_, losses) in zip(clients, runs):
        value = losses[-1]
        if not np.isfinite(value):
            k = len(losses) - 1
            message = f"non-finite local loss {value} at local step {k}"
            if t is not None:
                message = f"round {t}, client {c}: {message}"
            raise DivergenceError(message, round_index=t, client=c, step=k, loss=value)


def global_loss(params, client_batches) -> float:
    """Training loss over the union of all client data (the loss is a plain
    sum over samples, so summing per-client values is exact). run_fedavg
    calls it only after its last round; before that it sums the same terms
    in the same order, most of them read off the next round's descent."""
    return float(sum(loss_of(params, b) for b in client_batches))


def run_fedavg(
    cfg: FederationConfig,
    init_params,
    client_batches,
    *,
    observer=None,
    observe_rounds=None,
) -> RunResult:
    """Drive the broadcast / local-descent / average loop for cfg.rounds rounds.

    - every round descends on one client_pool, opened for the whole run, so
      at one BLAS thread every output is the same however a round runs.
    - observer(snapshot) fires for rounds in observe_rounds (every round when
      observe_rounds is None) before the server average, its `averaged`, is
      applied. No round keeps its local iterates.
    - the global loss entering round t is summed in client order from the
      participants' step-0 losses of round t, each a forward pass at the
      weights entering it, and a loss_of pass for every other client; only
      the loss after the last round comes from global_loss. So a round's
      loss is known only once the next round has descended: the stop test
      and a non-finite global loss act before that round's own divergence,
      observer or average, and a run that stops early discards one round of
      descent.
    """
    if len(client_batches) != cfg.n_clients:
        raise ValueError("need one batch per client")
    params, traces, losses = init_params, [], []
    stop = cfg.stop_loss_fraction
    with client_pool() as descend:
        for t in range(cfg.rounds + 1):
            if t == cfg.rounds:
                value = global_loss(params, client_batches)
            else:
                members = sample_participants(t, cfg)
                observed = observer is not None and (observe_rounds is None or t in observe_rounds)
                batches = [client_batches[c] for c in members]
                runs, average = descend(params, batches, cfg.eta, cfg.local_steps, False)
                step0 = {c: ls[0] for c, (_, ls) in zip(members, runs)}
                value = float(
                    sum(
                        step0[c] if c in step0 else loss_of(params, batch)
                        for c, batch in enumerate(client_batches)
                    )
                )
            if not np.isfinite(value):
                if t == 0:
                    raise DivergenceError(f"non-finite initial loss {value}", loss=value)
                raise DivergenceError(
                    f"non-finite global loss {value} after round {t - 1}",
                    round_index=t - 1,
                    loss=value,
                )
            losses.append(value)
            if t == cfg.rounds or (stop is not None and value <= stop * losses[0]):
                break

            _raise_local_divergence(runs, members, t)
            averaged = average()
            local_losses = tuple(tuple(ls) for _, ls in runs)
            if observed:
                observer(
                    RoundSnapshot(
                        t=t,
                        members=members,
                        local_losses=local_losses,
                        global_params=params,
                        averaged=averaged,
                    )
                )
            params = averaged
            traces.append(RoundTrace(t=t, members=members, local_losses=local_losses))
    return RunResult(traces=tuple(traces), params=params, losses=tuple(losses))
