"""Synchronous federated averaging with deterministic partial participation."""

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields

import numpy as np

from .models import LabeledBatch, loss_of
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
    way they are visited and averaged in ascending client order. workers > 1
    trains them in a thread pool; the run ends early once the global loss
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
    workers: int = setting(1, check=positive)
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
    """One trace row: loss is measured before the round's update is applied,
    ratio is the factor the round achieved (loss after / loss before)."""

    t: int
    members: tuple
    loss: float
    ratio: float
    local_losses: tuple


@dataclass(frozen=True)
class RoundSnapshot:
    """Handed to an observer: global params entering round t plus every
    participant's full local trajectory (step 0 is the broadcast copy).
    No array in it is written to after it is built."""

    t: int
    members: tuple
    global_params: object
    trajectories: tuple
    local_losses: tuple


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


def local_round(params, batches, eta, steps, keep=False, map=map) -> tuple:
    """One round of full-batch gradient descent from params on each batch
    (params.descend_round; `map`, builtin map or an executor's, runs the
    clients).

    Returns (runs, average). runs[i] is (iterates, losses) for batches[i]:
    losses has steps+1 entries, index 0 being the starting point, and so has
    iterates when keep, else it is empty. average() forms the server average
    of the last iterates. Raises DivergenceError, its client being the index
    into batches, for the first batch whose loss went non-finite.
    """
    runs, average = params.descend_round(batches, eta, steps, keep=keep, map=map)
    error = _local_divergence(runs)
    if error is not None:
        raise error
    return runs, average


def _local_divergence(runs):
    """The DivergenceError for the first run whose loss ended non-finite,
    its client being the run's index, or None."""
    for i, (_, losses) in enumerate(runs):
        value = losses[-1]
        if not np.isfinite(value):
            k = len(losses) - 1
            return DivergenceError(
                f"non-finite local loss {value} at local step {k}", client=i, step=k, loss=value
            )
    return None


def local_trajectory(params, batch: LabeledBatch, eta, steps, keep=True):
    """local_round on one batch. Returns (trajectory, losses): trajectory
    holds all steps+1 iterates when keep, else the last one only."""
    ((trajectory, losses),), last = local_round(params, [batch], eta, steps, keep)
    return (trajectory if keep else (last(),)), losses


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

    - with cfg.workers > 1, clients train in a thread pool; results are
      collected by client position so the aggregate is order-stable.
    - observer(snapshot) fires for rounds in observe_rounds (every round when
      observe_rounds is None) before the server average is applied. Only
      those rounds keep every local iterate; the others keep none.
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
    params, traces, losses, row = init_params, [], [], None
    stop = cfg.stop_loss_fraction
    for t in range(cfg.rounds + 1):
        if t == cfg.rounds:
            value = global_loss(params, client_batches)
        else:
            members = sample_participants(t, cfg)
            observed = observer is not None and (observe_rounds is None or t in observe_rounds)
            batches = [client_batches[c] for c in members]
            threads = cfg.workers > 1 and len(members) > 1
            with ThreadPoolExecutor(max_workers=cfg.workers) if threads else nullcontext() as pool:
                clients = pool.map if threads else map
                runs, average = params.descend_round(
                    batches, cfg.eta, cfg.local_steps, keep=observed, map=clients
                )
            step0 = {c: ls[0] for c, (_, ls) in zip(members, runs)}
            value = float(
                sum(
                    step0[c] if c in step0 else loss_of(params, batch)
                    for c, batch in enumerate(client_batches)
                )
            )
        if not np.isfinite(value):
            if row is None:
                raise DivergenceError(f"non-finite initial loss {value}", loss=value)
            raise DivergenceError(
                f"non-finite global loss {value} after round {t - 1}",
                round_index=t - 1,
                loss=value,
            )
        if row is not None:
            ratio = value / losses[-1] if losses[-1] > 0.0 else 1.0
            traces.append(RoundTrace(loss=losses[-1], ratio=ratio, **row))
        losses.append(value)
        if t == cfg.rounds or (stop is not None and value <= stop * losses[0]):
            break

        error = _local_divergence(runs)
        if error is not None:
            c = members[error.client]
            raise DivergenceError(
                f"round {t}, client {c}: {error}",
                round_index=t,
                client=c,
                step=error.step,
                loss=error.loss,
            ) from error
        local_losses = tuple(tuple(ls) for _, ls in runs)
        if observed:
            observer(
                RoundSnapshot(
                    t=t,
                    members=members,
                    global_params=params,
                    trajectories=tuple(iterates for iterates, _ in runs),
                    local_losses=local_losses,
                )
            )
        params = average()
        row = {"t": t, "members": members, "local_losses": local_losses}
    return RunResult(traces=tuple(traces), params=params, losses=tuple(losses))
