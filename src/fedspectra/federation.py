"""Synchronous federated averaging with deterministic partial participation."""

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
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
    entry per round), else a `rate` share of the clients, at least one,
    drawn uniformly without replacement. Either way they are visited and
    averaged in ascending client order. workers > 1 trains them in a thread
    pool; the run ends early once the global loss reaches
    stop_loss_fraction times the starting loss.
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
    participant's full local trajectory (step 0 is the broadcast copy)."""

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


def local_trajectory(params, batch: LabeledBatch, eta, steps):
    """Run full-batch gradient descent, keeping every iterate.

    Returns (trajectory, losses): both have steps+1 entries, index 0 being the
    starting point.
    """
    traj = [params]
    losses = [loss_of(params, batch)]
    for k in range(steps):
        params = params.step(batch, eta)
        value = loss_of(params, batch)
        if not np.isfinite(value):
            raise DivergenceError(
                f"non-finite local loss {value} at local step {k + 1}",
                step=k + 1,
                loss=value,
            )
        traj.append(params)
        losses.append(value)
    return traj, losses


def global_loss(params, client_batches) -> float:
    """Training loss over the union of all client data (the loss is a plain
    sum over samples, so summing per-client values is exact)."""
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

    - with cfg.workers > 1, results are collected by client position so the
      aggregate is order-stable.
    - observer(snapshot) fires for rounds in observe_rounds (every round when
      observe_rounds is None) before the server average is formed.
    """
    if len(client_batches) != cfg.n_clients:
        raise ValueError("need one batch per client")
    params = init_params
    losses = [global_loss(params, client_batches)]
    if not np.isfinite(losses[0]):
        raise DivergenceError(f"non-finite initial loss {losses[0]}", loss=losses[0])
    traces = []
    stop = cfg.stop_loss_fraction
    for t in range(cfg.rounds):
        if stop is not None and losses[-1] <= stop * losses[0]:
            break
        members = sample_participants(t, cfg)

        def fit(c):
            try:
                return local_trajectory(params, client_batches[c], cfg.eta, cfg.local_steps)
            except DivergenceError as e:
                raise DivergenceError(
                    f"round {t}, client {c}: {e}",
                    round_index=t,
                    client=c,
                    step=e.step,
                    loss=e.loss,
                ) from e

        if cfg.workers > 1 and len(members) > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(fit, members))
        else:
            results = [fit(c) for c in members]
        trajectories = tuple(traj for traj, _ in results)
        local_losses = tuple(tuple(ls) for _, ls in results)

        if observer is not None and (observe_rounds is None or t in observe_rounds):
            observer(
                RoundSnapshot(
                    t=t,
                    members=members,
                    global_params=params,
                    trajectories=trajectories,
                    local_losses=local_losses,
                )
            )

        params = type(params).average([traj[-1] for traj in trajectories])
        value = global_loss(params, client_batches)
        if not np.isfinite(value):
            raise DivergenceError(
                f"non-finite global loss {value} after round {t}",
                round_index=t,
                loss=value,
            )
        traces.append(
            RoundTrace(
                t=t,
                members=members,
                loss=losses[-1],
                ratio=value / losses[-1] if losses[-1] > 0.0 else 1.0,
                local_losses=local_losses,
            )
        )
        losses.append(value)
    return RunResult(traces=tuple(traces), params=params, losses=tuple(losses))
