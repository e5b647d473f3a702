"""Synchronous federated averaging with deterministic partial participation."""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


@dataclass(frozen=True)
class FederationConfig:
    """Round/step counts, learning rate, and the participation policy.

    participation is either a rate in (0, 1] (clients drawn uniformly without
    replacement each round) or an explicit per-round schedule of client index
    tuples with one entry per round. Either way a round's participants are
    visited and averaged in ascending client order.
    """

    n_clients: int
    local_steps: int
    rounds: int
    eta: float
    participation: object = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if not (self.eta > 0.0):
            raise ValueError("eta must be positive")
        p = self.participation
        if isinstance(p, (int, float)):
            if not (0.0 < float(p) <= 1.0):
                raise ValueError("participation rate must lie in (0, 1]")
        else:
            if len(p) != self.rounds:
                raise ValueError("participation schedule must have one entry per round")
            for t, members in enumerate(p):
                ms = [int(c) for c in members]
                if not ms:
                    raise ValueError(f"round {t}: empty participant set")
                if len(set(ms)) != len(ms):
                    raise ValueError(f"round {t}: duplicate participant")
                if min(ms) < 0 or max(ms) >= self.n_clients:
                    raise ValueError(f"round {t}: client index out of range")


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
    p = cfg.participation
    if not isinstance(p, (int, float)):
        return tuple(sorted(int(c) for c in p[t]))
    count = max(1, int(round(float(p) * cfg.n_clients)))
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
    workers=1,
    observer=None,
    observe_rounds=None,
    stop_fraction=None,
) -> RunResult:
    """Drive the broadcast / local-descent / average loop for cfg.rounds rounds.

    - workers > 1 runs participants' local training in a thread pool; results
      are collected by client position so the aggregate is order-stable.
    - observer(snapshot) fires for rounds in observe_rounds (every round when
      observe_rounds is None) before the server average is formed.
    - stop_fraction ends the run early once the global loss reaches
      stop_fraction times the starting loss.
    """
    if len(client_batches) != cfg.n_clients:
        raise ValueError("need one batch per client")
    params = init_params
    losses = [global_loss(params, client_batches)]
    if not np.isfinite(losses[0]):
        raise DivergenceError(f"non-finite initial loss {losses[0]}", loss=losses[0])
    traces = []
    for t in range(cfg.rounds):
        if stop_fraction is not None and losses[-1] <= stop_fraction * losses[0]:
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

        if workers > 1 and len(members) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
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
