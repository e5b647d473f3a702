"""The verify checks: the paper's inequalities as one table.

Set-up checks take a RunContext. Per-round checks also take a RoundSnapshot
and return one report per candidate (client, local step or bound form), with
the round, client and step in its context. `fedspectra verify` keeps the
worst report per name and round; the acceptance runs tally every report.
"""

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import analysis
from .federation import global_loss
from .models import DeepLinearParams, TwoLayerParams

LINEAR = DeepLinearParams.kind
RELU = TwoLayerParams.kind


@dataclass(frozen=True, eq=False)
class RunContext:
    """One run from set-up to verdict: client batches in client order, initial
    parameters, the least Gram eigenvalue behind the contraction rate (None
    when analysis.max_gram_dim left it out), step size and local step count;
    H-infinity's largest eigenvalue (two-layer model only), and the columns
    preprocessing nudged and the samples the partition dropped. Everything
    else is derived from these on first use."""

    batches: tuple
    init_params: object
    lambda_min: float | None
    eta: float
    local_steps: int
    lambda_max: float | None = None
    perturbed_columns: int = 0
    dropped_samples: int = 0

    @cached_property
    def X(self) -> np.ndarray:
        return np.hstack([b.X for b in self.batches])

    @property
    def d_out(self) -> int:
        Y = self.batches[0].Y
        return Y.shape[0] if Y.ndim == 2 else 1

    @property
    def gram_dim(self) -> int:
        """Side of the Gram matrix that set-up builds, from the batch shapes:
        P0 on the data's row space, min(d_in, n)*d_out (linear), or
        H-infinity, n (ReLU)."""
        n = sum(b.n for b in self.batches)
        p = self.init_params
        return min(p.d_in, n) * p.d_out if p.kind == LINEAR else n

    @cached_property
    def loss0(self) -> float:
        return global_loss(self.init_params, self.batches)

    @cached_property
    def norm_x(self) -> float:
        return float(np.linalg.norm(self.X, ord=2))

    @cached_property
    def local_lambda(self) -> tuple:
        """Least eigenvalue of each client's data Gram X_c^T X_c."""
        return tuple(_literal_lambda_min_gram(b.X) for b in self.batches)

    @cached_property
    def drift_radius(self) -> float:
        n_clients, p = len(self.batches), self.init_params
        if p.kind == LINEAR:
            smin = analysis.sigma_min_nonzero(self.X)
            return analysis.drift_radius_deep_linear(
                self.loss0, self.d_out, n_clients, self.norm_x, p.depth, smin
            )
        return analysis.drift_radius_two_layer(
            n_clients, self.X.shape[1], np.sqrt(2.0 * self.loss0), p.width, self.lambda_min
        )


def _literal_lambda_min_gram(Xc) -> float:
    """Least eigenvalue of Xc^T Xc: zero when the columns are dependent."""
    if Xc.shape[1] == 0:
        return 0.0
    sv = analysis.nonzero_singular_values(Xc)
    return float(sv[-1] ** 2) if sv.size == Xc.shape[1] else 0.0


def _at(report, **where):
    return dataclasses.replace(report, context=report.context | where)


def init_spectra(ctx):
    return analysis.check_init_spectra(ctx.init_params, ctx.X)


def gram_floor(ctx):
    return [analysis.check_gram_floor(ctx.init_params, ctx.X)]


def ntk_trace(ctx):
    return [analysis.check_ntk_trace(ctx.X)]


def local_descent(ctx, snap):
    """One report per participant. The step factor is
    1 - eta*depth*lam/(4*d_out) with lam the least eigenvalue of the client's
    data Gram X_c^T X_c (linear), or 1 - eta*lam/2 with lam the least
    H-infinity eigenvalue (ReLU)."""
    reports = []
    for losses, c in zip(snap.local_losses, snap.members):
        if ctx.init_params.kind == LINEAR:
            lam = ctx.local_lambda[c]
            factor = 1.0 - ctx.eta * ctx.init_params.depth * lam / (4.0 * ctx.d_out)
        else:
            lam = ctx.lambda_min
            factor = 1.0 - ctx.eta * lam / 2.0
        reports.append(_at(analysis.check_local_descent(losses, factor, lam), t=snap.t, client=c))
    return reports


def local_deviation(ctx, snap):
    """One report per local step k and bound: the coefficient of |xi_bar| is
    57*k*eta*|X|^2/(10*d_out); the ReLU model adds the crude 2*eta*n*K as
    local-deviation-crude."""
    batches, members = ctx.batches, snap.members
    xi_bar_S = analysis.stacked_residual([snap.global_params] * len(members), batches, members)
    reports = []
    for k in range(1, ctx.local_steps + 1):
        xi_k = analysis.stacked_residual([traj[k] for traj in snap.trajectories], batches, members)
        coefficients = {"local-deviation": 57.0 * k * ctx.eta * ctx.norm_x**2 / (10.0 * ctx.d_out)}
        if ctx.init_params.kind == RELU:
            coefficients["local-deviation-crude"] = 2.0 * ctx.eta * ctx.X.shape[1] * ctx.local_steps
        for name, coefficient in coefficients.items():
            rep = analysis.check_local_deviation(xi_k, xi_bar_S, coefficient, k, ctx.eta)
            reports.append(_at(dataclasses.replace(rep, name=name), t=snap.t))
    return reports


def global_drift(ctx, snap):
    radius = ctx.drift_radius
    context = {"t": snap.t, "loss0": ctx.loss0, "radius": radius}
    return [analysis.check_drift(snap.global_params, ctx.init_params, radius, context=context)]


def local_drift(ctx, snap):
    """One report per participant and local step."""
    return [
        _at(rep, t=snap.t, client=c, k=k)
        for traj, c in zip(snap.trajectories, snap.members)
        for k, rep in enumerate(analysis.check_local_drift(traj, ctx.batches[c]), start=1)
    ]


def first_order(ctx, snap):
    """The first-order prediction's relative error, and the halving form: at
    depth 1, where the prediction is exact, a vacuous pass with its reason."""
    full, _, ratio = analysis.first_order_scaling(
        snap.global_params, ctx.init_params, list(ctx.batches), list(snap.members),
        ctx.eta, ctx.local_steps, trajectories=snap.trajectories, averaged=snap.averaged,
    )
    terms = (
        "reconstruction_gap", "term_contraction", "term_gram_shift", "term_local_deviation",
    )
    halving = {"t": snap.t, "scaling_ratio": ratio}
    context = halving | {n: getattr(full, n) for n in terms}
    relative = analysis.make_report(
        "first-order:relative-error", measured=full.relative_error, bound=1e-2, context=context
    )
    if ratio is None:
        why = {"t": snap.t, "reason": "depth 1 is linear in its weights: no remainder to halve"}
        return [relative, analysis.make_report("first-order:halving-vacuous", 0, 0, context=why)]
    halved = analysis.make_report("first-order:halving", abs(ratio - 4.0), 0.5, context=halving)
    return [relative, halved]


# Every check in report order: name -> (model kinds, runs per round, model
# kinds whose bound needs the Gram matrix that set-up builds, function).
CHECKS = {
    "init-spectra": ((LINEAR,), False, (), init_spectra),
    "gram-floor": ((LINEAR,), False, (LINEAR,), gram_floor),
    "ntk-trace": ((RELU,), False, (), ntk_trace),
    "local-descent": ((LINEAR, RELU), True, (RELU,), local_descent),
    "local-deviation": ((LINEAR, RELU), True, (), local_deviation),
    "global-drift": ((LINEAR, RELU), True, (RELU,), global_drift),
    "local-drift": ((LINEAR,), True, (), local_drift),
    "first-order": ((LINEAR,), True, (), first_order),
}

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
_GRAM_NAMES = {LINEAR: "a {}-dim Gram matrix", RELU: "the {}-dim H-infinity Gram matrix"}


def known_checks(kind) -> tuple:
    return tuple(name for name, (kinds, *_) in CHECKS.items() if kind in kinds)


def select(ctx, wanted, rounds, T, max_gram_dim) -> tuple:
    """The checks to run (`wanted`, or all of the model kind's when None) in
    table order, and the rounds to observe of a run of T rounds: `rounds`,
    or {0, T//2, T-1} when None, or none when no selected check runs per
    round.

    Raises ValueError, naming the config key, when every selected check
    runs per round and no round is observed, so nothing would be checked;
    and at the first selected check whose set-up Gram matrix is over
    max_gram_dim, or whose bound divides by a least H-infinity eigenvalue
    below sqrt(eps)*lambda_max (arccos keeps only about half the digits near
    cos = 1). A per-round check counts only when a round is observed.
    """
    kind = ctx.init_params.kind
    names = [n for n in known_checks(kind) if wanted is None or n in wanted]
    if not any(CHECKS[n][1] for n in names):
        rounds = []
    elif rounds is None:
        rounds = sorted({0, T // 2, T - 1}) if T else []
    if not rounds and all(CHECKS[n][1] for n in names):
        raise ValueError(
            f"verify.rounds: no round of {T} is observed, and every selected check "
            f"({', '.join(names)}) runs per round; nothing would be checked"
        )
    for name in names:
        _, per_round, gram_kinds, _ = CHECKS[name]
        if kind not in gram_kinds or (per_round and not rounds):
            continue
        if ctx.gram_dim > max_gram_dim:
            need = _GRAM_NAMES[kind].format(ctx.gram_dim)
            raise ValueError(
                f"analysis.max_gram_dim: {name} needs {need}; raise the limit or shrink the data"
            )
        if ctx.lambda_max is not None and ctx.lambda_min < _SQRT_EPS * ctx.lambda_max:
            raise ValueError(
                f"data.preprocess: {name} needs lambda_min(H-infinity) >= sqrt(eps)*lambda_max; "
                "parallel or repeated inputs leave it near 0, and data.preprocess separates them"
            )
    return names, rounds


def worst_per_name(reports) -> list:
    """The first report with the largest slack for each name, in the order
    the names first appear."""
    worst = {}
    for rep in reports:
        if rep.name not in worst or rep.slack > worst[rep.name].slack:
            worst[rep.name] = rep
    return list(worst.values())


def run_checks(ctx, names, snapshots) -> list:
    """Reports of the named checks in table order: the set-up checks once,
    then for each snapshot the worst report per name of each per-round check."""
    rows = [(per_round, fn) for name, (_, per_round, _, fn) in CHECKS.items() if name in names]
    reports = [rep for per_round, fn in rows if not per_round for rep in fn(ctx)]
    for snap in snapshots:
        for per_round, fn in rows:
            if per_round:
                reports.extend(worst_per_name(fn(ctx, snap)))
    return reports
