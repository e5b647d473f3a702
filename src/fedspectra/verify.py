"""The verify checks: the paper's inequalities as one table.

Each check states its inequality whole: what it measures, its bound from the
paper's formula and its reports, with `analysis` supplying only the
mathematics it measures with. Set-up checks take a RunContext. Per-round
checks also take a RoundSnapshot and return one report per candidate
(client, local step or bound form), with the round, client and step in its
context. `fedspectra verify` keeps the worst report per name and round; the
acceptance runs tally every report.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import analysis
from .federation import global_loss, local_round, side_by_side
from .models import DeepLinearParams, TwoLayerParams, vec_residual

LINEAR = DeepLinearParams.kind
RELU = TwoLayerParams.kind

# Largest gap |trace(H-infinity) - n/2| that ntk-trace accepts for unit-norm
# inputs.
_NTK_TRACE_TOL = 1e-10
# Interior weight products are bounded by this constant times sqrt(depth), at
# sqrt(width) per factor.
_INTERIOR_CONSTANT = 10.0


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check: passed ⟺ measured <= bound.

    Lower-bound facts are reported in the same orientation by storing the
    theoretical floor as `measured` and the observed quantity as `bound`; the
    context dict keeps the raw named values either way.
    """

    name: str
    passed: bool
    measured: float
    bound: float
    slack: float
    context: dict = field(default_factory=dict)


def make_report(name, measured, bound, *, context=None) -> CheckReport:
    measured = float(measured)
    bound = float(bound)
    passed = bool(measured <= bound)
    return CheckReport(
        name=name,
        passed=passed,
        measured=measured,
        bound=bound,
        slack=_slack(measured, bound),
        context=dict(context or {}),
    )


def _slack(measured, bound) -> float:
    """measured / bound for a positive bound, else 0 on a pass and inf on a fail."""
    if bound > 0.0:
        return measured / bound
    return 0.0 if measured <= bound else float("inf")


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
    def singular_values(self) -> np.ndarray:
        """X's nonzero singular values, descending: the one SVD of the data
        that every check reads. Set-up refuses data that have none."""
        sv = analysis.nonzero_singular_values(self.X)
        if sv.size == 0:
            raise ValueError("data are numerically zero")
        return sv

    @cached_property
    def client_singular_values(self) -> tuple:
        """Each client's nonzero singular values of X_c, descending."""
        return tuple(analysis.nonzero_singular_values(b.X) for b in self.batches)

    @cached_property
    def norm_x(self) -> float:
        return float(self.singular_values[0])

    @cached_property
    def local_lambda(self) -> tuple:
        """Least eigenvalue of each client's data Gram X_c^T X_c: zero when
        the client has no samples or their columns are dependent."""
        return tuple(
            float(sv[-1] ** 2) if sv.size == b.n > 0 else 0.0
            for sv, b in zip(self.client_singular_values, self.batches)
        )

    @cached_property
    def drift_radius(self) -> float:
        """The global-drift radius: 25*sqrt(B)*d_out*N^2*|X| / (L*sigma_min^2(X))
        with B the starting loss (linear), or per neuron
        9*N^2*sqrt(n)*|y(0)-y| / (sqrt(m)*lambda) (ReLU)."""
        n_clients, p = len(self.batches), self.init_params
        if p.kind == LINEAR:
            smin = float(self.singular_values[-1])
            return 25.0 * np.sqrt(self.loss0) * self.d_out * n_clients**2 * self.norm_x / (
                p.depth * smin**2
            )
        return 9.0 * n_clients**2 * np.sqrt(self.X.shape[1]) * np.sqrt(2.0 * self.loss0) / (
            np.sqrt(p.width) * self.lambda_min
        )


def _sigma_window(stem, index, where, observed, unit, scales) -> list:
    """Reports {stem}-sigma-max:{index} and {stem}-sigma-min:{index}: a
    product's observed (largest, least) singular value within 1.2 and 0.8
    times unit times its scale in `scales` (largest, least), floor-first."""
    (top, bottom), (s_top, s_bottom) = observed, scales
    floor = 0.8 * unit * s_bottom
    return [
        make_report(
            f"{stem}-sigma-max:{index}",
            measured=top,
            bound=1.2 * unit * s_top,
            context=where | {"observed_sigma_max": float(top)},
        ),
        make_report(
            f"{stem}-sigma-min:{index}",
            measured=floor,
            bound=bottom,
            context=where | {"floor": floor, "observed_sigma_min": float(bottom)},
        ),
    ]


def init_spectra(ctx):
    """Initialization-scale windows on weight products and data features.

    For each suffix product (layer i through the top, i >= 2, 1-based) the
    extreme singular values must lie within [0.8, 1.2] of sqrt(width) per
    factor; for each prefix product applied to the data (layers 1..j, j < L)
    the same band holds relative to the extreme singular values of X; interior
    products are checked against _INTERIOR_CONSTANT * sqrt(depth) at the same
    per-factor scale. Lower bounds are reported floor-first, and rank-deficient
    data uses its nonzero spectrum. Depth 1 has nothing to check and returns a
    single vacuous-pass marker.
    """
    p, X = ctx.init_params, ctx.X
    L, m = p.depth, p.width
    if L == 1:
        why = {"reason": "depth 1 has no weight products to bound"}
        return [make_report("init-spectra:vacuous", measured=0.0, bound=0.0, context=why)]
    reports = []
    # suffix products: layers i..L (1-based), L - i + 1 factors
    for i in range(2, L + 1):
        W = analysis._product_range(p.layers, i - 1, L)
        sv = np.linalg.svd(W, compute_uv=False)
        unit = float(m) ** ((L - i + 1) / 2.0)
        where = {"layers": f"{i}..{L}", "scale_unit": unit}
        reports += _sigma_window("init-suffix", i, where, (sv[0], sv[-1]), unit, (1.0, 1.0))
    # prefix products applied to the data: layers 1..j, j < L
    sv_x = ctx.singular_values
    r, scales = sv_x.size, (float(sv_x[0]), float(sv_x[-1]))
    for j in range(1, L):
        WX = analysis._product_range(p.layers, 0, j) @ X
        sv = np.linalg.svd(WX, compute_uv=False)
        # W X has rank <= width, so a width below the data's rank leaves
        # its r-th singular value at 0
        smin = float(sv[r - 1]) if r <= sv.size else 0.0
        unit = float(m) ** (j / 2.0)
        where = {"layers": f"1..{j}", "scale_unit": unit, "data_rank": r}
        reports += _sigma_window("init-prefix-data", j, where, (sv[0], smin), unit, scales)
    # interior products: layers i..j with 2 <= i <= j <= L-1 (all square)
    for i in range(2, L):
        for j in range(i, L):
            W = analysis._product_range(p.layers, i - 1, j)
            unit = float(m) ** ((j - i + 1) / 2.0)
            reports.append(
                make_report(
                    f"init-interior-norm:{i}..{j}",
                    measured=analysis._spectral_norm(W),
                    bound=_INTERIOR_CONSTANT * np.sqrt(L) * unit,
                    context={"layers": f"{i}..{j}", "scale_unit": unit},
                )
            )
    return reports


def gram_floor(ctx):
    """The initialization-time floor 0.8^4 * depth * sigma_min(X)^2 / d_out
    against the least nonzero eigenvalue of gram_P0 (see
    analysis.gram_P0_lambda_min), floor-first."""
    p = ctx.init_params
    floor = 0.8**4 * p.depth * float(ctx.singular_values[-1]) ** 2 / p.d_out
    observed, r = analysis.gram_P0_lambda_min(p, ctx.X)
    context = {
        "floor": floor,
        "observed_lambda_min": observed,
        "data_rank": r,
        "width": p.width,
        "depth": p.depth,
    }
    return [make_report("gram-floor", measured=floor, bound=observed, context=context)]


def ntk_trace(ctx):
    """For unit-norm inputs the closed-form infinite-width Gram matrix has
    trace exactly n/2: the absolute gap against _NTK_TRACE_TOL. The
    self-angle is 0, so the trace is sum |x_i|^2/2, built without the matrix."""
    n = ctx.X.shape[1]
    gap = abs(0.5 * float(np.vdot(ctx.X, ctx.X)) - 0.5 * n)
    context = {"n": n, "expected_trace": 0.5 * n}
    return [make_report("ntk-trace", measured=gap, bound=_NTK_TRACE_TOL, context=context)]


def local_descent(ctx, snap):
    """Per-step geometric decrease of each participant's local loss: the
    worst step's ratio to the starting loss against the step factor's power.
    The factor is 1 - eta*depth*lam/(4*d_out) with lam the least eigenvalue
    of the client's data Gram X_c^T X_c (linear), or 1 - eta*lam/2 with lam
    the least H-infinity eigenvalue (ReLU). One report per participant."""
    reports = []
    for losses, c in zip(snap.local_losses, snap.members):
        if ctx.init_params.kind == LINEAR:
            lam = ctx.local_lambda[c]
            factor = 1.0 - ctx.eta * ctx.init_params.depth * lam / (4.0 * ctx.d_out)
        else:
            lam = ctx.lambda_min
            factor = 1.0 - ctx.eta * lam / 2.0
        losses = [float(v) for v in losses]
        base = losses[0]
        worst_step, worst_slack, measured, bound = 0, None, 1.0, 1.0
        if base > 0.0:
            for k in range(1, len(losses)):
                b = factor**k
                ratio = losses[k] / base
                slack = _slack(ratio, b)
                if worst_slack is None or slack > worst_slack:
                    worst_step, worst_slack, measured, bound = k, slack, ratio, b
        context = {
            "factor": factor,
            "worst_step": worst_step,
            "steps": len(losses) - 1,
            "lambda": float(lam),
            "loss0": base,
            "t": snap.t,
            "client": c,
        }
        reports.append(make_report("local-descent", measured, bound, context=context))
    return reports


def local_deviation(ctx, snap):
    """Distance of the stacked local residual xi_k after local step k from
    the broadcast-time one xi_bar, against a coefficient times |xi_bar|: the
    coefficient is 57*k*eta*|X|^2/(10*d_out), and the ReLU model adds the
    crude 2*eta*n*K as local-deviation-crude. One report per step and bound.
    A stack concatenates each participant's flattened residual on its own
    batch, in member order."""
    batches, members = ctx.batches, snap.members

    def stacked(params_per_member):
        return np.concatenate(
            [
                vec_residual(p.predict(batches[c].X), batches[c].Y)
                for p, c in zip(params_per_member, members, strict=True)
            ]
        )

    xi_bar_S = stacked([snap.global_params] * len(members))
    base = float(np.linalg.norm(xi_bar_S))
    reports = []
    for k in range(1, ctx.local_steps + 1):
        xi_k = stacked([traj[k] for traj in snap.trajectories])
        measured = float(np.linalg.norm(xi_k - xi_bar_S))
        coefficients = {"local-deviation": 57.0 * k * ctx.eta * ctx.norm_x**2 / (10.0 * ctx.d_out)}
        if ctx.init_params.kind == RELU:
            coefficients["local-deviation-crude"] = 2.0 * ctx.eta * ctx.X.shape[1] * ctx.local_steps
        for name, coefficient in coefficients.items():
            context = {
                "k": k, "eta": ctx.eta, "coefficient": coefficient, "base_norm": base, "t": snap.t,
            }
            reports.append(make_report(name, measured, coefficient * base, context=context))
    return reports


def global_drift(ctx, snap):
    """Largest parameter movement since initialization (params.drift: per
    layer for the linear network, per neuron for the ReLU network) against
    RunContext.drift_radius."""
    measured, detail = snap.global_params.drift(ctx.init_params)
    radius = ctx.drift_radius
    context = {"t": snap.t, "loss0": ctx.loss0, "radius": radius} | detail
    return [make_report("global-drift", measured=measured, bound=radius, context=context)]


def local_drift(ctx, snap):
    """Spectral-norm distance of each local iterate (step k >= 1) from the
    broadcast weights, against 24*sqrt(d_out)*|X_c| / (L*sigma_min^2(X_c))
    times the client's residual norm at broadcast time (linear network
    only). One report per participant and local step.

    Each step changes a layer by a matrix of rank at most min(n_c, d_out),
    so the spectral norms at step k come from a sketch of rank
    k*min(n_c, d_out) (analysis._low_rank_spectral_norm), certified against
    the rounding of k updates (2*k*eps*|W_global|_F). A client whose data
    are numerically zero (no samples, say) gets radius 0: every gradient is
    a product with X_c, so its deltas are 0 too.
    """
    # every trajectory starts at the broadcast weights
    global_params, reports = snap.global_params, []
    norms_g = [float(np.linalg.norm(Wg)) for Wg in global_params.layers]
    for traj, c in zip(snap.trajectories, snap.members):
        batch, sv = ctx.batches[c], ctx.client_singular_values[c]
        resid = float(np.linalg.norm(vec_residual(global_params.predict(batch.X), batch.Y)))
        norm_xc = smin = radius = 0.0
        if sv.size:
            norm_xc, smin = float(sv[0]), float(sv[-1])
            radius = 24.0 * np.sqrt(global_params.d_out) * norm_xc / (
                global_params.depth * smin**2
            ) * resid
        context = {"client_residual_norm": resid, "sigma_min_Xc": smin, "norm_Xc": norm_xc}
        for k, local_params in enumerate(traj[1:], start=1):
            rank = k * min(batch.n, global_params.d_out)
            # each update rounds every entry of the layer once
            rounding = k * np.finfo(float).eps
            per_layer = tuple(
                analysis._low_rank_spectral_norm(Wl - Wg, rank, rounding * norm)
                for Wl, Wg, norm in zip(local_params.layers, global_params.layers, norms_g)
            )
            where = {"t": snap.t, "client": c, "k": k}
            reports.append(
                make_report(
                    "local-drift",
                    measured=max(per_layer),
                    bound=radius,
                    context={"per_layer_spectral": per_layer} | context | where,
                )
            )
    return reports


def first_order(ctx, snap):
    """The first-order prediction of the round's residual (see
    analysis.predict_first_order): its relative error, and the halving form,
    the ratio of its absolute errors at eta and at eta/2 against 4, the
    signature of a second-order remainder.

    Each probe scores the server average that its own round formed: at eta
    the snapshot's round and average, at eta/2 one local_round of every
    participant from the same state, on a client pool as a run's rounds
    are. Both probes share the round-start terms (analysis.FirstOrderStart);
    the eta/2 round keeps each iterate's terms, formed as it descends, instead
    of the iterate. Where the ratio is undefined the halving form passes
    vacuously with its reason: at depth 1, which is linear in its weights so
    that the prediction is exact up to rounding and the eta/2 probe is
    skipped, and when the eta/2 probe's error is exactly 0.
    """
    params, batches = snap.global_params, ctx.batches
    start = analysis.FirstOrderStart(params, ctx.init_params, batches, snap.members)
    Y = np.hstack([b.Y for b in batches])

    def probe(eta, terms, averaged):
        actual = vec_residual(averaged.predict(ctx.X), Y)
        return analysis.predict_first_order(start, terms, eta, next_residual=actual)

    # a step's terms are those of the iterate it starts from: the last enters none
    terms = [
        [start.iterate_terms(i, p) for p in traj[:-1]] for i, traj in enumerate(snap.trajectories)
    ]
    full = probe(ctx.eta, terms, snap.averaged)
    ratio, why = None, "depth 1 is linear in its weights: no remainder to halve"
    if params.depth > 1:
        own = [batches[c] for c in start.members]
        runs, average = local_round(
            params, own, 0.5 * ctx.eta, ctx.local_steps, keep=start.iterate_terms
        )
        half = probe(0.5 * ctx.eta, [kept[:-1] for kept, _ in runs], average())
        if half.actual_error == 0.0:
            why = "the eta/2 probe's prediction error is 0: no remainder to halve"
        else:
            ratio = full.actual_error / half.actual_error
    terms = (
        "reconstruction_gap", "term_contraction", "term_gram_shift", "term_local_deviation",
    )
    halving = {"t": snap.t, "scaling_ratio": ratio}
    context = halving | {n: getattr(full, n) for n in terms}
    relative = make_report(
        "first-order:relative-error", measured=full.relative_error, bound=1e-2, context=context
    )
    if ratio is None:
        vacuous = {"t": snap.t, "reason": why}
        return [relative, make_report("first-order:halving-vacuous", 0, 0, context=vacuous)]
    halved = make_report("first-order:halving", abs(ratio - 4.0), 0.5, context=halving)
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
    then for each snapshot the worst report per name of each per-round check.

    Each set-up check, and each per-round check of each snapshot, is one
    independent call, and federation.side_by_side runs them, on the usable
    cores where BLAS already runs one thread. They share ctx, whose cached
    properties are each computed once, under cached_property's lock (a
    Python without that lock may compute one twice, to the same value).
    """
    rows = [(per_round, fn) for name, (_, per_round, _, fn) in CHECKS.items() if name in names]
    calls = [partial(fn, ctx) for per_round, fn in rows if not per_round]
    calls += [
        partial(_worst_of, fn, ctx, snap)
        for snap in snapshots
        for per_round, fn in rows
        if per_round
    ]
    return [rep for reports in side_by_side(calls) for rep in reports]


def _worst_of(check, ctx, snap) -> list:
    return worst_per_name(check(ctx, snap))
