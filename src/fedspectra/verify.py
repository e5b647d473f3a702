"""The verify checks: the paper's inequalities as one table.

Each check states its inequality whole: what it measures, its bound from the
paper's formula and its reports, with `analysis` supplying only the
mathematics it measures with. Set-up checks take a RunContext. Per-round
checks also take a RoundSnapshot, or, when they read the round's local
iterates, an ObservedRound and their measure of each iterate (see
run_checks), and return one report per candidate (client, local step or
bound form), with the round, client and step in its context. run_checks
runs every check, and the clients of every round it descends again, on
one thread pool. `fedspectra verify` keeps the worst report per name and
round; the acceptance runs tally every report.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from . import analysis
from .federation import global_loss, raising, scheduler
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
        """Side of the Gram matrix that set-up builds: init_params.gram_dim(n)."""
        return self.init_params.gram_dim(sum(b.n for b in self.batches))

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
    against the least nonzero eigenvalue of gram_P0 that set-up took (see
    analysis.gram_P0_lambda_min), floor-first; select refuses the check
    where set-up left it out."""
    p, sv = ctx.init_params, ctx.singular_values
    floor = 0.8**4 * p.depth * float(sv[-1]) ** 2 / p.d_out
    context = {
        "floor": floor,
        "observed_lambda_min": ctx.lambda_min,
        "data_rank": sv.size,
        "width": p.width,
        "depth": p.depth,
    }
    return [make_report("gram-floor", measured=floor, bound=ctx.lambda_min, context=context)]


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


class ReplayError(RuntimeError):
    """Raised when an observed round, descended again from its start, is not
    the round that the run took."""


@dataclass(frozen=True, eq=False)
class ObservedRound:
    """One observed round as the checks that read its local iterates see
    it: the run's context and the round's snapshot, which holds no iterate.
    redescend descends the round again from the snapshot's start and hands
    each iterate to the checks' measures as it is formed. What the round's
    measures share is derived on first use, as RunContext's is."""

    ctx: RunContext
    snap: object

    @cached_property
    def batches(self) -> tuple:
        """The members' batches, in member order."""
        return tuple(self.ctx.batches[c] for c in self.snap.members)

    @cached_property
    def global_norms(self) -> tuple:
        """The Frobenius norm of each broadcast layer."""
        return tuple(float(np.linalg.norm(Wg)) for Wg in self.snap.global_params.layers)

    @cached_property
    def first_order_start(self):
        """The round-start terms of the first-order prediction, which both
        of its probes share (analysis.FirstOrderStart). Every client thread
        of both probes reads them, at once, so run_checks builds them before
        it starts the round's calls: from Python 3.12 cached_property takes
        no lock, and each thread would build its own."""
        ctx, snap = self.ctx, self.snap
        return analysis.FirstOrderStart(
            snap.global_params, ctx.init_params, ctx.batches, snap.members
        )


def local_deviation_residual(rnd, i, k, iterate):
    """local-deviation's measure of member i's iterate k: its flattened
    residual on its own batch."""
    batch = rnd.batches[i]
    return vec_residual(iterate.predict(batch.X), batch.Y)


def local_deviation(rnd, residuals):
    """Distance of the stacked local residual xi_k after local step k from
    the broadcast-time one xi_bar, against a coefficient times |xi_bar|: the
    coefficient is 57*k*eta*|X|^2/(10*d_out), and the ReLU model adds the
    crude 2*eta*n*K as local-deviation-crude. One report per step and bound.
    residuals[i][k] is member i's local_deviation_residual at iterate k
    (iterate 0 being the broadcast weights), and a stack concatenates them
    in member order."""
    ctx, snap = rnd.ctx, rnd.snap
    xi_bar_S = np.concatenate([member[0] for member in residuals])
    base = float(np.linalg.norm(xi_bar_S))
    reports = []
    for k in range(1, ctx.local_steps + 1):
        xi_k = np.concatenate([member[k] for member in residuals])
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


def local_drift_norms(rnd, i, k, iterate):
    """local-drift's measure of member i's iterate k: at k = 0, the
    broadcast weights, the member's residual norm, which scales its radius;
    after step k, each layer's spectral-norm distance from the broadcast
    weights.

    Each step changes a layer by a matrix of rank at most min(n_c, d_out),
    so the spectral norms at step k come from a sketch of rank
    k*min(n_c, d_out) (analysis._low_rank_spectral_norm), certified against
    the rounding of k updates (2*k*eps*|W_global|_F).
    """
    batch, global_params = rnd.batches[i], rnd.snap.global_params
    if k == 0:
        return float(np.linalg.norm(vec_residual(iterate.predict(batch.X), batch.Y)))
    rank = k * min(batch.n, global_params.d_out)
    # each update rounds every entry of the layer once
    rounding = k * np.finfo(float).eps
    return tuple(
        analysis._low_rank_spectral_norm(Wl - Wg, rank, rounding * norm)
        for Wl, Wg, norm in zip(iterate.layers, global_params.layers, rnd.global_norms)
    )


def local_drift(rnd, norms):
    """Spectral-norm distance of each local iterate (step k >= 1) from the
    broadcast weights, against 24*sqrt(d_out)*|X_c| / (L*sigma_min^2(X_c))
    times the client's residual norm at broadcast time (linear network
    only). One report per participant and local step; norms[i][k] is
    member i's local_drift_norms at iterate k. A client whose data are
    numerically zero (no samples, say) gets radius 0: every gradient is a
    product with X_c, so its deltas are 0 too.
    """
    ctx, snap = rnd.ctx, rnd.snap
    global_params, reports = snap.global_params, []
    for (resid, *per_step), c in zip(norms, snap.members, strict=True):
        sv = ctx.client_singular_values[c]
        norm_xc = smin = radius = 0.0
        if sv.size:
            norm_xc, smin = float(sv[0]), float(sv[-1])
            radius = 24.0 * np.sqrt(global_params.d_out) * norm_xc / (
                global_params.depth * smin**2
            ) * resid
        context = {"client_residual_norm": resid, "sigma_min_Xc": smin, "norm_Xc": norm_xc}
        for k, per_layer in enumerate(per_step, start=1):
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


def first_order_terms(rnd, i, k, iterate):
    """first-order's measure of member i's iterate k: its terms of the
    prediction (analysis.FirstOrderStart.iterate_terms) when a local step
    starts from it, k < K; None for the last iterate, which starts none."""
    if k < rnd.ctx.local_steps:
        return rnd.first_order_start.iterate_terms(i, iterate)
    return None


def half_rate_probe(rnd, descend):
    """first-order's eta/2 probe: one round at eta/2 of every participant
    from the round's start that keeps each iterate's first_order_terms,
    formed as it descends, instead of the iterate. descend runs the round,
    as federation.local_round does (run_checks passes its scheduler's). Its
    analysis.FirstOrderReport, or None at depth 1, which is linear in its
    weights, so that the prediction is exact up to rounding and there is no
    remainder to probe."""
    ctx, snap = rnd.ctx, rnd.snap
    if snap.global_params.depth == 1:
        return None
    keep = partial(first_order_terms, rnd)
    runs, average = descend(
        snap.global_params, rnd.batches, 0.5 * ctx.eta, ctx.local_steps, keep=keep
    )
    return _first_order_probe(rnd, 0.5 * ctx.eta, [kept for kept, _ in runs], average())


def _first_order_probe(rnd, eta, terms, averaged):
    """The prediction of a round at eta from its members' first_order_terms,
    scored against the average that the round formed."""
    ctx = rnd.ctx
    actual = vec_residual(averaged.predict(ctx.X), np.hstack([b.Y for b in ctx.batches]))
    steps = [member[:-1] for member in terms]  # the last iterate starts no step
    return analysis.predict_first_order(rnd.first_order_start, steps, eta, next_residual=actual)


def first_order(rnd, terms, half):
    """The first-order prediction of the round's residual (see
    analysis.predict_first_order): its relative error, and the halving form,
    the ratio of its absolute errors at eta and at eta/2 against 4, the
    signature of a second-order remainder.

    terms[i][k] is member i's first_order_terms at iterate k, and half the
    round's half_rate_probe. Each probe scores the server average that its
    own round formed: at eta the snapshot's, at eta/2 the probe's round's.
    Where the ratio is undefined the halving form passes vacuously with its
    reason: at depth 1, where half is None, and when the eta/2 probe's
    error is exactly 0.
    """
    ctx, snap = rnd.ctx, rnd.snap
    full = _first_order_probe(rnd, ctx.eta, terms, snap.averaged)
    ratio, why = None, "depth 1 is linear in its weights: no remainder to halve"
    if half is not None:
        if half.actual_error == 0.0:
            why = "the eta/2 probe's prediction error is 0: no remainder to halve"
        else:
            ratio = full.actual_error / half.actual_error
    names = (
        "reconstruction_gap", "term_contraction", "term_gram_shift", "term_local_deviation",
    )
    halving = {"t": snap.t, "scaling_ratio": ratio}
    context = halving | {n: getattr(full, n) for n in names}
    relative = make_report(
        "first-order:relative-error", measured=full.relative_error, bound=1e-2, context=context
    )
    if ratio is None:
        vacuous = {"t": snap.t, "reason": why}
        return [relative, make_report("first-order:halving-vacuous", 0, 0, context=vacuous)]
    halved = make_report("first-order:halving", abs(ratio - 4.0), 0.5, context=halving)
    return [relative, halved]


class Check(NamedTuple):
    """A row of CHECKS: the model kinds the check applies to, whether it
    runs per observed round, the model kinds whose bound needs the Gram
    matrix that set-up builds, and the check. A per-round check that reads
    the round's local iterates also names its measure(rnd, i, k, iterate) of
    member i's iterate k, and its check is then check(rnd, measured),
    measured[i][k] being that measure; first-order's also takes the round's
    half_rate_probe (see run_checks)."""

    kinds: tuple
    per_round: bool
    gram_kinds: tuple
    check: object
    measure: object = None


# Every check in report order.
CHECKS = {
    "init-spectra": Check((LINEAR,), False, (), init_spectra),
    "gram-floor": Check((LINEAR,), False, (LINEAR,), gram_floor),
    "ntk-trace": Check((RELU,), False, (), ntk_trace),
    "local-descent": Check((LINEAR, RELU), True, (RELU,), local_descent),
    "local-deviation": Check(
        (LINEAR, RELU), True, (), local_deviation, measure=local_deviation_residual
    ),
    "global-drift": Check((LINEAR, RELU), True, (RELU,), global_drift),
    "local-drift": Check((LINEAR,), True, (), local_drift, measure=local_drift_norms),
    "first-order": Check((LINEAR,), True, (), first_order, measure=first_order_terms),
}

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


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
    if not any(CHECKS[n].per_round for n in names):
        rounds = []
    elif rounds is None:
        rounds = sorted({0, T // 2, T - 1}) if T else []
    if not rounds and all(CHECKS[n].per_round for n in names):
        raise ValueError(
            f"verify.rounds: no round of {T} is observed, and every selected check "
            f"({', '.join(names)}) runs per round; nothing would be checked"
        )
    for name in names:
        row = CHECKS[name]
        if kind not in row.gram_kinds or (row.per_round and not rounds):
            continue
        if ctx.gram_dim > max_gram_dim:
            need = ctx.init_params.gram_phrase.format(ctx.gram_dim)
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
    then for each snapshot the worst report per name of each per-round
    check.

    No snapshot need hold an iterate: each snapshot's round is descended
    once more from its start (redescend), every selected measure recording
    each iterate as it is formed, so that no iterate outlives the step
    after it. Everything runs on one federation.scheduler. This thread
    submits each set-up check and each per-round check that reads no
    iterate as a unit; then, round by round, it drives the round's
    half_rate_probe and its re-descent, whose clients join the same queue
    a unit each (a serial round is one unit), and forms their sums and the
    replay test itself; either round raises DivergenceError as
    federation.local_round does. Once every unit is done, the checks that
    read iterates reduce their measures here, first-order with the round's
    probe. The units share ctx, and a round's units its
    ObservedRound, whose cached properties are each computed once under
    cached_property's lock (a Python without that lock may compute one
    twice, to the same value), save first_order_start, built here before
    the round's clients start.
    """
    table = {name: row for name, row in CHECKS.items() if name in names}
    measured = [(name, row.measure) for name, row in table.items() if row.measure]
    rounds = [ObservedRound(ctx, snap) for snap in snapshots]
    calls = {name: partial(row.check, ctx) for name, row in table.items() if not row.per_round}
    for j, rnd in enumerate(rounds):
        for name, row in table.items():
            if row.per_round and not row.measure:
                calls[j, name] = partial(_worst_of, row.check, ctx, rnd.snap)
    with scheduler() as (submit, descend):
        queued = {key: submit(call) for key, call in calls.items()}
        done, descend = {}, raising(descend)
        for j, rnd in enumerate(rounds):
            if "first-order" in table:
                rnd.first_order_start  # built once, before the clients that read it start
                done[j, "probe"] = half_rate_probe(rnd, descend)
            if measured:
                done[j] = redescend(rnd, measured, descend)
        done |= {key: result() for key, result in queued.items()}
    reports = [rep for name, row in table.items() if not row.per_round for rep in done[name]]
    for j, rnd in enumerate(rounds):
        for name, row in table.items():
            if row.per_round and not row.measure:
                reports += done[j, name]
            elif row.measure:
                probed = (done[j, "probe"],) if name == "first-order" else ()
                reports += worst_per_name(row.check(rnd, done[j][name], *probed))
    return reports


def _worst_of(check, ctx, snap) -> list:
    return worst_per_name(check(ctx, snap))


def redescend(rnd, measured, descend) -> dict:
    """Descend rnd's round once more from its start, each measure of
    `measured`, (name, measure) pairs, recording every iterate as it is
    formed, on its client's thread. descend runs the round, as
    federation.local_round does (run_checks passes its scheduler's).
    Returns name -> that measure of each member's iterates, [i][k] for
    member i's iterate k.

    Raises ReplayError, naming the round, unless the round's local losses
    and server average are the snapshot's bit for bit: the measures would
    describe some other round.
    """
    ctx, snap = rnd.ctx, rnd.snap
    measures = [measure for _, measure in measured]

    def record(i, k, iterate):
        return tuple(measure(rnd, i, k, iterate) for measure in measures)

    runs, average = descend(
        snap.global_params, rnd.batches, ctx.eta, ctx.local_steps, keep=record
    )
    pairs = zip(average()._weights(), snap.averaged._weights(), strict=True)
    same_losses = [list(ls) for _, ls in runs] == [list(ls) for ls in snap.local_losses]
    if not (same_losses and all(np.array_equal(a, b) for a, b in pairs)):
        raise ReplayError(
            f"round {snap.t}: descended again from its start, the round's local losses "
            "or server average differ from the snapshot's, so no check of it is made"
        )
    return {
        name: [[values[j] for values in kept] for kept, _ in runs]
        for j, (name, _) in enumerate(measured)
    }
