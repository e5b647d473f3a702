"""Gram matrices, spectra, contraction-rate bounds, and executable checks.

Conventions used throughout:
- flattened residuals follow the column-first order of vec_residual, so for a
  multi-output model coordinate s*d_out + a is (sample s, output a) and the
  Kronecker factors are ordered (sample matrix, output matrix);
- "effective" smallest singular values / eigenvalues are taken over the
  numerically nonzero part of the spectrum, since feature matrices with more
  samples than input dimensions are rank-deficient by construction.
"""

from dataclasses import dataclass, field

import numpy as np

from .models import (
    DeepLinearParams,
    LabeledBatch,
    input_chain,
    output_chain,
    vec_residual,
)
from .rng import stream

_SYMMETRY_TOL = 1e-10

# Extra sketch columns beyond the rank bound (Halko, Martinsson & Tropp 2011,
# section 4.2).
_SKETCH_OVERSAMPLE = 10
# Rows per block when the sketch residual is summed.
_RESIDUAL_BLOCK = 128


@dataclass(frozen=True)
class GramSpectrum:
    """Eigenvalues of a symmetric matrix, in ascending order."""

    shape: tuple
    lambda_min: float
    lambda_max: float
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check: passed ⟺ measured <= bound*(1+tol).

    Lower-bound facts are reported in the same orientation by storing the
    theoretical floor as `measured` and the observed quantity as `bound`; the
    context dict keeps the raw named values either way.
    """

    name: str
    passed: bool
    measured: float
    bound: float
    slack: float
    tol: float
    context: dict = field(default_factory=dict)


def make_report(name, measured, bound, *, tol=0.0, context=None) -> CheckReport:
    measured = float(measured)
    bound = float(bound)
    passed = bool(measured <= bound * (1.0 + tol))
    if bound != 0.0:
        slack = measured / bound
    else:
        slack = 0.0 if measured <= 0.0 else float("inf")
    return CheckReport(
        name=name,
        passed=passed,
        measured=measured,
        bound=bound,
        slack=float(slack),
        tol=float(tol),
        context=dict(context or {}),
    )


@dataclass(frozen=True)
class BoundSeries:
    """Per-round contraction factors and the cumulative loss bound they imply.

    values[t] = loss0 * prod(rho[:t]), computed left to right, so values has
    one more entry than rho and values[0] == loss0.
    """

    loss0: float
    eta: float
    local_steps: int
    n_clients: int
    lambda_min: float
    sizes: tuple
    rho: tuple
    values: tuple


def spectrum(M) -> GramSpectrum:
    """Eigenvalues of a square matrix that is symmetric up to 1e-10 absolute
    asymmetry (symmetrized before eigh); any other input raises ValueError."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"need a nonempty 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got shape {M.shape}")
    asym = float(np.max(np.abs(M - M.T)))
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"matrix is materially asymmetric (max |M - M^T| = {asym:g})")
    eig = np.linalg.eigvalsh(0.5 * (M + M.T))
    return GramSpectrum(
        shape=M.shape, lambda_min=float(eig[0]), lambda_max=float(eig[-1]), eigenvalues=eig
    )


def nonzero_singular_values(M) -> np.ndarray:
    """Singular values above the usual max(shape)*eps*sigma_max cut, in
    descending order."""
    M = np.asarray(M, dtype=float)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return sv[:0]
    return sv[sv > max(M.shape) * np.finfo(float).eps * sv[0]]


def effective_rank(M) -> int:
    """Number of numerically nonzero singular values."""
    return int(nonzero_singular_values(M).size)


def sigma_min_nonzero(M) -> float:
    """Smallest numerically nonzero singular value."""
    sv = nonzero_singular_values(M)
    if sv.size == 0:
        raise ValueError("matrix is numerically zero")
    return float(sv[-1])


def rank_restricted_lambda_min(M, rank) -> float:
    """rank-th largest eigenvalue of a symmetric matrix: the least eigenvalue
    once the structural null space (everything past `rank`) is set aside."""
    spec = spectrum(M)
    n = spec.shape[0]
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    return float(spec.eigenvalues[n - rank])


def gram_P0(p: DeepLinearParams, X) -> np.ndarray:
    """Symmetric Gram matrix of the linear network's per-layer feature maps.

    Sum over layers of kron(A_j^T A_j, B_j B_j^T), scaled by the squared
    output normalization, where A_j carries the data through the layers below
    layer j and B_j carries layer j's output to the network output.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != p.d_in:
        raise ValueError(f"X must have {p.d_in} rows, got shape {X.shape}")
    ins = input_chain(p, X)
    outs = output_chain(p)
    n = X.shape[1]
    P = np.zeros((n * p.d_out, n * p.d_out))
    for A, B in zip(ins, outs):
        P += np.kron(A.T @ A, B @ B.T)
    return (p.scale**2) * P


def gram_P_tkc(global_p: DeepLinearParams, local_p: DeepLinearParams, X, X_c) -> np.ndarray:
    """Asymmetric Gram block pairing global-parameter features on X (rows)
    with local-parameter features on X_c (columns). With local_p == global_p
    and X_c == X this reduces to gram_P0."""
    if (
        global_p.depth != local_p.depth
        or global_p.width != local_p.width
        or global_p.d_in != local_p.d_in
        or global_p.d_out != local_p.d_out
    ):
        raise ValueError("global and local parameters have different architectures")
    X = np.asarray(X, dtype=float)
    X_c = np.asarray(X_c, dtype=float)
    if X.shape[0] != global_p.d_in or X_c.shape[0] != global_p.d_in:
        raise ValueError("data rows must match the input dimension")
    ins_g = input_chain(global_p, X)
    outs_g = output_chain(global_p)
    ins_l = input_chain(local_p, X_c)
    outs_l = output_chain(local_p)
    d_out = global_p.d_out
    P = np.zeros((X.shape[1] * d_out, X_c.shape[1] * d_out))
    for Ag, Bg, Al, Bl in zip(ins_g, outs_g, ins_l, outs_l):
        P += np.kron(Ag.T @ Al, Bg @ Bl.T)
    return (global_p.scale * local_p.scale) * P


def assemble_P_S(blocks, participants, n_clients, widths=None) -> np.ndarray:
    """Zero-padded horizontal assembly of per-client Gram blocks.

    blocks is a list of (client, matrix); it must cover the participant set
    exactly. Clients outside the set contribute zero blocks. widths gives the
    column width of every client's block (participant or not); when omitted,
    all blocks must share one width and it is used for the idle clients too.
    """
    participants = sorted(int(c) for c in participants)
    if len(set(participants)) != len(participants):
        raise ValueError("duplicate participant")
    if participants and (participants[0] < 0 or participants[-1] >= n_clients):
        raise ValueError("participant index out of range")
    given = {int(c): np.asarray(B, dtype=float) for c, B in blocks}
    if set(given) != set(participants):
        raise ValueError("blocks must cover exactly the participant set")
    if not given:
        raise ValueError("no blocks to assemble")
    rows = {B.shape[0] for B in given.values()}
    if len(rows) != 1:
        raise ValueError("blocks disagree on row count")
    (n_rows,) = rows
    if widths is None:
        cols = {B.shape[1] for B in given.values()}
        if len(cols) != 1:
            raise ValueError("widths must be given when client blocks differ in width")
        widths = [cols.pop()] * n_clients
    if len(widths) != n_clients:
        raise ValueError("need one width per client")
    for c, B in given.items():
        if B.shape[1] != widths[c]:
            raise ValueError(f"client {c}: block width {B.shape[1]} != declared {widths[c]}")
    parts = [
        given[c] if c in given else np.zeros((n_rows, widths[c]))
        for c in range(n_clients)
    ]
    return np.hstack(parts)


def gram_H_infinity(X) -> np.ndarray:
    """Wide-width limit of the ReLU feature Gram matrix, in closed form.

    Entry (i, j) is x_i.x_j * (pi - angle(x_i, x_j)) / (2 pi): the expectation
    of x_i.x_j over Gaussian gate vectors activating both inputs.
    """
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        raise ValueError(f"zero column at index {int(np.argmin(norms))}")
    G = X.T @ X
    cos = np.clip(G / np.outer(norms, norms), -1.0, 1.0)
    theta = np.arccos(cos)
    # arccos is ill-conditioned at cos=1; the self-angle is exactly zero
    np.fill_diagonal(theta, 0.0)
    return G * (np.pi - theta) / (2.0 * np.pi)


def gram_H_tkc(global_W, local_W, X, X_c) -> np.ndarray:
    """Finite-width ReLU Gram block: entry (i, j) averages x_i.x_j over hidden
    units whose global weights activate x_i and local weights activate x_j."""
    global_W = np.asarray(global_W, dtype=float)
    local_W = np.asarray(local_W, dtype=float)
    X = np.asarray(X, dtype=float)
    X_c = np.asarray(X_c, dtype=float)
    if global_W.shape != local_W.shape:
        raise ValueError("weight matrices must have equal shapes")
    if X.shape[0] != global_W.shape[1] or X_c.shape[0] != global_W.shape[1]:
        raise ValueError("data rows must match the weight columns")
    m = global_W.shape[0]
    gate_rows = (global_W @ X >= 0.0).astype(float)
    gate_cols = (local_W @ X_c >= 0.0).astype(float)
    return (X.T @ X_c) * (gate_rows.T @ gate_cols) / m


def contraction_factor(eta, participants, lambda_min, local_steps, n_clients) -> float:
    """One-round contraction factor rho = 1 - eta*|S|*lambda_min*K/(2 N^2)."""
    return 1.0 - eta * participants * lambda_min * local_steps / (2.0 * n_clients**2)


def bound_series(loss0, eta, local_steps, n_clients, lambda_min, sizes) -> BoundSeries:
    """Loss upper-bound series from per-round contraction factors rho_t
    (see contraction_factor)."""
    if loss0 < 0.0:
        raise ValueError("loss0 must be nonnegative")
    if eta <= 0.0 or local_steps < 1 or n_clients < 1:
        raise ValueError("eta, local_steps, n_clients must be positive")
    if lambda_min < 0.0:
        raise ValueError("lambda_min must be nonnegative")
    sizes = tuple(int(s) for s in sizes)
    if any(s < 1 or s > n_clients for s in sizes):
        raise ValueError("participant counts must lie in [1, n_clients]")
    rho = []
    for s in sizes:
        r = contraction_factor(eta, s, lambda_min, local_steps, n_clients)
        if r <= 0.0:
            raise ValueError(
                f"contraction factor {r:g} is not in (0, 1]: eta too large for the bound"
            )
        rho.append(r)
    values = [float(loss0)]
    for r in rho:
        values.append(values[-1] * r)
    return BoundSeries(
        loss0=float(loss0),
        eta=float(eta),
        local_steps=int(local_steps),
        n_clients=int(n_clients),
        lambda_min=float(lambda_min),
        sizes=sizes,
        rho=tuple(rho),
        values=tuple(values),
    )


def lambda_min_floor(depth, sigma_min_x, d_out) -> float:
    """Initialization-time floor 0.8^4 * depth * sigma_min(X)^2 / d_out for the
    least structurally nonzero eigenvalue of gram_P0."""
    if depth < 1 or d_out < 1:
        raise ValueError("depth and d_out must be >= 1")
    if sigma_min_x < 0.0:
        raise ValueError("sigma_min_x must be nonnegative")
    return 0.8**4 * depth * sigma_min_x**2 / d_out


def check_gram_floor(p: DeepLinearParams, X, *, tol=0.0) -> CheckReport:
    """Floor vs the least structurally nonzero eigenvalue of gram_P0.

    The Gram matrix inherits rank(X)*d_out nonzero directions from the data,
    so the observed value is the eigenvalue at that rank position.
    """
    X = np.asarray(X, dtype=float)
    r = effective_rank(X)
    floor = lambda_min_floor(p.depth, sigma_min_nonzero(X), p.d_out)
    observed = rank_restricted_lambda_min(gram_P0(p, X), r * p.d_out)
    return make_report(
        "gram-floor",
        measured=floor,
        bound=observed,
        tol=tol,
        context={
            "floor": floor,
            "observed_lambda_min": observed,
            "data_rank": r,
            "width": p.width,
            "depth": p.depth,
        },
    )


def check_ntk_trace(X, *, tol_abs=1e-10) -> CheckReport:
    """For unit-norm inputs the closed-form infinite-width Gram matrix has
    trace exactly n/2; checks the absolute gap against tol_abs."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    gap = abs(float(np.trace(gram_H_infinity(X))) - 0.5 * n)
    return make_report(
        "ntk-trace",
        measured=gap,
        bound=tol_abs,
        tol=0.0,
        context={"n": n, "expected_trace": 0.5 * n},
    )


def _product_range(layers, start, stop):
    """Product layers[stop-1] @ ... @ layers[start] (0-based, half-open)."""
    P = None
    for idx in range(start, stop):
        P = layers[idx] if P is None else layers[idx] @ P
    return P


def check_init_spectra(p: DeepLinearParams, X, *, interior_constant=10.0, tol=0.0) -> list:
    """Initialization-scale checks on weight products and data features.

    For each suffix product (layer i through the top, i >= 2, 1-based) the
    extreme singular values must lie within [0.8, 1.2] of sqrt(width) per
    factor; for each prefix product applied to the data (layers 1..j, j < L)
    the same band holds relative to the extreme singular values of X; interior
    products are checked against interior_constant * sqrt(depth) at the same
    per-factor scale. Lower bounds are reported floor-first, and rank-deficient
    data uses its nonzero spectrum. Depth 1 has nothing to check and returns a
    single vacuous-pass marker.
    """
    X = np.asarray(X, dtype=float)
    L, m = p.depth, p.width
    if L == 1:
        return [
            make_report(
                "init-spectra:vacuous",
                measured=0.0,
                bound=0.0,
                tol=0.0,
                context={"reason": "depth 1 has no weight products to bound"},
            )
        ]
    reports = []
    # suffix products: layers i..L (1-based), L - i + 1 factors
    for i in range(2, L + 1):
        W = _product_range(p.layers, i - 1, L)
        sv = np.linalg.svd(W, compute_uv=False)
        unit = float(m) ** ((L - i + 1) / 2.0)
        ctx = {"layers": f"{i}..{L}", "scale_unit": unit}
        reports.append(
            make_report(
                f"init-suffix-sigma-max:{i}",
                measured=sv[0],
                bound=1.2 * unit,
                tol=tol,
                context=ctx | {"observed_sigma_max": float(sv[0])},
            )
        )
        reports.append(
            make_report(
                f"init-suffix-sigma-min:{i}",
                measured=0.8 * unit,
                bound=sv[-1],
                tol=tol,
                context=ctx | {"floor": 0.8 * unit, "observed_sigma_min": float(sv[-1])},
            )
        )
    # prefix products applied to the data: layers 1..j, j < L
    r = effective_rank(X)
    smax_x = float(np.linalg.svd(X, compute_uv=False)[0])
    smin_x = sigma_min_nonzero(X)
    for j in range(1, L):
        WX = _product_range(p.layers, 0, j) @ X
        sv = np.linalg.svd(WX, compute_uv=False)
        unit = float(m) ** (j / 2.0)
        ctx = {"layers": f"1..{j}", "scale_unit": unit, "data_rank": r}
        reports.append(
            make_report(
                f"init-prefix-data-sigma-max:{j}",
                measured=sv[0],
                bound=1.2 * unit * smax_x,
                tol=tol,
                context=ctx | {"observed_sigma_max": float(sv[0])},
            )
        )
        reports.append(
            make_report(
                f"init-prefix-data-sigma-min:{j}",
                measured=0.8 * unit * smin_x,
                bound=sv[r - 1],
                tol=tol,
                context=ctx
                | {"floor": 0.8 * unit * smin_x, "observed_sigma_min": float(sv[r - 1])},
            )
        )
    # interior products: layers i..j with 2 <= i <= j <= L-1 (all square)
    for i in range(2, L):
        for j in range(i, L):
            W = _product_range(p.layers, i - 1, j)
            unit = float(m) ** ((j - i + 1) / 2.0)
            reports.append(
                make_report(
                    f"init-interior-norm:{i}..{j}",
                    measured=np.linalg.norm(W, ord=2),
                    bound=interior_constant * np.sqrt(L) * unit,
                    tol=tol,
                    context={"layers": f"{i}..{j}", "scale_unit": unit},
                )
            )
    return reports


def check_local_descent(local_losses, eta, *, lam, depth=None, d_out=None, tol=0.0) -> CheckReport:
    """Per-step geometric decrease of the local training loss.

    With depth/d_out given (linear network) the step factor is
    1 - eta*depth*lam/(4*d_out) where lam is the least (effective) eigenvalue
    of the local data Gram X_c^T X_c; without them (ReLU network) the factor
    is 1 - eta*lam/2 with lam from the infinite-width Gram matrix. Reports the
    worst step's squared-residual ratio against the factor's power.
    """
    if (depth is None) != (d_out is None):
        raise ValueError("give both depth and d_out, or neither")
    if depth is not None:
        factor = 1.0 - eta * depth * lam / (4.0 * d_out)
    else:
        factor = 1.0 - eta * lam / 2.0
    losses = [float(v) for v in local_losses]
    if not losses:
        raise ValueError("need at least the starting loss")
    base = losses[0]
    worst_step, worst_slack, measured, bound = 0, None, 1.0, 1.0
    if base > 0.0:
        for k in range(1, len(losses)):
            b = factor**k
            ratio = losses[k] / base
            slack = ratio / b if b > 0.0 else float("inf")
            if worst_slack is None or slack > worst_slack:
                worst_step, worst_slack, measured, bound = k, slack, ratio, b
    return make_report(
        "local-descent",
        measured=measured,
        bound=bound,
        tol=tol,
        context={
            "factor": factor,
            "worst_step": worst_step,
            "steps": len(losses) - 1,
            "lambda": float(lam),
            "loss0": base,
        },
    )


def stacked_residual(params_per_member, batches, members) -> np.ndarray:
    """Flattened residuals of each member's parameters on that member's batch,
    concatenated in member order (the stacked xi of the local-deviation bound)."""
    return np.concatenate(
        [
            vec_residual(p.predict(batches[c].X), batches[c].Y)
            for p, c in zip(params_per_member, members, strict=True)
        ]
    )


def check_local_deviation(
    xi_k,
    xi_bar,
    eta,
    k,
    *,
    norm_x=None,
    d_out=None,
    n_total=None,
    local_steps=None,
    tol=0.0,
) -> CheckReport:
    """Distance of the step-k stacked local residual from the broadcast-time
    one, against the linear-in-k bound.

    Two bound forms: norm_x/d_out gives 57*k*eta*|X|^2/(10*d_out) * |xi_bar|;
    n_total/local_steps gives the cruder 2*eta*n*K * |xi_bar| used for the
    ReLU analysis. Exactly one form must be selected.
    """
    linear_form = norm_x is not None and d_out is not None
    relu_form = n_total is not None and local_steps is not None
    if linear_form == relu_form:
        raise ValueError("select exactly one bound form")
    xi_k = np.asarray(xi_k, dtype=float)
    xi_bar = np.asarray(xi_bar, dtype=float)
    if xi_k.shape != xi_bar.shape:
        raise ValueError("residual stacks must have equal shapes")
    base = float(np.linalg.norm(xi_bar))
    measured = float(np.linalg.norm(xi_k - xi_bar))
    if linear_form:
        coeff = 57.0 * k * eta * norm_x**2 / (10.0 * d_out)
    else:
        coeff = 2.0 * eta * n_total * local_steps
    return make_report(
        "local-deviation",
        measured=measured,
        bound=coeff * base,
        tol=tol,
        context={"k": int(k), "eta": float(eta), "coefficient": coeff, "base_norm": base},
    )


def drift_radius_deep_linear(loss0, d_out, n_clients, norm_x, depth, sigma_min_x) -> float:
    """Global parameter-drift radius 25*sqrt(B)*d_out*N^2*|X| / (L*sigma_min^2(X))
    with B instantiated as the starting loss."""
    if sigma_min_x <= 0.0:
        raise ValueError("sigma_min_x must be positive")
    return 25.0 * np.sqrt(loss0) * d_out * n_clients**2 * norm_x / (depth * sigma_min_x**2)


def drift_radius_two_layer(n_clients, n_samples, init_residual_norm, width, lam) -> float:
    """Per-neuron drift radius 9*N^2*sqrt(n)*|y(0)-y| / (sqrt(m)*lambda)."""
    if lam <= 0.0 or width <= 0:
        raise ValueError("lam and width must be positive")
    return 9.0 * n_clients**2 * np.sqrt(n_samples) * init_residual_norm / (
        np.sqrt(width) * lam
    )


def check_drift(params_now, params_init, radius, *, tol=0.0, context=None) -> CheckReport:
    """Largest parameter movement since initialization against a drift radius:
    per-layer Frobenius norm for the linear network, per-neuron row norm for
    the ReLU network. Pass radius from the matching drift_radius_* formula and
    put the formula's inputs in context so the report is self-describing."""
    measured, detail = params_now.drift(params_init)
    ctx = dict(context or {})
    ctx.update(detail)
    return make_report("global-drift", measured=measured, bound=radius, tol=tol, context=ctx)


def _low_rank_spectral_norm(D, rank, noise) -> float:
    """Largest singular value of D, which must have rank at most `rank` up to
    a Frobenius-norm error of `noise`.

    Q is an orthonormal basis of D times rank + 10 orthonormalised Gaussian
    columns from a fixed stream (Halko, Martinsson & Tropp 2011, sections
    4-5); when D = Q Q^T D, sigma_max(Q^T D) is sigma_max(D). The residual
    |D - Q Q^T D|_F is certified against twice the noise plus the sketch's own
    rounding, so a wrong rank bound raises ValueError instead of returning an
    underestimate. The orthonormalised columns keep a full-span sketch of a
    tall D exact to rounding, however ill-conditioned the Gaussian draw.
    """
    cols = min(rank + _SKETCH_OVERSAMPLE, min(D.shape))
    omega = np.linalg.qr(stream(0, "local-drift-sketch").standard_normal((D.shape[1], cols)))[0]
    Q = np.linalg.qr(D @ omega)[0]
    B = Q.T @ D
    # |D - Q B|_F a block of rows at a time: a dense D - Q B would double the
    # memory that D takes and raise the process's peak resident size
    squares = 0.0
    for i in range(0, D.shape[0], _RESIDUAL_BLOCK):
        rows = slice(i, i + _RESIDUAL_BLOCK)
        squares += float(np.linalg.norm(D[rows] - Q[rows] @ B)) ** 2
    residual = np.sqrt(squares)
    floor = 2.0 * (noise + np.finfo(float).eps * max(D.shape) * float(np.linalg.norm(D)))
    if residual > floor:
        raise ValueError(
            f"delta of shape {D.shape} is not within rounding of rank {rank}: "
            f"sketch residual {residual:g} > {floor:g}"
        )
    return float(np.linalg.svd(B, compute_uv=False)[0])


def check_local_drift(trajectory, batch: LabeledBatch, *, tol=0.0) -> list:
    """Spectral-norm distance of each local iterate trajectory[k] (k >= 1)
    from the broadcast weights trajectory[0], against 24*sqrt(d_out)*|X_c| /
    (L*sigma_min^2(X_c)) times the client residual norm at broadcast time
    (linear network only); one report per step k.

    trajectory is one client's local gradient steps on `batch`. Each step
    changes a layer by a matrix of rank at most min(n_c, d_out), so the
    spectral norms at step k come from a sketch of rank k*min(n_c, d_out),
    certified against the rounding of k updates (2*k*eps*|W_global|_F).
    """
    global_params = trajectory[0]
    if not isinstance(global_params, DeepLinearParams):
        raise TypeError("local drift bound applies to the linear network")
    norm_xc = float(np.linalg.norm(batch.X, ord=2))
    smin = sigma_min_nonzero(batch.X)
    resid = float(np.linalg.norm(vec_residual(global_params.predict(batch.X), batch.Y)))
    radius = 24.0 * np.sqrt(global_params.d_out) * norm_xc / (
        global_params.depth * smin**2
    ) * resid
    norms_g = [float(np.linalg.norm(Wg)) for Wg in global_params.layers]
    context = {"client_residual_norm": resid, "sigma_min_Xc": smin, "norm_Xc": norm_xc}
    reports = []
    for k, local_params in enumerate(trajectory[1:], start=1):
        rank = k * min(batch.n, global_params.d_out)
        # each update rounds every entry of the layer once
        rounding = k * np.finfo(float).eps
        per_layer = tuple(
            _low_rank_spectral_norm(Wl - Wg, rank, rounding * norm)
            for Wl, Wg, norm in zip(local_params.layers, global_params.layers, norms_g)
        )
        reports.append(
            make_report(
                "local-drift",
                measured=max(per_layer),
                bound=radius,
                tol=tol,
                context={"per_layer_spectral": per_layer} | context,
            )
        )
    return reports


@dataclass(frozen=True)
class FirstOrderReport:
    """One-round residual prediction and the norms of its decomposition.

    predicted is the next flattened residual under the frozen-feature
    recursion (second-order remainder dropped). term_contraction is the
    contracted current residual; term_gram_shift measures feature movement
    since initialization; term_local_deviation measures within-round client
    divergence (with its zero-padded twin, which must agree numerically);
    reconstruction_gap certifies the three terms recombine into predicted.
    actual_error and relative_error are filled when the true next residual is
    supplied.
    """

    predicted: np.ndarray
    base_norm: float
    term_contraction: float
    term_gram_shift: float
    term_local_deviation: float
    term_local_deviation_padded: float
    reconstruction_gap: float
    actual_error: float | None = None
    relative_error: float | None = None


def predict_first_order(
    global_params,
    init_params,
    trajectories,
    batches,
    members,
    eta,
    *,
    next_residual=None,
) -> FirstOrderReport:
    """Predict the post-round flattened residual from this round's local
    trajectories, and decompose the prediction against initialization-time
    Gram matrices.

    trajectories[i] is the list of member i's local parameter snapshots
    (step 0 = broadcast copy, K+1 entries), aligned with sorted(members);
    batches covers every client and fixes the global sample order (client 0's
    samples first). next_residual, when given, is the measured residual after
    the server average, used to fill the error fields.
    """
    if not isinstance(global_params, DeepLinearParams):
        raise TypeError("the residual recursion is defined for the linear network")
    members = sorted(int(c) for c in members)
    if len(trajectories) != len(members):
        raise ValueError("need one trajectory per participant")
    steps = {len(traj) for traj in trajectories}
    if len(steps) != 1:
        raise ValueError("trajectories must have equal length")
    (k_plus_1,) = steps
    if k_plus_1 < 2:
        raise ValueError("trajectories must contain at least one local step")
    local_steps = k_plus_1 - 1
    n_clients = len(batches)
    X = np.hstack([b.X for b in batches])
    Y = np.hstack([b.Y for b in batches])
    xi_bar = vec_residual(global_params.predict(X), Y)
    base_norm = float(np.linalg.norm(xi_bar))
    s = len(members)
    d_out = global_params.d_out
    widths = [b.n * d_out for b in batches]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    # participant-restricted residual of the broadcast model
    xi_bar_S = stacked_residual([global_params] * s, batches, members)
    # positions of the participants' residual entries in the global vector
    member_slots = np.concatenate([np.arange(offsets[c], offsets[c + 1]) for c in members])

    # initialization-time Gram blocks, both restricted and zero-padded
    P0_blocks = [(c, gram_P_tkc(init_params, init_params, X, batches[c].X)) for c in members]
    P0_S = np.hstack([B for _, B in P0_blocks])
    P0_hat = assemble_P_S(P0_blocks, members, n_clients, widths=widths)

    update = np.zeros_like(xi_bar)
    shift_sum = np.zeros_like(xi_bar)
    dev_sum = np.zeros_like(xi_bar)
    dev_pad_sum = np.zeros_like(xi_bar)
    for k in range(local_steps):
        params_k = [traj[k] for traj in trajectories]
        xi_k = stacked_residual(params_k, batches, members)
        P_tk = np.hstack(
            [gram_P_tkc(global_params, p, X, batches[c].X) for p, c in zip(params_k, members)]
        )
        update += P_tk @ xi_k
        shift_sum += (P_tk - P0_S) @ xi_k
        dev_k = xi_k - xi_bar_S
        dev_sum += P0_S @ dev_k
        padded = np.zeros(offsets[-1])
        padded[member_slots] = dev_k
        dev_pad_sum += P0_hat @ padded

    coeff = eta / s
    predicted = xi_bar - coeff * update
    term1 = xi_bar - (eta * local_steps / s) * (P0_hat @ xi_bar)
    term2 = coeff * shift_sum
    term3 = coeff * dev_sum
    term3_pad = coeff * dev_pad_sum
    gap = float(np.linalg.norm((term1 - term2 - term3) - predicted))

    actual_error = relative_error = None
    if next_residual is not None:
        next_residual = np.asarray(next_residual, dtype=float)
        if next_residual.shape != predicted.shape:
            raise ValueError("next_residual has the wrong shape")
        actual_error = float(np.linalg.norm(next_residual - predicted))
        relative_error = actual_error / base_norm if base_norm > 0.0 else float("inf")
    return FirstOrderReport(
        predicted=predicted,
        base_norm=base_norm,
        term_contraction=float(np.linalg.norm(term1)),
        term_gram_shift=float(np.linalg.norm(term2)),
        term_local_deviation=float(np.linalg.norm(term3)),
        term_local_deviation_padded=float(np.linalg.norm(term3_pad)),
        reconstruction_gap=gap,
        actual_error=actual_error,
        relative_error=relative_error,
    )


def first_order_scaling(
    params, init_params, batches, members, eta, local_steps, *, trajectories=None
):
    """Run one round at eta and at eta/2 from the same state and return the
    two FirstOrderReports plus the ratio of their absolute prediction errors.
    A ratio near 4 is the signature of a second-order remainder.

    trajectories, when given, are the members' local trajectories at eta
    (aligned with sorted(members), as in predict_first_order), e.g. from a
    RoundSnapshot; only the eta/2 probe then trains.
    """
    from .federation import local_trajectory

    X = np.hstack([b.X for b in batches])
    Y = np.hstack([b.Y for b in batches])

    def train(e):
        return [
            local_trajectory(params, batches[c], e, local_steps)[0]
            for c in sorted(int(c) for c in members)
        ]

    def probe(e, trajs):
        averaged = type(params).average([traj[-1] for traj in trajs])
        actual = vec_residual(averaged.predict(X), Y)
        return predict_first_order(
            params, init_params, trajs, batches, members, e, next_residual=actual
        )

    full = probe(eta, train(eta) if trajectories is None else trajectories)
    half = probe(0.5 * eta, train(0.5 * eta))
    if half.actual_error == 0.0:
        raise ValueError("half-rate probe has zero error; scaling ratio undefined")
    return full, half, full.actual_error / half.actual_error
