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

from .federation import local_round
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

# Largest gap |trace(H-infinity) - n/2| that ntk-trace accepts for unit-norm
# inputs.
_NTK_TRACE_TOL = 1e-10
# Interior weight products are bounded by this constant times sqrt(depth), at
# sqrt(width) per factor.
_INTERIOR_CONSTANT = 10.0


@dataclass(frozen=True)
class GramSpectrum:
    """Eigenvalues of a symmetric matrix, in ascending order."""

    shape: tuple
    lambda_min: float
    lambda_max: float
    eigenvalues: np.ndarray


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
        context=dict(context or {}),
    )


@dataclass(frozen=True)
class BoundSeries:
    """Per-round contraction factors and the cumulative loss bound they imply.

    values[t] = loss0 * prod(rho[:t]), computed left to right, so values has
    one more entry than rho and values[0] == loss0.
    """

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
    return _nonzero(np.linalg.svd(M, compute_uv=False), M.shape)


def _nonzero(sv, shape) -> np.ndarray:
    if sv.size == 0 or sv[0] == 0.0:
        return sv[:0]
    return sv[sv > max(shape) * np.finfo(float).eps * sv[0]]


def sigma_min_nonzero(M) -> float:
    """Smallest numerically nonzero singular value."""
    sv = nonzero_singular_values(M)
    if sv.size == 0:
        raise ValueError("matrix is numerically zero")
    return float(sv[-1])


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


def gram_P0_lambda_min(p: DeepLinearParams, X) -> tuple:
    """Least nonzero eigenvalue of gram_P0(p, X), and the rank r of X.

    Cut to its r nonzero singular values, X = U_r S_r V_r^T, and then
    gram_P0(p, X) = (V_r kron I) gram_P0(p, U_r S_r) (V_r kron I)^T with V_r
    orthonormal. So the nonzero eigenvalues of gram_P0(p, X) are those of
    the (r*d_out)-square gram_P0(p, U_r S_r), whatever the sample count.
    """
    X = np.asarray(X, dtype=float)
    U, sv, _ = np.linalg.svd(X, full_matrices=False)
    r = _nonzero(sv, X.shape).size
    if r == 0:
        raise ValueError("data are numerically zero")
    return spectrum(gram_P0(p, U[:, :r] * sv[:r])).lambda_min, r


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
    return BoundSeries(rho=tuple(rho), values=tuple(values))


def lambda_min_floor(depth, sigma_min_x, d_out) -> float:
    """Initialization-time floor 0.8^4 * depth * sigma_min(X)^2 / d_out for the
    least structurally nonzero eigenvalue of gram_P0."""
    if depth < 1 or d_out < 1:
        raise ValueError("depth and d_out must be >= 1")
    if sigma_min_x < 0.0:
        raise ValueError("sigma_min_x must be nonnegative")
    return 0.8**4 * depth * sigma_min_x**2 / d_out


def check_gram_floor(p: DeepLinearParams, X) -> CheckReport:
    """Floor vs the least nonzero eigenvalue of gram_P0 (see
    gram_P0_lambda_min)."""
    X = np.asarray(X, dtype=float)
    floor = lambda_min_floor(p.depth, sigma_min_nonzero(X), p.d_out)
    observed, r = gram_P0_lambda_min(p, X)
    return make_report(
        "gram-floor",
        measured=floor,
        bound=observed,
        context={
            "floor": floor,
            "observed_lambda_min": observed,
            "data_rank": r,
            "width": p.width,
            "depth": p.depth,
        },
    )


def check_ntk_trace(X) -> CheckReport:
    """For unit-norm inputs the closed-form infinite-width Gram matrix has
    trace exactly n/2; checks the absolute gap against _NTK_TRACE_TOL."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    gap = abs(float(np.trace(gram_H_infinity(X))) - 0.5 * n)
    return make_report(
        "ntk-trace",
        measured=gap,
        bound=_NTK_TRACE_TOL,
        context={"n": n, "expected_trace": 0.5 * n},
    )


def _product_range(layers, start, stop):
    """Product layers[stop-1] @ ... @ layers[start] (0-based, half-open)."""
    P = None
    for idx in range(start, stop):
        P = layers[idx] if P is None else layers[idx] @ P
    return P


def _spectral_norm(W) -> float:
    """sigma_max(W) as the root of W^T W's top eigenvalue, in about half the
    time of an SVD; squaring loses nothing at the top of the spectrum."""
    return float(np.sqrt(max(np.linalg.eigvalsh(W.T @ W)[-1], 0.0)))


def check_init_spectra(p: DeepLinearParams, X) -> list:
    """Initialization-scale checks on weight products and data features.

    For each suffix product (layer i through the top, i >= 2, 1-based) the
    extreme singular values must lie within [0.8, 1.2] of sqrt(width) per
    factor; for each prefix product applied to the data (layers 1..j, j < L)
    the same band holds relative to the extreme singular values of X; interior
    products are checked against _INTERIOR_CONSTANT * sqrt(depth) at the same
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
                context=ctx | {"observed_sigma_max": float(sv[0])},
            )
        )
        reports.append(
            make_report(
                f"init-suffix-sigma-min:{i}",
                measured=0.8 * unit,
                bound=sv[-1],
                context=ctx | {"floor": 0.8 * unit, "observed_sigma_min": float(sv[-1])},
            )
        )
    # prefix products applied to the data: layers 1..j, j < L
    sv_x = nonzero_singular_values(X)
    if sv_x.size == 0:
        raise ValueError("data are numerically zero")
    r, smax_x, smin_x = sv_x.size, float(sv_x[0]), float(sv_x[-1])
    for j in range(1, L):
        WX = _product_range(p.layers, 0, j) @ X
        sv = np.linalg.svd(WX, compute_uv=False)
        # W X has rank <= width, so a width below the data's rank leaves
        # its r-th singular value at 0
        smin = float(sv[r - 1]) if r <= sv.size else 0.0
        unit = float(m) ** (j / 2.0)
        ctx = {"layers": f"1..{j}", "scale_unit": unit, "data_rank": r}
        reports.append(
            make_report(
                f"init-prefix-data-sigma-max:{j}",
                measured=sv[0],
                bound=1.2 * unit * smax_x,
                context=ctx | {"observed_sigma_max": float(sv[0])},
            )
        )
        reports.append(
            make_report(
                f"init-prefix-data-sigma-min:{j}",
                measured=0.8 * unit * smin_x,
                bound=smin,
                context=ctx | {"floor": 0.8 * unit * smin_x, "observed_sigma_min": smin},
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
                    measured=_spectral_norm(W),
                    bound=_INTERIOR_CONSTANT * np.sqrt(L) * unit,
                    context={"layers": f"{i}..{j}", "scale_unit": unit},
                )
            )
    return reports


def check_local_descent(local_losses, factor, lam) -> CheckReport:
    """Per-step geometric decrease of the local training loss: the worst
    step's squared-residual ratio against the step factor's power. The factor
    comes from the Gram eigenvalue lam, which the context keeps (see
    verify.local_descent)."""
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


def check_local_deviation(xi_k, xi_bar, coefficient, k, eta) -> CheckReport:
    """Distance of the step-k stacked local residual from the broadcast-time
    one, against coefficient * |xi_bar| (the coefficients are in
    verify.local_deviation); k and eta go into the context."""
    xi_k = np.asarray(xi_k, dtype=float)
    xi_bar = np.asarray(xi_bar, dtype=float)
    if xi_k.shape != xi_bar.shape:
        raise ValueError("residual stacks must have equal shapes")
    base = float(np.linalg.norm(xi_bar))
    measured = float(np.linalg.norm(xi_k - xi_bar))
    return make_report(
        "local-deviation",
        measured=measured,
        bound=coefficient * base,
        context={"k": int(k), "eta": float(eta), "coefficient": coefficient, "base_norm": base},
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


def check_drift(params_now, params_init, radius, *, context=None) -> CheckReport:
    """Largest parameter movement since initialization against a drift radius:
    per-layer Frobenius norm for the linear network, per-neuron row norm for
    the ReLU network. Pass radius from the matching drift_radius_* formula and
    put the formula's inputs in context so the report is self-describing."""
    measured, detail = params_now.drift(params_init)
    ctx = dict(context or {})
    ctx.update(detail)
    return make_report("global-drift", measured=measured, bound=radius, context=ctx)


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


def check_local_drift(trajectory, batch: LabeledBatch) -> list:
    """Spectral-norm distance of each local iterate trajectory[k] (k >= 1)
    from the broadcast weights trajectory[0], against 24*sqrt(d_out)*|X_c| /
    (L*sigma_min^2(X_c)) times the client residual norm at broadcast time
    (linear network only); one report per step k.

    trajectory is one client's local gradient steps on `batch`. Each step
    changes a layer by a matrix of rank at most min(n_c, d_out), so the
    spectral norms at step k come from a sketch of rank k*min(n_c, d_out),
    certified against the rounding of k updates (2*k*eps*|W_global|_F).
    A client whose data are numerically zero (no samples, say) gets radius 0:
    every gradient is a product with X_c, so its deltas are 0 too.
    """
    global_params = trajectory[0]
    if not isinstance(global_params, DeepLinearParams):
        raise TypeError("local drift bound applies to the linear network")
    sv = nonzero_singular_values(batch.X)
    resid = float(np.linalg.norm(vec_residual(global_params.predict(batch.X), batch.Y)))
    norm_xc = smin = radius = 0.0
    if sv.size:
        norm_xc, smin = float(sv[0]), float(sv[-1])
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
                context={"per_layer_spectral": per_layer} | context,
            )
        )
    return reports


def _gram_pairs(row_p, row_outs, p, X_c) -> list:
    """Per layer, the factors of the mixed Gram block between the features of
    row_p (rows; row_outs is its output_chain) and those of p on X_c
    (columns): the scaled output product B_row B_p^T and p's input chain A_p."""
    scale = row_p.scale * p.scale
    layers = zip(row_outs, output_chain(p), input_chain(p, X_c))
    return [(scale * (B @ Bp.T), A) for B, Bp, A in layers]


def _gram_times(pairs, row_ins, V) -> np.ndarray:
    """The mixed Gram block times vec(V), as a d_out x n matrix; row_ins is
    row_p's input_chain on X.

    By vec(N V M) = kron(M^T, N) vec(V), layer j adds
    (B_row B_p^T) V (A_p^T A_row). Multiplied left to right, nothing larger
    than d_out x max(width, n) is formed: no Kronecker block, and no
    width x width product.
    """
    return sum((M @ V @ A.T) @ A_row for (M, A), A_row in zip(pairs, row_ins))


@dataclass(frozen=True)
class FirstOrderReport:
    """One-round residual prediction and the norms of its decomposition.

    predicted is the next flattened residual under the frozen-feature
    recursion (second-order remainder dropped). term_contraction is the
    contracted current residual; term_gram_shift measures feature movement
    since initialization; term_local_deviation measures within-round client
    divergence; reconstruction_gap certifies the three terms recombine into
    predicted. actual_error and relative_error are filled when the true next
    residual is supplied.
    """

    predicted: np.ndarray
    base_norm: float
    term_contraction: float
    term_gram_shift: float
    term_local_deviation: float
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
    X = np.hstack([b.X for b in batches])
    Y = np.hstack([b.Y for b in batches])
    xi_bar = vec_residual(global_params.predict(X), Y)
    base_norm = float(np.linalg.norm(xi_bar))
    s = len(members)
    # the global residual as a d_out x n matrix, and each client's columns
    R_bar = xi_bar.reshape(global_params.d_out, -1, order="F")
    starts = np.cumsum([0] + [b.n for b in batches])

    # the global and initial chains on X, and the initial factor pairs per member
    ins_g, outs_g = input_chain(global_params, X), output_chain(global_params)
    ins_0, outs_0 = input_chain(init_params, X), output_chain(init_params)
    P0 = {c: _gram_pairs(init_params, outs_0, init_params, batches[c].X) for c in members}
    R_bar_S = {c: global_params.predict(batches[c].X) - batches[c].Y for c in members}
    contraction = sum(
        _gram_times(P0[c], ins_0, R_bar[:, starts[c] : starts[c + 1]]) for c in members
    )
    update, shift_sum, dev_sum = np.zeros((3, *R_bar.shape))
    for k in range(local_steps):
        for traj, c in zip(trajectories, members):
            X_c, p = batches[c].X, traj[k]
            R_k = p.predict(X_c) - batches[c].Y
            moved = _gram_times(_gram_pairs(global_params, outs_g, p, X_c), ins_g, R_k)
            update += moved
            shift_sum += moved - _gram_times(P0[c], ins_0, R_k)
            dev_sum += _gram_times(P0[c], ins_0, R_k - R_bar_S[c])

    coeff = eta / s
    predicted = xi_bar - coeff * update.flatten(order="F")
    term1 = xi_bar - (eta * local_steps / s) * contraction.flatten(order="F")
    term2 = coeff * shift_sum.flatten(order="F")
    term3 = coeff * dev_sum.flatten(order="F")
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
        reconstruction_gap=gap,
        actual_error=actual_error,
        relative_error=relative_error,
    )


def first_order_scaling(
    params, init_params, batches, members, eta, local_steps, *, trajectories, workers=None
):
    """Predict one round at eta and at eta/2 from the same state and return
    the two FirstOrderReports plus the ratio of their absolute prediction
    errors. A ratio near 4 is the signature of a second-order remainder.

    trajectories are the members' local trajectories at eta (aligned with
    sorted(members), as in predict_first_order), e.g. from a RoundSnapshot;
    only the eta/2 probe trains, every member in one local_round on
    client_pool(workers); pass the run's workers, so that the probe descends
    at the BLAS thread count the trajectories did.
    """
    X = np.hstack([b.X for b in batches])
    Y = np.hstack([b.Y for b in batches])

    def probe(e, trajs):
        averaged = type(params).average([traj[-1] for traj in trajs])
        actual = vec_residual(averaged.predict(X), Y)
        return predict_first_order(
            params, init_params, trajs, batches, members, e, next_residual=actual
        )

    full = probe(eta, trajectories)
    own = [batches[c] for c in sorted(int(c) for c in members)]
    runs, _ = local_round(params, own, 0.5 * eta, local_steps, keep=True, workers=workers)
    half = probe(0.5 * eta, [iterates for iterates, _ in runs])
    if half.actual_error == 0.0:
        raise ValueError("half-rate probe has zero error; scaling ratio undefined")
    return full, half, full.actual_error / half.actual_error
