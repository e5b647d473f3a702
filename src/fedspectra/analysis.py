"""Gram matrices, spectra, contraction-rate bounds and the first-order
residual prediction: the mathematics that the verify checks measure with.

Conventions used throughout:
- flattened residuals follow the column-first order of vec_residual, so for a
  multi-output model coordinate s*d_out + a is (sample s, output a) and the
  Kronecker factors are ordered (sample matrix, output matrix);
- "effective" smallest singular values / eigenvalues are taken over the
  numerically nonzero part of the spectrum, since feature matrices with more
  samples than input dimensions are rank-deficient by construction.
"""

from dataclasses import dataclass

import numpy as np

from .models import DeepLinearParams, input_chain, output_chain, vec_residual
from .rng import stream

_SYMMETRY_TOL = 1e-10

# Extra sketch columns beyond the rank bound (Halko, Martinsson & Tropp 2011,
# section 4.2).
_SKETCH_OVERSAMPLE = 10
# Rows per block when the sketch residual is summed.
_RESIDUAL_BLOCK = 128
# Rows per block when a matrix's asymmetry is taken: 32 rows of an n x n
# matrix are 3% of it at n = 1000, and take the asymmetry as fast as 128 do.
_ASYMMETRY_ROWS = 32


@dataclass(frozen=True)
class GramSpectrum:
    """Eigenvalues of a symmetric matrix, in ascending order."""

    shape: tuple
    lambda_min: float
    lambda_max: float
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class BoundSeries:
    """Per-round contraction factors and the cumulative loss bound they imply.

    values[t] = loss0 * prod(rho[:t]), computed left to right, so values has
    one more entry than rho and values[0] == loss0. Where the factors give no
    bound, values is None and refused says why.
    """

    rho: tuple
    values: tuple | None
    refused: str | None = None


def spectrum(M) -> GramSpectrum:
    """Eigenvalues of a square matrix that is symmetric up to 1e-10 absolute
    asymmetry (symmetrized before eigh); any other input raises ValueError.

    M is never written. An exactly symmetric M, as every Gram builder here
    gives, goes to eigh as it is, since 0.5 * (M + M^T) is then M bit for
    bit: no n x n array is added beside LAPACK's own working copy.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"need a nonempty 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got shape {M.shape}")
    asym = _asymmetry(M)
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"matrix is materially asymmetric (max |M - M^T| = {asym:g})")
    eig = np.linalg.eigvalsh(M if asym == 0.0 else 0.5 * (M + M.T))
    return GramSpectrum(
        shape=M.shape, lambda_min=float(eig[0]), lambda_max=float(eig[-1]), eigenvalues=eig
    )


def _asymmetry(M) -> float:
    """max |M - M^T| of a square M, taken on and above the diagonal a block
    of rows at a time, so that no n x n difference is formed."""
    worst = 0.0
    for i in range(0, M.shape[0], _ASYMMETRY_ROWS):
        rows = slice(i, i + _ASYMMETRY_ROWS)
        gap = M[rows, i:] - M[i:, rows].T
        worst = max(worst, float(np.max(np.abs(gap, out=gap))))
        del gap  # else it lives on beside the next block's
    return worst


def nonzero_singular_values(M) -> np.ndarray:
    """Singular values above the usual max(shape)*eps*sigma_max cut, in
    descending order."""
    M = np.asarray(M, dtype=float)
    return _nonzero(np.linalg.svd(M, compute_uv=False), M.shape)


def _nonzero(sv, shape) -> np.ndarray:
    if sv.size == 0 or sv[0] == 0.0:
        return sv[:0]
    return sv[sv > max(shape) * np.finfo(float).eps * sv[0]]


def gram_P0(p: DeepLinearParams, X) -> np.ndarray:
    """Symmetric Gram matrix of the linear network's per-layer feature maps.

    Sum over layers of kron(A_j^T A_j, B_j B_j^T), scaled by the squared
    output normalization, where A_j carries the data through the layers below
    layer j and B_j carries layer j's output to the network output.

    Built in the one (n*d_out)-square array it returns: each Kronecker term
    is added one block row at a time, and the scale applied in place, bit for
    bit as the sum of np.kron terms times scale**2. The result is exactly
    symmetric, since A^T A and B B^T are.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != p.d_in:
        raise ValueError(f"X must have {p.d_in} rows, got shape {X.shape}")
    ins = input_chain(p, X)
    outs = output_chain(p)
    n, d = X.shape[1], p.d_out
    P = np.zeros((n * d, n * d))
    # block (i, j) of the kron term is G[i, j] * H
    blocks = P.reshape(n, d, n, d)
    for A, B in zip(ins, outs):
        G, H = A.T @ A, B @ B.T
        for i in range(n):
            blocks[i] += G[i, None, :, None] * H[:, None, :]
    P *= p.scale**2
    return P


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

    Built in two n x n arrays, G = X^T X and the angles, and returned in G;
    every step after X^T X is elementwise on symmetric operands, so the
    result is exactly symmetric.
    """
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        raise ValueError(f"zero column at index {int(np.argmin(norms))}")
    G = X.T @ X
    # theta is the one n x n array beside G: each step of the closed form
    # writes over it, in the closed form's order, so H is
    # G * (pi - theta) / (2 pi) bit for bit
    theta = np.outer(norms, norms)
    np.divide(G, theta, out=theta)
    np.clip(theta, -1.0, 1.0, out=theta)
    np.arccos(theta, out=theta)
    # arccos is ill-conditioned at cos=1; the self-angle is exactly zero
    np.fill_diagonal(theta, 0.0)
    np.subtract(np.pi, theta, out=theta)
    G *= theta
    G /= 2.0 * np.pi
    return G


def contraction_factor(eta, participants, lambda_min, local_steps, n_clients) -> float:
    """One-round contraction factor rho = 1 - eta*|S|*lambda_min*K/(2 N^2)."""
    return 1.0 - eta * participants * lambda_min * local_steps / (2.0 * n_clients**2)


def bound_series(loss0, eta, local_steps, n_clients, lambda_min, sizes) -> BoundSeries:
    """rho_t of every round (see contraction_factor) and the loss bound they
    imply, which needs lambda_min > 0 and every rho_t in (0, 1]: else values
    is None and refused names the first rule broken."""
    if loss0 < 0.0:
        raise ValueError("loss0 must be nonnegative")
    if eta <= 0.0 or local_steps < 1 or n_clients < 1:
        raise ValueError("eta, local_steps, n_clients must be positive")
    sizes = tuple(int(s) for s in sizes)
    if any(s < 1 or s > n_clients for s in sizes):
        raise ValueError("participant counts must lie in [1, n_clients]")
    rho = tuple(contraction_factor(eta, s, lambda_min, local_steps, n_clients) for s in sizes)
    if lambda_min <= 0.0:
        return BoundSeries(rho, None, f"lambda_min {lambda_min:g} is not positive")
    values = [float(loss0)]
    for r in rho:
        if r <= 0.0:
            reason = f"contraction factor {r:g} is not in (0, 1]: eta too large for the bound"
            return BoundSeries(rho, None, reason)
        values.append(values[-1] * r)
    return BoundSeries(rho, tuple(values))


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


class FirstOrderStart:
    """The round-start terms of the first-order prediction of a round from
    global_params taken by `members`, which every probe of the round shares;
    batches covers every client and fixes the global sample order (client
    0's samples first).

    members are sorted; member i holds batches[members[i]], with P0[i] its
    initial factor pairs and R_bar_S[i] its residual at global_params.
    xi_bar is the flattened global residual at global_params, and
    contraction the members' initial Gram blocks times it, a d_out x n
    matrix. ins_g/outs_g and ins_0 are the global and initial chains on X.
    """

    def __init__(self, global_params, init_params, batches, members):
        if not isinstance(global_params, DeepLinearParams):
            raise TypeError("the residual recursion is defined for the linear network")
        self.global_params, self.batches = global_params, tuple(batches)
        self.members = tuple(sorted(int(c) for c in members))
        X = np.hstack([b.X for b in batches])
        Y = np.hstack([b.Y for b in batches])
        self.xi_bar = vec_residual(global_params.predict(X), Y)
        # the global residual as a d_out x n matrix, and each client's columns
        R_bar = self.xi_bar.reshape(global_params.d_out, -1, order="F")
        starts = np.cumsum([0] + [b.n for b in batches])
        self.ins_g, self.outs_g = input_chain(global_params, X), output_chain(global_params)
        self.ins_0, outs_0 = input_chain(init_params, X), output_chain(init_params)
        self.P0 = tuple(
            _gram_pairs(init_params, outs_0, init_params, batches[c].X) for c in self.members
        )
        self.R_bar_S = tuple(
            global_params.predict(batches[c].X) - batches[c].Y for c in self.members
        )
        self.contraction = sum(
            _gram_times(pairs, self.ins_0, R_bar[:, starts[c] : starts[c + 1]])
            for pairs, c in zip(self.P0, self.members)
        )

    def iterate_terms(self, i, p) -> tuple:
        """Member i's iterate p, as its three d_out x n terms of the
        prediction: (moved, gram_shift, deviation), the current features'
        Gram block times p's residual, its gap from the initial one, and the
        initial block times p's residual less the broadcast one.

        A round from global_params over the members' batches, in member
        order, can form them as each iterate is formed (descend_round's
        keep) and hold them instead of its iterates.
        """
        batch = self.batches[self.members[i]]
        # p's output chain is built anew even when p is global_params: numpy
        # multiplies an array by its own transpose as a symmetric product,
        # which rounds otherwise
        pairs = _gram_pairs(self.global_params, self.outs_g, p, batch.X)
        # the top layer's input is that of p.predict, which multiplies the
        # same products in the same order
        R_k = p.scale * (p.layers[-1] @ pairs[-1][1]) - batch.Y
        moved = _gram_times(pairs, self.ins_g, R_k)
        gram_shift = moved - _gram_times(self.P0[i], self.ins_0, R_k)
        deviation = _gram_times(self.P0[i], self.ins_0, R_k - self.R_bar_S[i])
        return moved, gram_shift, deviation


def predict_first_order(start, terms, eta, *, next_residual=None) -> FirstOrderReport:
    """Predict the post-round flattened residual from a round's terms, and
    decompose the prediction against initialization-time Gram matrices.

    terms[i][k] is start.iterate_terms(i, iterate k) of member i, for every
    iterate that a local step starts from (k = 0 .. K-1, so K entries for K
    local steps), summed by step, then by member. next_residual, when
    given, is the measured residual after the server average, used to fill
    the error fields.
    """
    if len(terms) != len(start.members):
        raise ValueError("need one trajectory per participant")
    steps = {len(member_terms) for member_terms in terms}
    if len(steps) != 1:
        raise ValueError("trajectories must have equal length")
    (local_steps,) = steps
    if local_steps < 1:
        raise ValueError("trajectories must contain at least one local step")
    xi_bar = start.xi_bar
    base_norm = float(np.linalg.norm(xi_bar))
    s = len(start.members)
    update, shift_sum, dev_sum = np.zeros((3, *start.contraction.shape))
    for k in range(local_steps):
        for member_terms in terms:
            moved, gram_shift, deviation = member_terms[k]
            update += moved
            shift_sum += gram_shift
            dev_sum += deviation

    coeff = eta / s
    predicted = xi_bar - coeff * update.flatten(order="F")
    term1 = xi_bar - (eta * local_steps / s) * start.contraction.flatten(order="F")
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
