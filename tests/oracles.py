"""Independent reference implementations used to generate expected values.

Everything here is deliberately written the slow, obvious way (explicit loops,
finite differences, Monte Carlo) and shares no code with the package beyond
numpy, so agreement between the two is evidence rather than tautology. Two
functions are exceptions, and each says why in its docstring.
"""

import numpy as np


def finite_difference_grad(f, x, step=1e-6):
    """Central-difference gradient of scalar f at flat array x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def matmul_loops(A, B):
    """Triple-loop matrix product."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    out = np.zeros((A.shape[0], B.shape[1]))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0.0
            for k in range(A.shape[1]):
                acc += A[i, k] * B[k, j]
            out[i, j] = acc
    return out


def kron_loops(A, B):
    """Entrywise Kronecker product: C[i*p+k, j*q+l] = A[i,j]*B[k,l]."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    p, q = B.shape
    out = np.zeros((A.shape[0] * p, A.shape[1] * q))
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = A[i, j] * B[k, l]
    return out


def vec_columns_loop(M):
    """Column-first flattening by explicit loops."""
    M = np.asarray(M, dtype=float)
    out = []
    for j in range(M.shape[1]):
        for i in range(M.shape[0]):
            out.append(M[i, j])
    return np.array(out)


def deep_linear_forward_loops(layers, X, scale):
    """Forward pass as a fold of loop matmuls."""
    H = np.asarray(X, dtype=float)
    for W in layers:
        H = matmul_loops(W, H)
    return scale * H


def relu_forward_loops(hidden, signs, X, width):
    """Scalar-by-scalar two-layer ReLU forward pass."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for r in range(hidden.shape[0]):
            z = float(hidden[r] @ X[:, i])
            if z > 0.0:
                acc += signs[r] * z
        out[i] = acc / np.sqrt(width)
    return out


def layer_product(layers, lo, hi):
    """Product of layers[hi-1] @ ... @ layers[lo] (0-based half-open), or
    identity-like None when empty."""
    P = None
    for idx in range(lo, hi):
        P = layers[idx] if P is None else layers[idx] @ P
    return P


def gram_linear_bruteforce(g_layers, l_layers, X, X_c, width, d_out):
    """Entry-by-entry mixed Gram matrix of the deep linear model.

    Entry ((i,a),(j,b)) sums over layers the product of the data-side inner
    product (features of x_i under the global prefix, x_j under the local
    prefix) and the output-side inner product (row a of the global suffix,
    row b of the local suffix). Index (i,a) flattens to i*d_out + a.
    """
    X = np.asarray(X, dtype=float)
    X_c = np.asarray(X_c, dtype=float)
    L = len(g_layers)
    n, n_c = X.shape[1], X_c.shape[1]
    out = np.zeros((n * d_out, n_c * d_out))
    norm = 1.0 / (width ** (L - 1) * d_out)
    for layer in range(1, L + 1):
        pre_g = layer_product(g_layers, 0, layer - 1)
        pre_l = layer_product(l_layers, 0, layer - 1)
        suf_g = layer_product(g_layers, layer, L)
        suf_l = layer_product(l_layers, layer, L)
        feats_g = X if pre_g is None else pre_g @ X
        feats_l = X_c if pre_l is None else pre_l @ X_c
        rows_g = np.eye(d_out) if suf_g is None else suf_g
        rows_l = np.eye(d_out) if suf_l is None else suf_l
        for i in range(n):
            for j in range(n_c):
                data_part = float(feats_g[:, i] @ feats_l[:, j])
                for a in range(d_out):
                    for b in range(d_out):
                        out[i * d_out + a, j * d_out + b] += (
                            norm * data_part * float(rows_g[a] @ rows_l[b])
                        )
    return out


def mc_relu_kernel(X, draws, seed):
    """Monte-Carlo estimate of E_w[x_i.x_j 1{w.x_i>=0} 1{w.x_j>=0}] with
    standard Gaussian w."""
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((draws, X.shape[0]))
    gates = (W @ X >= 0.0).astype(float)
    co_active = gates.T @ gates / draws
    return (X.T @ X) * co_active


def gram_H_tkc(global_W, local_W, X, X_c):
    """Finite-width ReLU Gram block: entry (i, j) averages x_i.x_j over hidden
    units whose global weights activate x_i and local weights activate x_j."""
    m = global_W.shape[0]
    gate_rows = (global_W @ X >= 0.0).astype(float)
    gate_cols = (local_W @ X_c >= 0.0).astype(float)
    return (X.T @ X_c) * (gate_rows.T @ gate_cols) / m


def eig_2x2(M):
    """Eigenvalues of a symmetric 2x2 matrix from the characteristic polynomial."""
    a, b, c = float(M[0, 0]), float(M[0, 1]), float(M[1, 1])
    mean = 0.5 * (a + c)
    disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return np.array([mean - disc, mean + disc])


def pooled_gradient_step_linear(layers, scale, X, Y, eta):
    """One full-batch gradient step on the pooled data, layer by layer, using
    finite-difference-free but loop-structured gradients: dL/dW_l =
    scale * suffix^T (U - Y) (prefix X)^T."""
    L = len(layers)
    H = np.asarray(X, dtype=float)
    U = scale * layer_product(layers, 0, L) @ H
    E = U - np.asarray(Y, dtype=float)
    new_layers = []
    for l in range(L):
        pre = layer_product(layers, 0, l)
        suf = layer_product(layers, l + 1, L)
        feats = H if pre is None else pre @ H
        lift = E if suf is None else suf.T @ E
        new_layers.append(layers[l] - eta * scale * (lift @ feats.T))
    return new_layers


def relu_gradient_step_loops(hidden, signs, X, y, eta):
    """One full-batch gradient step on the hidden weights of the two-layer
    ReLU net, scalar by scalar. Row r moves by -eta/sqrt(width) * sum_i
    (f(x_i) - y_i) signs_r x_i [w_r . x_i >= 0]; the gate is open at zero."""
    hidden = np.asarray(hidden, dtype=float)
    X = np.asarray(X, dtype=float)
    width, dim = hidden.shape
    n = X.shape[1]
    norm = 1.0 / np.sqrt(width)
    pre = np.zeros((width, n))
    for r in range(width):
        for i in range(n):
            acc = 0.0
            for a in range(dim):
                acc += hidden[r, a] * X[a, i]
            pre[r, i] = acc
    residual = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for r in range(width):
            if pre[r, i] > 0.0:
                acc += signs[r] * pre[r, i]
        residual[i] = norm * acc - y[i]
    out = np.zeros((width, dim))
    for r in range(width):
        for a in range(dim):
            g = 0.0
            for i in range(n):
                if pre[r, i] >= 0.0:
                    g += residual[i] * signs[r] * X[a, i]
            out[r, a] = hidden[r, a] - eta * norm * g
    return out


def _parallel_to_any_loop(X_prev, x) -> bool:
    if X_prev.shape[1] == 0:
        return False
    cos = np.abs(X_prev.T @ x)
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    return bool(np.any(angles < 1e-6))


def preprocess_unit_norm_loop(X):
    """`data.preprocess_unit_norm` on a feature matrix, the sequential way:
    every column, in order, is tested against all earlier ones and nudged
    until it is parallel to none. Returns (X, number of perturbed columns).

    The one exception to this module's rule: the nudges draw from
    `fedspectra.rng.stream` under the package's perturbation key, because the
    output is compared bit for bit and the noise is part of it.
    """
    from fedspectra.rng import stream

    X = np.array(X, dtype=float)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        raise ValueError(f"zero column at index {int(np.argmin(norms))}")
    off = np.abs(norms - 1.0) > 1e-13
    X[:, off] = X[:, off] / norms[off]
    perturbed = 0
    for j in range(X.shape[1]):
        attempt = 0
        while _parallel_to_any_loop(X[:, :j], X[:, j]):
            noise = stream(0x5EED_0F_C0_1D, "perturb", j, attempt).standard_normal(X.shape[0])
            x = X[:, j] + 1e-3 * noise
            X[:, j] = x / np.linalg.norm(x)
            attempt += 1
        if attempt:
            perturbed += 1
    return X, perturbed


def eager_run_fedavg(cfg, init_params, client_batches, *, observer=None, observe_rounds=None):
    """`federation.run_fedavg` as it ran before the global loss was read off
    the next round's step-0 losses: a full global_loss pass before the first
    round and after every average, the stop test at the top of each round.

    The other exception to this module's rule: it drives the package's own
    sampling, local round and average, since what it checks is only the
    order of the loop around them, bit for bit.
    """
    from fedspectra.federation import (
        DivergenceError,
        RoundSnapshot,
        RoundTrace,
        RunResult,
        global_loss,
        local_round,
        sample_participants,
    )

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
        observed = observer is not None and (observe_rounds is None or t in observe_rounds)
        batches = [client_batches[c] for c in members]
        try:
            runs, average = local_round(
                params, batches, cfg.eta, cfg.local_steps, observed, cfg.workers
            )
        except DivergenceError as e:
            c = members[e.client]
            raise DivergenceError(
                f"round {t}, client {c}: {e}", round_index=t, client=c, step=e.step, loss=e.loss
            ) from e
        trajectories = tuple(iterates for iterates, _ in runs)
        local_losses = tuple(tuple(ls) for _, ls in runs)
        if observed:
            observer(
                RoundSnapshot(
                    t=t,
                    members=members,
                    global_params=params,
                    trajectories=trajectories,
                    local_losses=local_losses,
                )
            )
        params = average()
        value = global_loss(params, client_batches)
        if not np.isfinite(value):
            raise DivergenceError(
                f"non-finite global loss {value} after round {t}", round_index=t, loss=value
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
