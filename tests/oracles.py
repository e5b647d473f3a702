"""Independent reference implementations used to generate expected values.

Everything here is deliberately written the slow, obvious way (explicit loops,
finite differences, Monte Carlo) and shares no code with the package beyond
numpy, so agreement between the two is evidence rather than tautology. Three
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


def copied(i, k, iterate):
    """A descend_round keep that holds member i's iterate k whole, as a copy:
    the round lends each iterate only until the client's next step. An
    exception to this module's rule: it copies the package's own weights."""
    return iterate._with([W.copy() for W in iterate._weights()])


def stacked_mean(arrays):
    """Unweighted elementwise mean of equally shaped arrays, through one
    stacked copy: np.mean adds the slices of axis 0 in list order."""
    return np.mean(np.stack(arrays), axis=0)


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

    An exception to this module's rule: the nudges draw from
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


def deal_noniid_loop(labels, client_classes):
    """`data.partition_noniid`'s dealing, one sample at a time: each class's
    samples, in index order, go round-robin to the clients holding that
    class. Returns (sorted index tuples per client, number dropped)."""
    labels = np.asarray(labels)
    assigned = [[] for _ in client_classes]
    dropped = 0
    for cls in np.unique(labels).tolist():
        holders = [c for c, held in enumerate(client_classes) if cls in held]
        members = [i for i in range(labels.size) if labels[i] == cls]
        if not holders:
            dropped += len(members)
            continue
        for pos, sample in enumerate(members):
            assigned[holders[pos % len(holders)]].append(sample)
    return tuple(tuple(sorted(ix)) for ix in assigned), dropped


def eager_run_fedavg(cfg, init_params, client_batches, *, observer=None):
    """`federation.run_fedavg` as it ran before the global loss was read off
    the next round's step-0 losses: a full global_loss pass before the first
    round and after every average, the stop test at the top of each round.

    An exception to this module's rule: it drives the package's own
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
        batches = [client_batches[c] for c in members]
        try:
            runs, average = local_round(params, batches, cfg.eta, cfg.local_steps)
        except DivergenceError as e:
            c = members[e.client]
            raise DivergenceError(
                f"round {t}, client {c}: {e}", round_index=t, client=c, step=e.step, loss=e.loss
            ) from e
        local_losses = tuple(tuple(ls) for _, ls in runs)
        averaged = average()
        if observer is not None:
            observer(
                RoundSnapshot(
                    t=t,
                    members=members,
                    local_losses=local_losses,
                    global_params=params,
                    averaged=averaged,
                )
            )
        params = averaged
        value = global_loss(params, client_batches)
        if not np.isfinite(value):
            raise DivergenceError(
                f"non-finite global loss {value} after round {t}", round_index=t, loss=value
            )
        traces.append(RoundTrace(t=t, members=members, local_losses=local_losses))
        losses.append(value)
    return RunResult(traces=tuple(traces), params=params, losses=tuple(losses))


def gram_H_infinity_closed_form(X):
    """H-infinity as one numpy expression, each step a new n x n array:
    x_i.x_j * (pi - angle(x_i, x_j)) / (2 pi), the self-angle set to 0."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=0)
    G = X.T @ X
    theta = np.arccos(np.clip(G / np.outer(norms, norms), -1.0, 1.0))
    np.fill_diagonal(theta, 0.0)
    return G * (np.pi - theta) / (2.0 * np.pi)


def gram_P0_kron(ins, outs, scale):
    """The deep linear Gram matrix from its chains (ins[j] = A_j, outs[j] =
    B_j): the sum of np.kron(A_j^T A_j, B_j B_j^T), then a scaled copy."""
    n, d = ins[0].shape[1], outs[0].shape[0]
    P = np.zeros((n * d, n * d))
    for A, B in zip(ins, outs):
        P += np.kron(A.T @ A, B @ B.T)
    return (scale**2) * P
