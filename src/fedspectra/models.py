"""The two network models: a deep linear stack and a two-layer ReLU net.

Both parameter classes expose the same five members: predict(X), one round
of local descent descend_round(batches, eta, steps, keep, map), which also
forms the round's server average, its cost per client client_cost(batch,
steps), the side gram_dim(n) of set-up's Gram matrix, and drift(init).
Gradients of the (unnormalized) square loss are closed-form; all arithmetic
is 64-bit. A parameter object is never changed once built: each client's
descent runs one shared loop on a client state whose private arrays it
updates in place (a copy of the weights, or the ReLU net's pre-activations
in sample space), lends each iterate to keep only until its next step,
and writes no more to a client's last iterate once it is handed out.
"""

import ctypes
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .rng import stream


@dataclass(frozen=True, eq=False)
class LabeledBatch:
    """A block of samples: feature columns X, aligned targets Y and
    optional integer class labels, from the data files to each client.

    Y is a (d_out, n) matrix for the deep linear model and a length-n
    vector for the scalar-output ReLU model; a 2-D Y with labels has one
    row per class.
    """

    X: np.ndarray
    Y: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D (features x samples)")
        if self.Y.ndim not in (1, 2):
            raise ValueError("Y must be 1-D or 2-D")
        if self.Y.shape[-1] != self.X.shape[1]:
            raise ValueError(
                f"sample count mismatch: X has {self.X.shape[1]} columns, "
                f"Y has {self.Y.shape[-1]}"
            )
        if self.labels is not None:
            if self.labels.shape != (self.X.shape[1],):
                raise ValueError("labels must have one entry per sample")
            if self.labels.size and self.Y.ndim == 2:
                if self.labels.min() < 0 or self.labels.max() >= self.Y.shape[0]:
                    raise ValueError("labels out of range for the target rows")

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """X^T X, formed on first use and kept: a batch's data never change."""
        return self.X.T @ self.X


@cache
def _numpy_library():
    """A ctypes handle on numpy's own extension, through which the symbols of
    the BLAS that its matmul calls resolve, or None."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        return ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None


@cache
def _blas_dgemm():
    """cblas_dgemm of the OpenBLAS that numpy's own matmul calls, or None
    when numpy is built against a BLAS that does not export it under the
    64-bit-integer names of OpenBLAS."""
    handle = _numpy_library()
    for name in ("scipy_cblas_dgemm64_", "cblas_dgemm64_"):
        fn = getattr(handle, name, None)
        if fn is not None:
            size, ptr = ctypes.c_int64, ctypes.c_void_p
            fn.restype = None
            fn.argtypes = [ctypes.c_int] * 3 + [size] * 3 + [ctypes.c_double, ptr, size]
            fn.argtypes += [ptr, size, ctypes.c_double, ptr, size]
            return fn
    return None


@cache
def blas_threads():
    """(get, put): read and set the thread count of the OpenBLAS that numpy's
    matmul calls, a process-wide setting; None when numpy's BLAS does not
    export them under the names of scipy-openblas."""
    handle = _numpy_library()
    get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
    put = getattr(handle, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    put.restype, put.argtypes = None, [ctypes.c_int]
    return get, put


def _subtract_product(W, A, B):
    """W -= A @ B.T in place, W being C-contiguous.

    numpy's matmul cannot add into its output, so W -= A @ B.T writes the
    product to a temporary, then reads it and W back: three passes over an
    array the size of W where BLAS's C = C - A B^T makes one. BLAS runs the
    same kernel on the same operands as matmul and subtracts each finished
    entry from W, so W ends bit for bit as W -= A @ B.T leaves it. A W with
    one row or column is left to numpy, whose matmul takes its
    matrix-vector kernel there.
    """
    (rows, n), cols = A.shape, B.shape[0]
    if W.shape != (rows, cols) or B.shape[1] != n:
        raise ValueError(f"cannot subtract {A.shape} @ {B.shape}.T from {W.shape}")
    dgemm = _blas_dgemm()
    doubles = all(M.dtype == np.float64 for M in (W, A, B))
    if dgemm is None or min(rows, cols) == 1 or not (doubles and W.flags.c_contiguous):
        W -= A @ B.T
        return
    if n == 0:
        return
    A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
    row_major, no_trans, trans = 101, 111, 112
    # W = -1 * A @ B.T + 1 * W, each matrix row-major with its row length as stride
    args = (rows, cols, n, -1.0, A.ctypes.data, n, B.ctypes.data, n, 1.0, W.ctypes.data, cols)
    dgemm(row_major, no_trans, trans, *args)


class _LocalDescent:
    """The local-descent loop both parameter classes share, each client on a
    state from _client: loss_and_step(eta) returns the loss of the iterate
    the state holds, then takes one step unless eta is None; iterate()
    returns that iterate as parameters that may share the state's arrays,
    to be read only before its next step. A class supplies _weights() (its
    arrays), _with(arrays) (a new object around them) and
    _step_in_place(arrays, batch, eta), the dense state's step."""

    def descend_round(self, batches, eta, steps, keep=None, map=map) -> tuple:
        """`steps` full-batch gradient steps from self on each batch, one
        client per call of `map` (builtin map, or any map that also yields in
        batch order, such as federation.scheduler's window on a thread pool).

        Returns (runs, average). runs[i] is (kept, losses) for batches[i]:
        losses[k] is the loss of iterate k, read off the residual that
        iterate's gradient forms; the last takes one forward pass. A client's
        descent stops at its first non-finite loss, which then ends its
        losses. kept holds keep(i, k, iterate) of each iterate k, 0 (self) to
        the last, called in the thread that descends the client as each
        iterate is formed, which may read the iterate only until it returns
        (the next step may write to the iterate's arrays, so no iterate is
        copied for it); it is empty when keep is None. average() returns the
        server average of the last iterates, np.mean over a stacked axis 0
        bit for bit, and raises ValueError when a client's loss ended
        non-finite.

        Without keep, a client forms iterate `steps` alone, on every state,
        or none (its last iterate is then self) if its loss turns non-finite
        first. Each last iterate joins the sum as soon as `map` yields it: a
        round that keeps no iterate under builtin map holds one client's
        weights beside the sum, one under a map that runs at most w clients
        ahead w.
        """
        if not batches:
            raise ValueError("need at least one batch")
        runs, total = [], None
        # each client's state is made as `map` takes the client, in the
        # calling thread, so a thread pool's threads keep no weights of their
        # own; a fresh pair per client, as enumerate would hold its last pair,
        # and the state in it, until the next
        clients = ((i, self._client(b, steps)) for i, b in enumerate(batches))
        descents = map(lambda ic: self._descend(ic[1], eta, steps, keep, ic[0]), clients)
        for kept, losses, last in descents:
            runs.append((kept, losses))
            if total is None:
                total = [W.copy() for W in last._weights()]
            else:
                for T, W in zip(total, last._weights()):
                    T += W
            kept = last = W = None  # this client's weights go before map starts the next
        for T in total:
            T /= len(runs)

        def average():
            if not all(np.isfinite(losses[-1]) for _, losses in runs):
                raise ValueError("a client's local loss ended non-finite; no average")
            return self._with(total)

        return tuple(runs), average

    def _client(self, batch: LabeledBatch, steps):
        """The state of one client's `steps` steps from self on batch: a copy of self's weights."""
        return _DenseClient(self, batch)

    def _descend(self, client, eta, steps, keep, i) -> tuple:
        """`steps` full-batch gradient steps from self, taken on client, the
        state _client made for batches[i]. Returns (kept, losses, last):
        kept and losses as descend_round describes a run, keep being a
        function of (i, k, iterate) or None, and last the last iterate."""
        last, losses = self, []
        kept = [keep(i, 0, self)] if keep else []
        for k in range(steps + 1):
            losses.append(client.loss_and_step(eta if k < steps else None))
            if k == steps or not np.isfinite(losses[-1]):
                break
            if keep or k == steps - 1:
                last = None  # the iterate before goes before the next is formed
                last = client.iterate()
                if keep:
                    kept.append(keep(i, k + 1, last))
        return tuple(kept), losses, last


class _DenseClient:
    """A copy of the start's weights, which the start's class steps in place."""

    def __init__(self, start: _LocalDescent, batch: LabeledBatch):
        self.start, self.batch = start, batch
        self.weights = [W.copy() for W in start._weights()]

    def loss_and_step(self, eta) -> float:
        return self.start._step_in_place(self.weights, self.batch, eta)

    def iterate(self) -> _LocalDescent:
        return self.start._with(self.weights)


@dataclass(frozen=True, eq=False)
class DeepLinearParams(_LocalDescent):
    """Weight stack W^1..W^depth with the fixed output scaling.

    Shapes: W^1 is (width, d_in), interior layers are (width, width), the
    last layer is (d_out, width); a depth-1 stack is a single (d_out, d_in)
    matrix. The forward map multiplies the stack by scale = 1/sqrt(
    width**(depth-1) * d_out).
    """

    kind = "deep-linear"  # the config's model.kind
    gram_phrase = "a {}-dim Gram matrix"  # P0, formatted with its side
    layers: tuple
    width: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        d_in = self.layers[0].shape[1]
        d_out = self.layers[-1].shape[0]
        depth = len(self.layers)
        for i, W in enumerate(self.layers):
            rows = d_out if i == depth - 1 else self.width
            cols = d_in if i == 0 else self.width
            if W.shape != (rows, cols):
                raise ValueError(
                    f"layer {i} has shape {W.shape}, expected {(rows, cols)}"
                )

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def d_in(self) -> int:
        return self.layers[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.layers[-1].shape[0]

    @property
    def scale(self) -> float:
        return 1.0 / np.sqrt(float(self.width) ** (self.depth - 1) * self.d_out)

    def predict(self, X) -> np.ndarray:
        """U = scale * W^depth ... W^1 X."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.d_in:
            raise ValueError(f"X must have {self.d_in} rows, got shape {X.shape}")
        Z = X
        for W in self.layers:
            Z = W @ Z
        return self.scale * Z

    def gram_dim(self, n) -> int:
        """Side of set-up's P0 on the row space of n samples: min(d_in, n)*d_out."""
        return min(self.d_in, n) * self.d_out

    def _weights(self) -> tuple:
        return self.layers

    def _with(self, layers) -> "DeepLinearParams":
        return DeepLinearParams(layers=tuple(layers), width=self.width)

    def client_cost(self, batch: LabeledBatch, steps) -> int:
        """Multiply-adds of `steps` steps on batch: per layer 3 products a step, 1 at the end."""
        return (3 * steps + 1) * batch.n * sum(W.size for W in self.layers)

    def _step_in_place(self, layers, batch, eta) -> float:
        E, factors = _backprop_deep_linear(layers, self.scale, batch, eta is not None)
        for W, (left, right) in zip(layers, factors):
            _subtract_product(W, eta * left, right)
        return _half_square(E)

    def drift(self, init) -> tuple:
        """Largest per-layer Frobenius distance from init, plus the per-layer list."""
        shapes = [W.shape for W in self.layers]
        if not isinstance(init, DeepLinearParams) or [W.shape for W in init.layers] != shapes:
            raise ValueError("parameter snapshots must share an architecture")
        per_layer = [float(np.linalg.norm(W1 - W0)) for W1, W0 in zip(self.layers, init.layers)]
        return max(per_layer), {"per_layer_frobenius": tuple(per_layer)}


@dataclass(frozen=True, eq=False)
class TwoLayerParams(_LocalDescent):
    """Hidden weights (rows are neurons) and the fixed output signs."""

    kind = "two-layer-relu"  # the config's model.kind
    gram_phrase = "the {}-dim H-infinity Gram matrix"
    hidden: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        if self.hidden.ndim != 2:
            raise ValueError("hidden must be 2-D (width x dim)")
        if self.signs.shape != (self.hidden.shape[0],):
            raise ValueError("signs must have one entry per hidden row")
        if not np.all(np.abs(self.signs) == 1.0):
            raise ValueError("signs must be +1 or -1")

    @property
    def width(self) -> int:
        return self.hidden.shape[0]

    @property
    def dim(self) -> int:
        return self.hidden.shape[1]

    def predict(self, X) -> np.ndarray:
        """y_i = (1/sqrt(width)) sum_r signs_r * max(0, w_r . x_i), as a length-n vector."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != self.dim:
            raise ValueError(f"X must have {self.dim} rows, got shape {X.shape}")
        return (self.signs / np.sqrt(self.width)) @ np.maximum(self.hidden @ X, 0.0)

    def gram_dim(self, n) -> int:
        """Side of set-up's H-infinity on n samples: n."""
        return n

    def _weights(self) -> tuple:
        return (self.hidden,)

    def _with(self, weights) -> "TwoLayerParams":
        return TwoLayerParams(hidden=weights[0], signs=self.signs)

    def _step_in_place(self, weights, batch, eta) -> float:
        residual, grad = _backprop_two_layer(weights[0], self.signs, batch, eta is not None)
        if grad is not None:
            grad *= eta
            weights[0] -= grad  # the signs stay fixed
        return _half_square(residual)

    def client_cost(self, batch: LabeledBatch, steps) -> int:
        """Multiply-adds of `steps` steps on batch in the cheaper state (_relu_costs)."""
        return min(_relu_costs(self.width, self.dim, batch.n, steps))

    def _client(self, batch: LabeledBatch, steps):
        """Sample space for a client whose shape makes it cheaper, else the dense copy."""
        if _descends_in_sample_space(self.width, self.dim, batch.n, steps):
            return _SampleSpaceClient(self, batch)
        return super()._client(batch, steps)

    def drift(self, init) -> tuple:
        """Largest per-neuron (row) distance from init, plus the max and mean."""
        if not isinstance(init, TwoLayerParams) or init.hidden.shape != self.hidden.shape:
            raise ValueError("parameter snapshots must share an architecture")
        rows = np.linalg.norm(self.hidden - init.hidden, axis=1)
        return float(rows.max()), {
            "max_row_drift": float(rows.max()),
            "mean_row_drift": float(rows.mean()),
        }


class _SampleSpaceClient:
    """A ReLU client's descent in sample space, with no copy of the weights.

    Every gradient c*(s o M) X^T lies in the row space of X, so a step
    moves the pre-activations Z = H X by (eta*c*s) o (M G), G = X^T X being
    the batch's cached `gram`, without forming H. H is formed only for the
    iterates handed out, as H0 - (eta*c*s) o (A X^T), A being the sum of the
    steps' M so far; every step of one descent takes the same eta.
    """

    def __init__(self, start: TwoLayerParams, batch: LabeledBatch):
        if batch.X.shape[0] != start.dim:
            raise ValueError(f"X must have {start.dim} rows")
        self.start, self.batch, self.Z = start, batch, None
        self.A = np.zeros((start.width, batch.n))
        self.masked = np.empty_like(self.A)

    def loss_and_step(self, eta) -> float:
        start, Z, masked = self.start, self.Z, self.masked
        if Z is None:  # formed by the thread that descends
            Z = self.Z = start.hidden @ self.batch.X
        residual = _relu_residual(Z, start.signs, np.ravel(self.batch.Y))
        if eta is not None:
            self.rate = (eta / np.sqrt(start.width)) * start.signs[:, None]  # eta*c*s, per row
            np.greater_equal(Z, 0.0, out=masked)
            masked *= residual
            self.A += masked
            step = masked @ self.batch.gram
            step *= self.rate
            Z -= step
        return _half_square(residual)

    def iterate(self) -> TwoLayerParams:
        H = self.A @ self.batch.X.T  # a fresh array, sharing nothing with A, Z or the start
        H *= self.rate
        return self.start._with((np.subtract(self.start.hidden, H, out=H),))


def init_deep_linear(depth, width, d_in, d_out, seed) -> DeepLinearParams:
    """Fresh stack with i.i.d. standard-normal entries, deterministic per seed."""
    if depth < 1 or width < 1 or d_in < 1 or d_out < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = stream(seed, "deep-linear-init")
    layers = []
    for i in range(depth):
        rows = d_out if i == depth - 1 else width
        cols = d_in if i == 0 else width
        layers.append(rng.standard_normal((rows, cols)))
    return DeepLinearParams(layers=tuple(layers), width=width)


def init_two_layer(width, dim, seed) -> TwoLayerParams:
    """Fresh ReLU net: rows ~ N(0, I), signs uniform on {-1, +1}."""
    if width < 1 or dim < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = stream(seed, "two-layer-init")
    hidden = rng.standard_normal((width, dim))
    signs = rng.choice(np.array([-1.0, 1.0]), size=width)
    return TwoLayerParams(hidden=hidden, signs=signs)


def _inputs(layers, X) -> list:
    chain = [X]
    for W in layers[:-1]:
        chain.append(W @ chain[-1])
    return chain


def input_chain(p: DeepLinearParams, X) -> list:
    """Partial products feeding each layer: entry j is (W^j ... W^1) X, entry 0 is X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != p.d_in:
        raise ValueError(f"X must have {p.d_in} rows")
    return _inputs(p.layers, X)


def output_chain(p: DeepLinearParams) -> list:
    """Partial products after each layer: entry j maps layer-j output to the
    network output (without the scale); the last entry is the identity."""
    chain = [np.eye(p.d_out)]
    for W in reversed(p.layers[1:]):
        chain.append(chain[-1] @ W)
    chain.reverse()
    return chain


def _backprop_deep_linear(layers, scale, batch: LabeledBatch, backprop=True) -> tuple:
    """Residual E = scale * W^L ... W^1 X - Y and, when backprop, each
    layer's gradient as a factor pair (left, right), the gradient being
    left @ right.T: right is the layer's input (W^(j-1) ... W^1) X and left
    = scale * (W^L ... W^(j+1)).T @ E, both of them (rows x n)."""
    d_in, d_out = layers[0].shape[1], layers[-1].shape[0]
    if batch.X.shape[0] != d_in:
        raise ValueError(f"X must have {d_in} rows")
    if batch.Y.ndim != 2 or batch.Y.shape[0] != d_out:
        raise ValueError(f"Y must have shape ({d_out}, n)")
    ins = _inputs(layers, batch.X)
    E = scale * (layers[-1] @ ins[-1]) - batch.Y
    if not backprop:
        return E, []
    factors = [(scale * E, ins[-1])]
    for W, right in zip(layers[:0:-1], ins[-2::-1]):
        factors.append((W.T @ factors[-1][0], right))
    return E, factors[::-1]


def grads_deep_linear(p: DeepLinearParams, batch: LabeledBatch) -> list:
    """Square-loss gradients for every layer at once.

    Layer j receives scale * out_j.T @ (U - Y) @ in_j.T, where in_j/out_j are
    the partial products around layer j; out_j.T @ (U - Y) is formed by
    back-propagating the residual one layer at a time.
    """
    return [left @ right.T for left, right in _backprop_deep_linear(p.layers, p.scale, batch)[1]]


def _backprop_two_layer(hidden, signs, batch: LabeledBatch, backprop=True) -> tuple:
    """Residual f(X) - y and, when backprop, the hidden weights' gradient."""
    X = batch.X
    y = np.ravel(batch.Y)
    if X.shape[0] != hidden.shape[1]:
        raise ValueError(f"X must have {hidden.shape[1]} rows")
    Z = hidden @ X
    residual = _relu_residual(Z, signs, y)
    if not backprop:
        return residual, None
    # Z is read no more: it becomes the float mask, then the masked residual
    masked = np.greater_equal(Z, 0.0, out=Z)
    masked *= residual
    grad = masked @ X.T
    # the signs are +-1, so applying them after the product changes no bit
    grad *= signs[:, None]
    grad *= 1.0 / np.sqrt(hidden.shape[0])
    return residual, grad


def _relu_residual(Z, signs, y) -> np.ndarray:
    """f(X) - y, read off the pre-activations Z = hidden @ X."""
    return (signs / np.sqrt(Z.shape[0])) @ np.maximum(Z, 0.0) - y


def _relu_costs(width, dim, n, steps) -> tuple:
    """(dense, sample space): the multiply-adds of `steps` ReLU steps on n
    samples in each state. Dense forms H X and M X^T per step and H X once
    more for the last loss: (2K+1)*m*d*n. Sample space forms H0 X, X^T X and
    the last iterate's A X^T once and M X^T X per step: 2*m*d*n + d*n^2 +
    K*m*n^2, K being `steps`.

    X^T X is formed once per run (LabeledBatch.gram), but the count still
    charges its d*n^2 to every round, so no client changes path. Kept
    iterates (one more m*d*n product each in sample space) are left out on
    purpose: an observed round must round as an unobserved one does. Forming
    kept iterates lazily is the open route (ROADMAP item 14)."""
    dense = (2 * steps + 1) * width * dim * n
    return dense, 2 * width * dim * n + dim * n * n + steps * width * n * n


def _descends_in_sample_space(width, dim, n, steps) -> bool:
    """Whether sample space costs no more than dense (_relu_costs), as for n = 0."""
    dense, sample = _relu_costs(width, dim, n, steps)
    return sample <= dense


def grad_two_layer(p: TwoLayerParams, batch: LabeledBatch) -> np.ndarray:
    """Square-loss gradient for the hidden weights.

    Row r is (1/sqrt(width)) sum_i (f(x_i) - y_i) signs_r x_i [w_r . x_i >= 0];
    the indicator is active at exactly zero.
    """
    return _backprop_two_layer(p.hidden, p.signs, batch)[1]


def square_loss(U, Y) -> float:
    """Unnormalized square loss 0.5 * sum((U - Y)**2)."""
    U = np.asarray(U, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if U.shape != Y.shape:
        raise ValueError(f"shape mismatch: {U.shape} vs {Y.shape}")
    return _half_square(U - Y)


def _half_square(E) -> float:
    return 0.5 * float(np.sum(E**2))


def vec_residual(U, Y) -> np.ndarray:
    """Column-first flattening of U - Y (samples vary slowest)."""
    U = np.asarray(U, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if U.shape != Y.shape:
        raise ValueError(f"shape mismatch: {U.shape} vs {Y.shape}")
    diff = U - Y
    if diff.ndim == 1:
        return diff.copy()
    return diff.flatten(order="F")


def loss_of(params, batch: LabeledBatch) -> float:
    return square_loss(params.predict(batch.X), batch.Y)
