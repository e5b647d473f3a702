"""The two network models: a deep linear stack and a two-layer ReLU net.

Both parameter classes expose the same four members: predict(X), the
gradient step step(batch, eta), the server average average(params) (a
classmethod) and drift(init). Gradients of the (unnormalized) square loss are closed-form;
there is no automatic differentiation anywhere. All arithmetic is 64-bit.
Parameter values are treated as immutable: every update builds new arrays.
"""

from dataclasses import dataclass

import numpy as np

from .rng import stream


@dataclass(frozen=True, eq=False)
class LabeledBatch:
    """A block of samples: feature columns X and aligned targets Y.

    Y is a (d_out, n) matrix for the deep linear model and a length-n
    vector for the scalar-output ReLU model.
    """

    X: np.ndarray
    Y: np.ndarray

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

    @property
    def n(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class DeepLinearParams:
    """Weight stack W^1..W^depth with the fixed output scaling.

    Shapes: W^1 is (width, d_in), interior layers are (width, width), the
    last layer is (d_out, width); a depth-1 stack is a single (d_out, d_in)
    matrix. The forward map multiplies the stack by scale = 1/sqrt(
    width**(depth-1) * d_out).
    """

    kind = "deep-linear"  # the config's model.kind
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

    def step(self, batch: LabeledBatch, eta) -> "DeepLinearParams":
        """One full-batch gradient step on every layer."""
        grads = grads_deep_linear(self, batch)
        layers = tuple(W - eta * g for W, g in zip(self.layers, grads))
        return DeepLinearParams(layers=layers, width=self.width)

    @classmethod
    def average(cls, params) -> "DeepLinearParams":
        """Unweighted layer-wise mean, summed in list order."""
        if not params:
            raise ValueError("nothing to aggregate")
        head = params[0]
        layers = tuple(
            np.mean(np.stack([p.layers[i] for p in params]), axis=0)
            for i in range(head.depth)
        )
        return cls(layers=layers, width=head.width)

    def drift(self, init) -> tuple:
        """Largest per-layer Frobenius distance from init, plus the per-layer list."""
        shapes = [W.shape for W in self.layers]
        if not isinstance(init, DeepLinearParams) or [W.shape for W in init.layers] != shapes:
            raise ValueError("parameter snapshots must share an architecture")
        per_layer = [float(np.linalg.norm(W1 - W0)) for W1, W0 in zip(self.layers, init.layers)]
        return max(per_layer), {"per_layer_frobenius": tuple(per_layer)}


@dataclass(frozen=True, eq=False)
class TwoLayerParams:
    """Hidden weights (rows are neurons) and the fixed output signs."""

    kind = "two-layer-relu"  # the config's model.kind
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

    def step(self, batch: LabeledBatch, eta) -> "TwoLayerParams":
        """One full-batch gradient step on the hidden weights; the signs stay fixed."""
        return TwoLayerParams(
            hidden=self.hidden - eta * grad_two_layer(self, batch), signs=self.signs
        )

    @classmethod
    def average(cls, params) -> "TwoLayerParams":
        """Unweighted mean of the hidden weights, summed in list order; every
        net must carry the same output signs."""
        if not params:
            raise ValueError("nothing to aggregate")
        head = params[0]
        for p in params[1:]:
            if not np.array_equal(p.signs, head.signs):
                raise ValueError("cannot average models with different output signs")
        hidden = np.mean(np.stack([p.hidden for p in params]), axis=0)
        return cls(hidden=hidden, signs=head.signs)

    def drift(self, init) -> tuple:
        """Largest per-neuron (row) distance from init, plus the max and mean."""
        if not isinstance(init, TwoLayerParams) or init.hidden.shape != self.hidden.shape:
            raise ValueError("parameter snapshots must share an architecture")
        rows = np.linalg.norm(self.hidden - init.hidden, axis=1)
        return float(rows.max()), {
            "max_row_drift": float(rows.max()),
            "mean_row_drift": float(rows.mean()),
        }


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


def input_chain(p: DeepLinearParams, X) -> list:
    """Partial products feeding each layer: entry j is (W^j ... W^1) X, entry 0 is X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != p.d_in:
        raise ValueError(f"X must have {p.d_in} rows")
    chain = [X]
    for W in p.layers[:-1]:
        chain.append(W @ chain[-1])
    return chain


def output_chain(p: DeepLinearParams) -> list:
    """Partial products after each layer: entry j maps layer-j output to the
    network output (without the scale); the last entry is the identity."""
    chain = [np.eye(p.d_out)]
    for W in reversed(p.layers[1:]):
        chain.append(chain[-1] @ W)
    chain.reverse()
    return chain


def grads_deep_linear(p: DeepLinearParams, batch: LabeledBatch) -> list:
    """Square-loss gradients for every layer at once.

    Layer j receives scale * out_j.T @ (U - Y) @ in_j.T, where in_j/out_j are
    the partial products around layer j. Shares the chain products across
    layers.
    """
    if batch.Y.ndim != 2 or batch.Y.shape[0] != p.d_out:
        raise ValueError(f"Y must have shape ({p.d_out}, n)")
    ins = input_chain(p, batch.X)
    outs = output_chain(p)
    U = p.scale * (p.layers[-1] @ ins[-1])
    E = U - batch.Y
    return [p.scale * (outs[j].T @ E @ ins[j].T) for j in range(p.depth)]


def grad_two_layer(p: TwoLayerParams, batch: LabeledBatch) -> np.ndarray:
    """Square-loss gradient for the hidden weights.

    Row r is (1/sqrt(width)) sum_i (f(x_i) - y_i) signs_r x_i [w_r . x_i >= 0];
    the indicator is active at exactly zero.
    """
    X = batch.X
    y = np.ravel(batch.Y)
    if X.shape[0] != p.dim:
        raise ValueError(f"X must have {p.dim} rows")
    Z = p.hidden @ X
    active = Z >= 0.0
    residual = (p.signs / np.sqrt(p.width)) @ np.maximum(Z, 0.0) - y
    weights = (p.signs[:, None] * active) * residual[None, :]
    return (1.0 / np.sqrt(p.width)) * (weights @ X.T)


def square_loss(U, Y) -> float:
    """Unnormalized square loss 0.5 * sum((U - Y)**2)."""
    U = np.asarray(U, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if U.shape != Y.shape:
        raise ValueError(f"shape mismatch: {U.shape} vs {Y.shape}")
    return 0.5 * float(np.sum((U - Y) ** 2))


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
