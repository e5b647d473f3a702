"""Dataset ingestion, synthetic teacher data, preprocessing, and partitioners."""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .rng import stream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# fixed stream key for the parallel-column perturbations (no user seed involved,
# so preprocessing is a pure function of the data)
_PERTURB_KEY = 0x5EED_0F_C0_1D


class IdxFormatError(ValueError):
    """Malformed IDX file; the message names the offending field."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature columns X, targets Y, and optional integer class labels."""

    X: np.ndarray
    Y: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self.Y.shape[-1] != self.X.shape[1]:
            raise ValueError("X and Y must agree on the sample count")
        if self.labels is not None:
            if self.labels.shape != (self.X.shape[1],):
                raise ValueError("labels must have one entry per sample")
            if self.labels.size and self.Y.ndim == 2:
                if self.labels.min() < 0 or self.labels.max() >= self.Y.shape[0]:
                    raise ValueError("labels out of range for the target rows")

    @property
    def n(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class ClientPartition:
    """Per-client sample index lists plus the class set each client holds."""

    client_indices: tuple
    client_classes: tuple
    dropped: int = 0

    def __post_init__(self):
        seen = set()
        for idx in self.client_indices:
            s = set(int(i) for i in idx)
            if seen & s:
                raise ValueError("client index lists must be pairwise disjoint")
            seen |= s

    @property
    def n_clients(self) -> int:
        return len(self.client_indices)


def _read_exact(f, nbytes, path, what):
    # checked before reading: a read allocates every byte it asks for, and a header
    # may claim more than memory holds or an index can count
    if nbytes > os.fstat(f.fileno()).st_size - f.tell():
        raise IdxFormatError(f"{path}: truncated {what}")
    return f.read(nbytes)


def load_idx(images_path, labels_path) -> Dataset:
    """Decode a big-endian IDX image/label file pair.

    Pixels are scaled to [0, 1] and each image is flattened column-first into
    one column of X; labels are one-hot encoded into Y with one row per class.
    """
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">i", _read_exact(f, 4, images_path, "magic"))
        if magic != IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad magic {magic:#010x}, expected {IMAGE_MAGIC:#010x}"
            )
        count, rows, cols = struct.unpack(
            ">iii", _read_exact(f, 12, images_path, "dimension header")
        )
        if count < 0 or rows <= 0 or cols <= 0:
            raise IdxFormatError(f"{images_path}: nonpositive dimension")
        # each image becomes a column of rows * cols float64 values, even when there are none
        if rows * cols > np.iinfo(np.intp).max // 8:
            raise IdxFormatError(f"{images_path}: {rows}x{cols} images are too large")
        raw = _read_exact(f, count * rows * cols, images_path, "pixel payload")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)

    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">i", _read_exact(f, 4, labels_path, "magic"))
        if magic != LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad magic {magic:#010x}, expected {LABEL_MAGIC:#010x}"
            )
        (label_count,) = struct.unpack(
            ">i", _read_exact(f, 4, labels_path, "item count")
        )
        if label_count < 0:
            raise IdxFormatError(f"{labels_path}: negative item count {label_count}")
        labels = np.frombuffer(
            _read_exact(f, label_count, labels_path, "label payload"), dtype=np.uint8
        ).astype(np.int64)

    if label_count != count:
        raise IdxFormatError(
            f"item count mismatch: {images_path} has {count} images, "
            f"{labels_path} has {label_count} labels"
        )

    # column-first flatten of each (rows, cols) image: entry (r, c) lands at c*rows + r
    X = pixels.transpose(2, 1, 0).reshape(cols * rows, count) / 255.0
    num_classes = int(labels.max()) + 1 if count else 0
    Y = np.zeros((num_classes, count))
    if count:
        Y[labels, np.arange(count)] = 1.0
    return Dataset(X=X, Y=Y, labels=labels)


def save_idx(images_path, labels_path, X, labels, image_shape):
    """Re-encode features/labels back into an IDX pair (inverse of load_idx)."""
    rows, cols = image_shape
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if X.shape[0] != rows * cols:
        raise ValueError("feature rows do not match the image shape")
    pixels = np.rint(X * 255.0).astype(np.uint8)
    arr = pixels.reshape(cols, rows, n).transpose(2, 1, 0)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IMAGE_MAGIC, n, rows, cols))
        f.write(arr.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", LABEL_MAGIC, n))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def synth_linear_dataset(d_in, d_out, n, seed):
    """Teacher-generated regression data: unit-norm X columns, Y = W_star @ X.

    Returns (Dataset, W_star). X is resampled until its least singular value
    clears 1e-8, which needs n >= d_in.
    """
    if n < d_in:
        raise ValueError(f"need n >= d_in for full row rank, got n={n} d_in={d_in}")
    rng = stream(seed, "synthetic-data")
    while True:
        X = rng.standard_normal((d_in, n))
        norms = np.linalg.norm(X, axis=0)
        if np.any(norms == 0.0):
            continue
        X = X / norms
        if np.linalg.svd(X, compute_uv=False)[-1] > 1e-8:
            break
    W_star = rng.standard_normal((d_out, d_in))
    return Dataset(X=X, Y=W_star @ X), W_star


def partition_noniid(ds: Dataset, n_clients, classes_per_client, seed) -> ClientPartition:
    """Label-skew split: each client draws a fixed number of classes, then each
    class's samples are dealt round-robin among the clients holding it.

    Samples of classes held by no client are dropped; the count is reported on
    the partition.
    """
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    if classes_per_client < 1:
        raise ValueError("classes_per_client must be >= 1")
    if ds.labels is None:
        raise ValueError("dataset has no class labels")
    rng = stream(seed, "noniid-partition")
    classes = np.unique(ds.labels)
    take = min(classes_per_client, classes.size)
    client_classes = [
        frozenset(classes[rng.choice(classes.size, size=take, replace=False)].tolist())
        for _ in range(n_clients)
    ]
    assigned = [[] for _ in range(n_clients)]
    dropped = 0
    for cls in classes.tolist():
        holders = [c for c in range(n_clients) if cls in client_classes[c]]
        members = np.flatnonzero(ds.labels == cls)
        if not holders:
            dropped += members.size
            continue
        for pos, sample in enumerate(members.tolist()):
            assigned[holders[pos % len(holders)]].append(sample)
    return ClientPartition(
        client_indices=tuple(tuple(sorted(ix)) for ix in assigned),
        client_classes=tuple(client_classes),
        dropped=dropped,
    )


def partition_iid(n, n_clients) -> list:
    """Trivial round-robin split of [0, n) into n_clients index arrays."""
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    return [np.arange(c, n, n_clients) for c in range(n_clients)]


def relu_targets(labels, num_classes) -> np.ndarray:
    """Map integer class labels into [0, 1] for the scalar-output model."""
    labels = np.asarray(labels)
    if num_classes < 2:
        return np.zeros(labels.shape, dtype=float)
    return labels / float(num_classes - 1)


def _parallel_to_any(X_prev, x) -> bool:
    if X_prev.shape[1] == 0:
        return False
    cos = np.abs(X_prev.T @ x)
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    return bool(np.any(angles < 1e-6))


# The screen flags column j when some earlier unit column has |cos| >= 1 - margin.
# _parallel_to_any calls a pair parallel only when |cos| > cos(1e-6) ~ 1 - 5e-13,
# and a block product (GEMM) and a matrix-vector product (GEMV) round the same
# d-term dot product of unit columns apart by at most about 2*d*eps (1.7e-13 at
# d = 784), so no pair the screen passes over is parallel to that test, for any
# d below ~4e7. Each screen block holds at most n x _SCREEN_BLOCK doubles.
_SCREEN_BLOCK = 256
_SCREEN_MARGIN = 1e-8


def _screen_parallel(X) -> np.ndarray:
    """Flag each column whose |cos| with some earlier column reaches 1 - margin."""
    n = X.shape[1]
    flagged = np.zeros(n, dtype=bool)
    block = np.empty((n, min(_SCREEN_BLOCK, n)))
    for b0 in range(0, n, _SCREEN_BLOCK):
        b1 = min(b0 + _SCREEN_BLOCK, n)
        # rows are columns 0..b1-1 against the block's columns: the upper triangle
        # of X^T X with the block's diagonal square, of which only i < j counts
        G = np.matmul(X[:, :b1].T, X[:, b0:b1], out=block[:b1, : b1 - b0])
        hit = np.abs(G, out=G) >= 1.0 - _SCREEN_MARGIN
        hit[b0:] = np.triu(hit[b0:], 1)
        flagged[b0:b1] = hit.any(axis=0)
    return flagged


def preprocess_unit_norm(ds: Dataset):
    """Scale feature columns to unit norm and break up parallel pairs.

    When a column is parallel (within 1e-6 rad, either sign) to an earlier
    one, it is nudged by deterministic normal noise of scale 1e-3 and
    renormalized, until it is parallel to none; later columns are compared
    with the nudged value. Returns (Dataset, number of perturbed columns).

    A blocked X^T X screen first flags every column whose |cos| with an
    earlier column is at least 1 - 1e-8, a margin far wider than the rounding
    gap between the screen's products and the exact test's. Only flagged
    columns, in ascending order, run the exact test and the nudge; each nudge
    flags the later columns that reach the margin against the nudged value.
    The result is bit-identical to testing every column against all earlier
    ones in turn: that test finds no unflagged column parallel to an earlier
    one, so neither version ever nudges it.
    """
    X = np.array(ds.X, dtype=float)
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        raise ValueError(f"zero column at index {int(np.argmin(norms))}")
    # leave columns already at unit norm untouched so the map is idempotent
    off = np.abs(norms - 1.0) > 1e-13
    X[:, off] = X[:, off] / norms[off]
    flagged = _screen_parallel(X)
    perturbed = 0
    for j in range(X.shape[1]):
        if not flagged[j]:
            continue
        attempt = 0
        while _parallel_to_any(X[:, :j], X[:, j]):
            noise = stream(_PERTURB_KEY, "perturb", j, attempt).standard_normal(X.shape[0])
            x = X[:, j] + 1e-3 * noise
            X[:, j] = x / np.linalg.norm(x)
            attempt += 1
        if attempt:
            perturbed += 1
            flagged[j + 1:] |= np.abs(X[:, j + 1:].T @ X[:, j]) >= 1.0 - _SCREEN_MARGIN
    return Dataset(X=X, Y=ds.Y, labels=ds.labels), perturbed
