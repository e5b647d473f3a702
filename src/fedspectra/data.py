"""Data ingestion, synthetic teacher data, preprocessing, and partitioners.

The loaders, preprocessing and the label-skew split pass samples as one
models.LabeledBatch, the type of each client's batch too.
"""

import os
import struct

import numpy as np

from .models import LabeledBatch
from .rng import stream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# fixed stream key for the parallel-column perturbations (no user seed involved,
# so preprocessing is a pure function of the data)
_PERTURB_KEY = 0x5EED_0F_C0_1D


class IdxFormatError(ValueError):
    """Malformed IDX file; the message names the offending field."""


def _read_exact(f, nbytes, path, what):
    # checked before reading: a read allocates every byte it asks for, and a header
    # may claim more than memory holds or an index can count
    if nbytes > os.fstat(f.fileno()).st_size - f.tell():
        raise IdxFormatError(f"{path}: truncated {what}")
    return f.read(nbytes)


def load_idx(images_path, labels_path) -> LabeledBatch:
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
    return LabeledBatch(X=X, Y=Y, labels=labels)


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

    Returns (LabeledBatch, W_star). X is resampled until its least singular
    value clears 1e-8, which needs n >= d_in.
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
    return LabeledBatch(X=X, Y=W_star @ X), W_star


def partition_noniid(ds: LabeledBatch, n_clients, classes_per_client, seed) -> tuple:
    """Label-skew split: each client draws a fixed number of classes, then each
    class's samples are dealt round-robin among the clients holding it.

    Returns (one ascending index array per client, number of samples
    dropped): samples of classes held by no client are dropped.
    """
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    if classes_per_client < 1:
        raise ValueError("classes_per_client must be >= 1")
    if ds.labels is None:
        raise ValueError("dataset has no class labels")
    rng = stream(seed, "noniid-partition")
    # np.unique would do, but its first call imports numpy.ma (about 11 ms)
    labels = np.sort(ds.labels)
    classes = labels[np.diff(labels, prepend=labels[:1] - 1) != 0]
    take = min(classes_per_client, classes.size)
    # each client's classes, as positions in `classes`
    held = [
        set(rng.choice(classes.size, size=take, replace=False).tolist()) for _ in range(n_clients)
    ]
    assigned = [[np.empty(0, dtype=np.intp)] for _ in range(n_clients)]
    dropped = 0
    for k, cls in enumerate(classes.tolist()):
        holders = [c for c in range(n_clients) if k in held[c]]
        members = np.flatnonzero(ds.labels == cls)
        if not holders:
            dropped += members.size
            continue
        for h, c in enumerate(holders):
            assigned[c].append(members[h::len(holders)])
    return [np.sort(np.concatenate(ix)) for ix in assigned], dropped


def partition_iid(n, n_clients) -> list:
    """Trivial round-robin split of [0, n) into n_clients index arrays."""
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    return [np.arange(c, n, n_clients) for c in range(n_clients)]


# columns of X taken at a time when gathering: about this many bytes, so a
# chunk's copy stays in cache
_GATHER_BYTES = 1 << 19


def gather_columns(X, index_lists) -> list:
    """Return [X[:, ix] for ix in index_lists], equal bit for bit and laid out
    column-major, as numpy lays out X[:, ix].

    Lists that each take every few columns make X[:, ix] read each cache
    line of a row-major X once per list. Here the lists' indices are merged
    and sorted, so neighbouring columns are taken together and each line is
    read once; each chunk of columns is copied into its rows of one
    (picked columns, d) buffer, whose row ranges, transposed, are the results.
    """
    index_lists = [np.asarray(ix, dtype=np.intp) for ix in index_lists]
    d = X.shape[0]
    picks = np.concatenate([np.empty(0, dtype=np.intp), *index_lists])
    order = np.argsort(picks, kind="stable")
    picks = picks[order]
    out = np.empty((picks.size, d), dtype=X.dtype)
    step = max(1, _GATHER_BYTES // max(1, d * X.itemsize))
    for s in range(0, picks.size, step):
        out[order[s:s + step]] = X[:, picks[s:s + step]].T
    sizes = [ix.size for ix in index_lists]
    return [out[end - size:end].T for size, end in zip(sizes, np.cumsum(sizes))]


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


# The exact test calls a pair parallel when arccos|x^T y| < 1e-6, that is when
# |x^T y| lies above about cos(1e-6) ~ 1 - 5e-13. The screen's candidates
# hold every pair at |cos| >= 1 - _SCREEN_MARGIN, a margin far wider than that.
_SCREEN_MARGIN = 1e-8
_SCREEN_KEYS = 4
_PARALLEL_COS = np.cos(1e-6)
# columns whose norm lies within this of 1 are left as they are
_UNIT_SLACK = 1e-13
# each chunk of candidate pairs or gathered columns holds at most
# n x _CHUNK_DOUBLES doubles in all
_CHUNK_DOUBLES = 128


def _screen_directions(d) -> np.ndarray:
    """Seeded unit directions in R^d, one per key, as the columns of a matrix."""
    G = stream(_PERTURB_KEY, "screen", d).standard_normal((d, _SCREEN_KEYS))
    return G / np.linalg.norm(G, axis=0)


class _Screen:
    """Finds the columns of unit-norm X that may be parallel to a given one.

    Each column x has keys |g^T x|, one per direction g. Two columns with
    |cos| >= 1 - margin and norms within s of 1 lie within
    sqrt(2*margin + 4s + 2s^2) of each other up to sign, so all their keys do
    too; computing each key rounds it by well under gap. Columns whose keys
    all lie within tau are candidates. Sorting by the first key makes each
    column's candidates a window of the order, found by binary search.

    Two products of the same d-term dot of near-unit columns, summed in any
    order, round apart by at most 2*gamma_d ~ d*eps; gap = (d + 2)*eps adds
    room for where arccos rounds across 1e-6. So a candidate dot more than
    gap from cos(1e-6) is on the same side of it as the exact test's
    full-prefix product.
    """

    def __init__(self, X):
        d, n = X.shape
        self.X = X
        self.G = _screen_directions(d)
        self.gap = (d + 2) * np.finfo(float).eps
        s = _UNIT_SLACK + self.gap
        self.tau = np.sqrt(2.0 * _SCREEN_MARGIN + 4.0 * s + 2.0 * s * s) + 2.0 * self.gap
        # keys of each column's current value, and the columns in order of the
        # first key; a nudge rewrites the column's keys and moves it in the order
        self.keys = np.abs(self.G.T @ X)
        self.order = np.argsort(self.keys[0], kind="stable")
        self.first = self.keys[0, self.order]
        self.width = max(1, _CHUNK_DOUBLES * n // d)

    def pairs(self):
        """Yield (i, j) index arrays, i < j, of the candidate pairs among the
        columns as they were given, at most _CHUNK_DOUBLES // 16 * n at a time."""
        n = self.first.size
        ends = np.searchsorted(self.first, self.first + self.tau, side="right")
        counts = ends - np.arange(1, n + 1)
        cum = np.concatenate(([0], np.cumsum(counts)))
        budget = _CHUNK_DOUBLES // 16 * n
        a0 = 0
        while a0 < n:
            a1 = max(a0 + 1, int(np.searchsorted(cum, cum[a0] + budget, side="right")) - 1)
            c = counts[a0:a1]
            lo = np.repeat(np.arange(a0, a1), c)
            hi = np.arange(cum[a0], cum[a1]) - np.repeat(cum[a0:a1], c) + lo + 1
            i, j = self.order[lo], self.order[hi]
            for k in range(1, len(self.keys)):
                close = np.abs(self.keys[k, i] - self.keys[k, j]) <= self.tau
                i, j = i[close], j[close]
            yield np.minimum(i, j), np.maximum(i, j)
            a0 = a1

    def flagged(self) -> np.ndarray:
        """Flag each column that has an earlier candidate."""
        flagged = np.zeros(self.first.size, dtype=bool)
        for _, j in self.pairs():
            flagged[j] = True
        return flagged

    def _window(self, first_key):
        """Positions a..b-1 of the order whose first key lies within tau of first_key."""
        a = np.searchsorted(self.first, first_key - self.tau, side="left")
        return a, np.searchsorted(self.first, first_key + self.tau, side="right")

    def _near(self, key, lo, hi) -> np.ndarray:
        """Columns lo <= i < hi whose current keys all lie within tau of key."""
        a, b = self._window(key[0])
        cols = self.order[a:b]
        cols = cols[(cols >= lo) & (cols < hi)]
        return cols[np.all(np.abs(self.keys[:, cols] - key[:, None]) <= self.tau, axis=0)]

    def _abs_dots(self, cols, x) -> np.ndarray:
        """|x_i^T x| for each column i in cols, gathering width columns at a time."""
        dots = np.empty(cols.size)
        w = self.width
        for s in range(0, cols.size, w):
            np.matmul(self.X[:, cols[s:s + w]].T, x, out=dots[s:s + w])
        return np.abs(dots, out=dots)

    def parallel_to_earlier(self, j) -> bool:
        """The exact test of column j's current value against columns 0..j-1,
        decided from its candidates' largest dot unless that lies within gap
        of cos(1e-6); then the full-prefix test decides."""
        x = self.X[:, j]
        key = np.abs(self.G.T @ x)
        a, b = self._window(key[0])
        if 4 * (b - a) >= j:
            # a quarter of the earlier columns may be candidates: one product
            # with all of them in place costs less than gathering those
            cos = np.abs(self.X[:, :j].T @ x)
        else:
            cos = self._abs_dots(self._near(key, 0, j), x)
        top = cos.max(initial=0.0)
        if abs(top - _PARALLEL_COS) <= self.gap:
            return _parallel_to_any(self.X[:, :j], x)
        return bool(top > _PARALLEL_COS)

    def record_nudge(self, j) -> np.ndarray:
        """Take column j's nudged value into the keys; return the later
        columns it is a candidate of."""
        x = self.X[:, j]
        key = np.abs(self.G.T @ x)
        old = self.keys[0, j]
        self.keys[:, j] = key
        # move j to its new first key's place in the order, shifting the
        # entries in between by one; j sits among the entries equal to its
        # old first key (exact repeats share keys)
        order, first = self.order, self.first
        a, b = np.searchsorted(first, old, "left"), np.searchsorted(first, old, "right")
        was = a + int(np.flatnonzero(order[a:b] == j)[0])
        at = int(np.searchsorted(first, key[0])) - int(old < key[0])  # as np.insert would
        if at < was:
            order[at + 1:was + 1], first[at + 1:was + 1] = order[at:was], first[at:was]
        else:
            order[was:at], first[was:at] = order[was + 1:at + 1], first[was + 1:at + 1]
        order[at], first[at] = j, key[0]
        return self._near(key, j + 1, first.size)


def _column_norms(X) -> np.ndarray:
    """np.linalg.norm(X, axis=0), bit for bit, with one n-long scratch row.

    On a C-ordered X of more than one column, numpy's axis-0 sum adds the
    squared rows in turn into one row, and so does this, without squaring
    all of X at once. A single column (or any F-ordered X) numpy sums
    pairwise, so numpy computes it.
    """
    if X.flags.f_contiguous or not X.flags.c_contiguous:
        return np.linalg.norm(X, axis=0)
    acc = np.square(X[0])
    row = np.empty_like(acc)
    for x in X[1:]:
        acc += np.square(x, out=row)
    return np.sqrt(acc, out=acc)


def preprocess_unit_norm(ds: LabeledBatch):
    """Scale feature columns to unit norm and break up parallel pairs.

    When a column is parallel (within 1e-6 rad, either sign) to an earlier
    one, it is nudged by deterministic normal noise of scale 1e-3 and
    renormalized, until it is parallel to none; later columns are compared
    with the nudged value. Returns (LabeledBatch, number of perturbed columns).

    A screen on sorted projections (`_Screen`) first flags every column with
    an earlier candidate: a column whose projections all lie close enough to
    its own to allow |cos| >= 1 - 1e-8, a margin far wider than the rounding
    gap between any two products of the same dot. Only flagged columns, in
    ascending order, run the exact test and the nudge; each nudge flags the
    later columns whose candidate the nudged value is. The result is
    bit-identical to testing every column against all earlier ones in turn:
    that test finds no unflagged column parallel to an earlier one, so
    neither version ever nudges it, and the screen decides it for a flagged
    one from the candidates' dots unless a dot lies within the rounding gap
    of cos(1e-6).

    Raises ValueError on a zero column, and on two or more columns in one
    dimension.
    """
    X = np.array(ds.X, dtype=float)
    norms = _column_norms(X)
    if np.any(norms == 0.0):
        raise ValueError(f"zero column at index {int(np.argmin(norms))}")
    if X.shape[0] == 1 and X.shape[1] > 1:
        # every unit column is +-1, and a nudge renormalises it to +-1 again
        raise ValueError(
            f"{X.shape[1]} columns in 1 dimension are parallel, and no nudge separates them"
        )
    # leave columns already at unit norm untouched so the map is idempotent:
    # division by 1.0 is exact
    X /= np.where(np.abs(norms - 1.0) > _UNIT_SLACK, norms, 1.0)
    screen = _Screen(X)
    flagged = screen.flagged()
    perturbed = 0
    for j in range(X.shape[1]):
        if not flagged[j]:
            continue
        attempt = 0
        while screen.parallel_to_earlier(j):
            noise = stream(_PERTURB_KEY, "perturb", j, attempt).standard_normal(X.shape[0])
            x = X[:, j] + 1e-3 * noise
            X[:, j] = x / np.linalg.norm(x)
            attempt += 1
        if attempt:
            perturbed += 1
            flagged[screen.record_nudge(j)] = True
    return LabeledBatch(X=X, Y=ds.Y, labels=ds.labels), perturbed
