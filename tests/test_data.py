"""IDX codec, synthetic data, partitioners, and preprocessing behavior."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedspectra import data
from fedspectra.data import (
    Dataset,
    IdxFormatError,
    load_idx,
    partition_iid,
    partition_noniid,
    preprocess_unit_norm,
    relu_targets,
    save_idx,
    synth_linear_dataset,
)
from fedspectra.rng import stream
from oracles import deal_noniid_loop, preprocess_unit_norm_loop


def _write_idx_pair(tmp_path, pixels, labels):
    """Handcrafted big-endian IDX files, independent of the package encoder."""
    n, rows, cols = pixels.shape
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(
        struct.pack(">iiii", 0x00000803, n, rows, cols) + pixels.astype(np.uint8).tobytes()
    )
    lab.write_bytes(struct.pack(">ii", 0x00000801, n) + bytes(int(v) for v in labels))
    return img, lab


def test_load_idx_decodes_pixels_column_first(tmp_path):
    pixels = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
    img, lab = _write_idx_pair(tmp_path, pixels, [1, 0])
    ds = load_idx(img, lab)
    assert ds.X.shape == (6, 2)
    # column-first within each image: entry (r, c) lands at c*rows + r
    first = pixels[0]
    expected = [first[0, 0], first[1, 0], first[0, 1], first[1, 1], first[0, 2], first[1, 2]]
    np.testing.assert_allclose(ds.X[:, 0], np.array(expected) / 255.0)
    assert ds.labels.tolist() == [1, 0]
    np.testing.assert_array_equal(ds.Y, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_load_idx_rejects_bad_magic(tmp_path):
    img = tmp_path / "bad.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">iiii", 0x00000802, 1, 1, 1) + b"\x00")
    lab.write_bytes(struct.pack(">ii", 0x00000801, 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx(img, lab)


def test_load_idx_rejects_truncated_payload(tmp_path):
    img = tmp_path / "short.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + b"\x00" * 7)
    lab.write_bytes(struct.pack(">ii", 0x00000801, 2) + b"\x00\x01")
    with pytest.raises(IdxFormatError, match="pixel payload"):
        load_idx(img, lab)


def test_load_idx_rejects_images_too_large_to_index(tmp_path):
    # no images, but numpy cannot shape even an empty float64 column of 2**62 rows
    img = tmp_path / "wide.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">iiii", 0x00000803, 0, 2**31 - 1, 2**31 - 1))
    lab.write_bytes(struct.pack(">ii", 0x00000801, 0))
    with pytest.raises(IdxFormatError, match="2147483647x2147483647 images are too large"):
        load_idx(img, lab)


def test_load_idx_rejects_count_mismatch(tmp_path):
    pixels = np.zeros((2, 1, 1), dtype=np.uint8)
    img, _ = _write_idx_pair(tmp_path, pixels, [0, 1])
    lab = tmp_path / "short_labels.idx"
    lab.write_bytes(struct.pack(">ii", 0x00000801, 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="item count"):
        load_idx(img, lab)


_INT32 = st.one_of(st.integers(-2, 4), st.integers(-(2**31), 2**31 - 1))


@st.composite
def _idx_file(draw, magic, fields):
    """One IDX file: a magic number that is usually right, int32 header
    fields (small, negative or huge), and a payload short of, equal to or
    longer than the one the fields claim, kept under 300 bytes."""
    magic = draw(st.one_of(st.just(magic), _INT32))
    claimed = math.prod(fields) if min(fields) >= 0 else 0
    fit = min(claimed, 256)
    size = draw(
        st.sampled_from(
            [st.integers(0, max(fit - 1, 0)), st.just(fit), st.integers(fit + 1, fit + 16)]
        )
    )
    payload = draw(st.binary(min_size=(n := draw(size)), max_size=n))
    return struct.pack(f">{1 + len(fields)}i", magic, *fields) + payload


@st.composite
def _idx_pair(draw):
    count, rows, cols = draw(_INT32), draw(_INT32), draw(_INT32)
    label_count = draw(st.one_of(st.just(count), _INT32))
    images = draw(_idx_file(0x00000803, (count, rows, cols)))
    labels = draw(_idx_file(0x00000801, (label_count,)))
    return images, labels, (count, rows, cols)


@settings(deadline=None, max_examples=200)
@given(_idx_pair())
def test_load_idx_returns_the_header_shapes_or_raises_idx_format_error(tmp_path_factory, pair):
    images, labels, (count, rows, cols) = pair
    d = tmp_path_factory.mktemp("idx")
    (d / "i.idx").write_bytes(images)
    (d / "l.idx").write_bytes(labels)
    try:
        ds = load_idx(d / "i.idx", d / "l.idx")
    except IdxFormatError:
        return
    assert ds.X.shape == (rows * cols, count)
    assert ds.labels.shape == (count,) and ds.Y.shape[1] == count


def test_idx_round_trip_is_byte_exact(tmp_path):
    pixels = np.random.default_rng(0).integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
    labels = [0, 2, 1, 2, 0]
    img, lab = _write_idx_pair(tmp_path, pixels, labels)
    ds = load_idx(img, lab)
    img2, lab2 = tmp_path / "img2.idx", tmp_path / "lab2.idx"
    save_idx(img2, lab2, ds.X, ds.labels, (3, 4))
    assert img2.read_bytes() == img.read_bytes()
    assert lab2.read_bytes() == lab.read_bytes()


def test_synth_linear_dataset_properties():
    ds, W_star = synth_linear_dataset(6, 3, 20, seed=11)
    np.testing.assert_allclose(np.linalg.norm(ds.X, axis=0), 1.0, atol=1e-12)
    assert np.linalg.svd(ds.X, compute_uv=False)[-1] > 1e-8
    np.testing.assert_allclose(ds.Y, W_star @ ds.X, atol=1e-12)
    ds2, W2 = synth_linear_dataset(6, 3, 20, seed=11)
    assert np.array_equal(ds.X, ds2.X) and np.array_equal(W_star, W2)
    with pytest.raises(ValueError):
        synth_linear_dataset(10, 2, 5, seed=0)


def test_partition_iid_is_round_robin():
    parts = partition_iid(10, 3)
    assert [p.tolist() for p in parts] == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]


def _labeled_dataset(n=30, num_classes=5, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    X = rng.standard_normal((4, n))
    Y = np.zeros((num_classes, n))
    Y[labels, np.arange(n)] = 1.0
    return Dataset(X=X, Y=Y, labels=labels)


def _drawn_classes(labels, n_clients, per_client, seed):
    """Each client's class set, re-derived from the partition's own stream:
    each client draws its classes from the sorted distinct labels."""
    rng, classes = stream(seed, "noniid-partition"), np.unique(labels)
    take = min(per_client, classes.size)
    return [
        frozenset(classes[rng.choice(classes.size, size=take, replace=False)].tolist())
        for _ in range(n_clients)
    ]


def test_partition_noniid_respects_class_budget_and_disjointness():
    ds = _labeled_dataset()
    indices, dropped = partition_noniid(ds, n_clients=4, classes_per_client=2, seed=3)
    drawn = _drawn_classes(ds.labels, 4, 2, seed=3)
    assert len(indices) == 4
    seen = set()
    for idx, classes in zip(indices, drawn):
        assert len(classes) <= 2
        assert np.issubdtype(idx.dtype, np.integer) and np.all(np.diff(idx) > 0)
        for i in idx.tolist():
            assert i not in seen
            seen.add(i)
            assert ds.labels[i] in classes
    held = set().union(*drawn)
    expected_dropped = sum(int(np.sum(ds.labels == c)) for c in range(5) if c not in held)
    assert dropped == expected_dropped
    assert len(seen) + dropped == ds.n


def test_partition_noniid_is_deterministic():
    ds = _labeled_dataset()
    a, dropped_a = partition_noniid(ds, 4, 2, seed=9)
    b, dropped_b = partition_noniid(ds, 4, 2, seed=9)
    assert [ix.tolist() for ix in a] == [ix.tolist() for ix in b]
    assert dropped_a == dropped_b


def test_partition_noniid_requires_labels():
    ds, _ = synth_linear_dataset(4, 2, 8, seed=0)
    with pytest.raises(ValueError):
        partition_noniid(ds, 2, 1, seed=0)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 60),
    st.integers(1, 8),
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_partition_noniid_deals_like_the_loop(n, num_classes, n_clients, per_client, seed):
    labels = np.random.default_rng(seed).integers(0, num_classes, size=n)
    ds = Dataset(X=np.zeros((1, n)), Y=np.zeros((num_classes, n)), labels=labels)
    indices, dropped = partition_noniid(ds, n_clients, per_client, seed)
    drawn = _drawn_classes(labels, n_clients, per_client, seed)
    got = tuple(tuple(ix.tolist()) for ix in indices)
    assert (got, dropped) == deal_noniid_loop(labels, drawn)


def _gathers_like_fancy_indexing(X, index_lists):
    got = data.gather_columns(X, index_lists)
    assert len(got) == len(index_lists)
    for cols, ix in zip(got, index_lists):
        want = X[:, ix]
        assert cols.shape == want.shape and cols.dtype == want.dtype
        assert cols.tobytes() == want.tobytes()
        # laid out as numpy lays out X[:, ix], so BLAS sees the same operands
        assert cols.flags.f_contiguous
        assert cols.flags.c_contiguous == want.flags.c_contiguous


_GATHER_SOURCES = {
    "row-major": lambda X: X,
    "column slice": lambda X: X[:, 3:-2],
    "column-major": np.asfortranarray,
    "every other row": lambda X: X[::2],
}


@pytest.mark.parametrize("source", _GATHER_SOURCES)
def test_gather_columns_equals_fancy_indexing(monkeypatch, source):
    X = _GATHER_SOURCES[source](np.random.default_rng(15).standard_normal((9, 40)))
    n = X.shape[1]
    _gathers_like_fancy_indexing(X, [[], [4, 1], []])  # clients without samples
    _gathers_like_fancy_indexing(X, [list(range(n))])  # one client holds every column
    _gathers_like_fancy_indexing(X, [[5, 0, 5, 2], [n - 1, -1, 7, 7]])  # unsorted, repeated
    assert data.gather_columns(X, []) == []
    # 3 columns a chunk: the 10 or 11 picked leave a short last chunk
    monkeypatch.setattr(data, "_GATHER_BYTES", 3 * X.shape[0] * X.itemsize)
    _gathers_like_fancy_indexing(X, [np.arange(0, n, 6), [9, 2, 30, 11]])


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 12),
    st.integers(1, 30),
    st.sampled_from(sorted(_GATHER_SOURCES)),
    st.integers(1, 2000),
    st.integers(0, 2**32 - 1),
)
def test_gather_columns_equals_fancy_indexing_on_random_lists(d, n, source, chunk_bytes, seed):
    rng = np.random.default_rng(seed)
    X = _GATHER_SOURCES[source](rng.standard_normal((d, n + 5)))
    lists = [rng.integers(0, X.shape[1], size=rng.integers(0, 12)) for _ in range(rng.integers(0, 5))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_GATHER_BYTES", chunk_bytes)
        _gathers_like_fancy_indexing(X, lists)


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(st.integers(1, 40), st.just(784)),
    st.integers(1, 40),
    st.sampled_from("CF"),
    st.integers(0, 2**32 - 1),
)
@example(784, 1, "C", 0)
@example(8, 1, "C", 0)
def test_column_norms_equal_numpys_bit_for_bit(d, n, order, seed):
    """The row-by-row norms of the pass against np.linalg.norm, which the loop
    oracle uses; numpy sums a single column pairwise, not row by row."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n)) * 10.0 ** rng.integers(-100, 100, size=n)
    X = np.asarray(X, order=order)
    assert data._column_norms(X).tobytes() == np.linalg.norm(X, axis=0).tobytes()


def test_preprocess_normalizes_and_is_idempotent():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 10)) * 3.0
    ds = Dataset(X=X, Y=np.zeros((2, 10)))
    out, perturbed = preprocess_unit_norm(ds)
    assert perturbed == 0
    np.testing.assert_allclose(np.linalg.norm(out.X, axis=0), 1.0, atol=1e-12)
    again, perturbed2 = preprocess_unit_norm(out)
    assert perturbed2 == 0
    assert np.array_equal(out.X, again.X)  # bitwise stable on re-application


def _matches_the_loop(X):
    """Run preprocess_unit_norm and the sequential oracle on X; assert the same
    count and bit-identical columns, and return the preprocessed Dataset and count."""
    out, perturbed = preprocess_unit_norm(Dataset(X=X, Y=np.zeros((1, X.shape[1]))))
    want, want_perturbed = preprocess_unit_norm_loop(X)
    assert perturbed == want_perturbed
    assert out.X.tobytes() == want.tobytes()
    return out, perturbed


def test_preprocess_breaks_up_parallel_columns():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(8)
    X = np.stack([x, 2.0 * x, -0.5 * x, rng.standard_normal(8)], axis=1)
    out, perturbed = _matches_the_loop(X)
    assert perturbed == 2  # one copy and the anti-parallel copy both move
    G = np.abs(out.X.T @ out.X)
    np.fill_diagonal(G, 0.0)
    assert np.all(np.arccos(np.clip(G, 0.0, 1.0)) >= 1e-6)
    out2, again = preprocess_unit_norm(out)
    assert again == 0 and np.array_equal(out.X, out2.X)


def test_preprocess_matches_the_loop_on_a_column_repeated_three_times():
    x, y, z = np.random.default_rng(8).standard_normal((3, 8))
    assert _matches_the_loop(np.stack([x, y, x, z, x, x], axis=1))[1] == 3


@pytest.mark.parametrize("angle, nudged", [(1e-7, 1), (1e-5, 0)])
def test_preprocess_nudges_only_pairs_closer_than_a_microradian(angle, nudged):
    a, u = np.linalg.qr(np.random.default_rng(7).standard_normal((8, 2)))[0].T
    X = np.stack([a, np.cos(angle) * a + np.sin(angle) * u], axis=1)
    assert _matches_the_loop(X)[1] == nudged


def test_preprocess_tests_later_columns_against_the_nudged_value():
    rng = np.random.default_rng(9)
    a, c = rng.standard_normal((2, 8))
    nudged = preprocess_unit_norm_loop(np.stack([a, a], axis=1))[0][:, 1]
    # far enough from a that only the comparison with the nudged copy flags it
    assert abs(a @ nudged) / np.linalg.norm(a) < 1.0 - data._SCREEN_MARGIN
    assert _matches_the_loop(np.stack([a, a, c, nudged], axis=1))[1] == 2


@st.composite
def _planted_copies(draw):
    """A small random matrix in which some columns are scaled, sign-flipped
    or slightly moved copies of earlier ones (copies of copies included)."""
    d, n = draw(st.integers(2, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((d, n))
    for j in range(1, n):
        kind = draw(st.sampled_from(["fresh", "copy", "near"]))
        if kind == "fresh":
            continue
        src = X[:, draw(st.integers(0, j - 1))]
        if kind == "near":
            src = src + draw(st.sampled_from([1e-10, 1e-7, 1e-5])) * rng.standard_normal(d)
        X[:, j] = draw(st.sampled_from([1.0, -1.0, 2.5, -1e-3, 1e4])) * src
    return X


@settings(deadline=None, max_examples=60)
@given(_planted_copies())
def test_preprocess_matches_the_loop_on_planted_copies(X):
    _matches_the_loop(X)


IDX_IMAGES, IDX_REPEATS = 4000, 80


@pytest.fixture(scope="module")
def idx_with_repeats(tmp_path_factory):
    """4000 seeded 28x28 images, IDX_REPEATS of them exact copies of an earlier
    image that is not itself a copy, written by save_idx and read by load_idx."""
    rng = np.random.default_rng([0, 0x1D7])
    pixels = rng.integers(1, 256, size=(28 * 28, IDX_IMAGES), dtype=np.int64)
    copies = np.sort(rng.choice(np.arange(1, IDX_IMAGES), size=IDX_REPEATS, replace=False))
    originals = np.setdiff1d(np.arange(IDX_IMAGES), copies)
    for j in copies:
        pixels[:, j] = pixels[:, rng.choice(originals[originals < j])]
    d = tmp_path_factory.mktemp("idx")
    save_idx(d / "i.idx", d / "l.idx", pixels / 255.0, rng.integers(0, 10, IDX_IMAGES), (28, 28))
    return load_idx(d / "i.idx", d / "l.idx")


def test_preprocess_matches_the_loop_on_idx_images(idx_with_repeats):
    assert _matches_the_loop(idx_with_repeats.X)[1] == IDX_REPEATS


def _counted(monkeypatch, name):
    """Patch data.<name> to record each call in the returned list; the
    patched function still returns what the original does."""
    calls, original = [], getattr(data, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(data, name, counted)
    return calls


def _recorded_pairs(monkeypatch):
    """Patch the screen to record every candidate pair (i, j) it yields."""
    pairs, screen_pairs = [], data._Screen.pairs

    def recorded(self):
        for i, j in screen_pairs(self):
            pairs.extend(zip(i.tolist(), j.tolist()))
            yield i, j

    monkeypatch.setattr(data._Screen, "pairs", recorded)
    return pairs


def test_preprocess_runs_the_exact_test_only_on_flagged_columns(monkeypatch, idx_with_repeats):
    full_prefix = _counted(monkeypatch, "_parallel_to_any")
    pairs = _recorded_pairs(monkeypatch)
    tested, outcomes = [], []
    exact = data._Screen.parallel_to_earlier

    def counted(self, j):
        tested.append(j)
        outcomes.append(exact(self, j))
        return outcomes[-1]

    monkeypatch.setattr(data._Screen, "parallel_to_earlier", counted)
    out, perturbed = preprocess_unit_norm(idx_with_repeats)
    assert perturbed == IDX_REPEATS
    # one test per flagged column plus one per nudge, not one per column, and
    # only on the columns with an earlier candidate
    attempts = sum(outcomes)
    assert len(tested) <= perturbed + IDX_REPEATS + attempts < IDX_IMAGES // 10
    assert set(tested) == {j for _, j in pairs}
    # every repeat is decided from its candidates' dots, none by a full-prefix product
    assert full_prefix == []
    # the candidates are exactly the pairs of equal images: each copy with its
    # original, and two copies of one original with each other
    X = idx_with_repeats.X
    _, group = np.unique(X.T, axis=0, return_inverse=True)
    equal = sorted(
        (int(i), j) for j in range(X.shape[1]) for i in np.flatnonzero(group[:j] == group[j])
    )
    assert sorted(pairs) == equal
    assert len({j for _, j in pairs}) == IDX_REPEATS
    pairs.clear()
    preprocess_unit_norm(out)
    assert pairs == []


def test_preprocess_falls_back_to_the_full_prefix_test_near_a_microradian(monkeypatch):
    """Pairs planted 0.8-1.2 µrad apart put some dots within the rounding gap
    of cos(1e-6), where only the full-prefix product decides."""
    full_prefix = _counted(monkeypatch, "_parallel_to_any")
    rng = np.random.default_rng(13)
    for _ in range(400):
        d = int(rng.integers(2, 41))
        a, u = np.linalg.qr(rng.standard_normal((d, 2)))[0].T
        angle = rng.uniform(0.8e-6, 1.2e-6)
        near = rng.choice([1.0, -2.0]) * (np.cos(angle) * a + np.sin(angle) * u)
        _matches_the_loop(np.stack([a, rng.standard_normal(d), near], axis=1))
    assert len(full_prefix) > 0


def _pass_peak(X) -> int:
    """Peak bytes that preprocess_unit_norm allocates on X, its output included."""
    ds = Dataset(X=X, Y=np.zeros((1, X.shape[1])))
    tracemalloc.start()
    try:
        preprocess_unit_norm(ds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_preprocess_screens_a_tight_cone_in_bounded_memory(monkeypatch):
    """300 columns within 5e-5 rad of one direction: every pair is a candidate
    and reaches the screen margin, yet none is parallel. Beyond its output,
    the whole pass allocates no more than n x 256 doubles."""
    n, d = 300, 784
    rng = np.random.default_rng(14)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    R = rng.standard_normal((d, n))
    R -= np.outer(v, v @ R)
    X = v[:, None] + 5e-5 * R / np.linalg.norm(R, axis=0)
    with monkeypatch.context() as mp:
        pairs = _recorded_pairs(mp)
        assert _matches_the_loop(X)[1] == 0
    assert len(pairs) == n * (n - 1) // 2
    assert _pass_peak(X) <= X.nbytes + n * 256 * 8


def test_preprocess_of_idx_images_allocates_little_beyond_its_output(idx_with_repeats):
    X = idx_with_repeats.X
    assert _pass_peak(X) <= X.nbytes + X.shape[1] * 256 * 8


@settings(deadline=None, max_examples=40)
@given(_planted_copies(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_preprocess_does_not_depend_on_the_screen_directions(X, keys, seed):
    def directions(d):
        G = np.random.default_rng(seed).standard_normal((d, keys))
        return G / np.linalg.norm(G, axis=0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_screen_directions", directions)
        _matches_the_loop(X)


def test_stream_keys_a_numpy_integer_tag_as_the_equal_int():
    want = stream(0, "t", 3).standard_normal(4)
    assert np.array_equal(stream(0, "t", np.int64(3)).standard_normal(4), want)


def test_preprocess_rejects_zero_column():
    X = np.zeros((3, 2))
    X[:, 0] = 1.0
    with pytest.raises(ValueError, match="zero column"):
        preprocess_unit_norm(Dataset(X=X, Y=np.zeros((1, 2))))


def test_preprocess_refuses_many_columns_in_one_dimension():
    # every unit column in one dimension is +-1, and a nudge renormalises it
    # to +-1 again, so the nudges would never end
    X = np.array([[0.5, -2.0, 3.0]])
    with pytest.raises(ValueError, match="3 columns in 1 dimension are parallel"):
        preprocess_unit_norm(Dataset(X=X, Y=np.zeros((1, 3))))
    one, perturbed = preprocess_unit_norm(Dataset(X=X[:, :1], Y=np.zeros((1, 1))))
    assert one.X.tolist() == [[1.0]] and perturbed == 0


def test_relu_targets_map_to_unit_interval():
    labels = np.array([0, 1, 2, 3])
    np.testing.assert_allclose(relu_targets(labels, 4), [0.0, 1 / 3, 2 / 3, 1.0])
    np.testing.assert_array_equal(relu_targets(labels, 1), np.zeros(4))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 40), st.integers(1, 8))
def test_partition_iid_covers_everything_once(n, n_clients):
    parts = partition_iid(n, n_clients)
    flat = np.concatenate(parts) if parts else np.array([])
    assert sorted(flat.tolist()) == list(range(n))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_preprocess_is_idempotent_on_random_data(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((5, 8))
    ds = Dataset(X=X, Y=np.zeros((1, 8)))
    once, _ = preprocess_unit_norm(ds)
    twice, count = preprocess_unit_norm(once)
    assert count == 0
    assert np.array_equal(once.X, twice.X)
