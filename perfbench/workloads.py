"""Workload inputs and output checks for the fedspectra benchmark.

Every input is a function of the workload seed: the seed becomes
``federation.seed`` (synthetic data, partition, init and client sampling),
and for ``idx-setup`` it also seeds the IDX images, which are written before
any timing starts. Nothing is downloaded.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Seed whose outputs are compared against reference.json on top of the
# per-seed checks.
REFERENCE_SEED = 0

# Relative tolerance for the reference comparison. Reordered floating-point
# arithmetic moves results by about 1e-16 per step, which the training loops
# and spectra amplify by a few orders of magnitude at most; a real change in
# what is computed moves them by far more than 1e-7.
REFERENCE_RTOL = 1e-7
REFERENCE_ATOL = 1e-9

# linear-train: the CLI's default config, cut from 100 to this many rounds so
# that one run holds several jobs; training still dominates the job.
LINEAR_TRAIN_ROUNDS = 10

# relu-train runs a fixed number of rounds instead of stopping at a target
# loss: the rounds needed to reach 0.01 x loss0 range from 24 to 62 across
# seeds 0-11, which would make its wall time depend on the seed more than on
# the code. After 30 rounds the loss ratio is 0.008-0.023 on seeds 0-15.
RELU_TRAIN_ROUNDS = 30
RELU_MAX_LOSS_RATIO = 0.05

# linear-verify observes one round (of 4) instead of the two that the test
# config observes, which halves the job: 12 dense 1000x1000 SVDs in
# check_local_drift instead of 24, so one run holds several jobs. Every
# check still runs.
LINEAR_VERIFY_ROUND = 2

IDX_IMAGES = 4000
IDX_SHAPE = (28, 28)
IDX_CLASSES = 10
IDX_REPEAT_FRACTION = 0.02
IDX_CLIENTS = 20
IDX_CLASSES_PER_CLIENT = 3

WORKLOADS = ("linear-train", "relu-train", "linear-verify", "idx-setup")


def config_for(workload, seed, input_dir):
    """Return (command, config document) for one job of ``workload``.

    No config sets ``federation.workers``: the key may go away, and the
    tracer assumes one thread.
    """
    if workload == "linear-train":
        return "train", {"federation": {"rounds": LINEAR_TRAIN_ROUNDS, "seed": seed}}
    if workload == "relu-train":
        return "train", {
            "model": {"kind": "two-layer-relu", "width": 2048, "dim": 16},
            "data": {"kind": "synthetic", "n": 1000, "preprocess": True},
            "federation": {
                "n_clients": 10,
                "local_steps": 5,
                "rounds": RELU_TRAIN_ROUNDS,
                "eta": 0.05,
                "seed": seed,
            },
        }
    if workload == "linear-verify":
        return "verify", {
            "model": {"kind": "deep-linear", "depth": 3, "width": 1000, "d_in": 10, "d_out": 5},
            "data": {"kind": "synthetic", "n": 32},
            "federation": {
                "n_clients": 4,
                "local_steps": 3,
                "rounds": 4,
                "eta": 2e-05,
                "seed": seed,
            },
            "verify": {"rounds": [LINEAR_VERIFY_ROUND]},
        }
    if workload == "idx-setup":
        input_dir = Path(input_dir)
        return "train", {
            "model": {"kind": "two-layer-relu", "width": 128},
            "data": {
                "kind": "idx",
                "images": str(input_dir / "images.idx"),
                "labels": str(input_dir / "labels.idx"),
                "partition": "noniid",
                "classes_per_client": IDX_CLASSES_PER_CLIENT,
                "preprocess": True,
            },
            "federation": {"n_clients": IDX_CLIENTS, "rounds": 5, "seed": seed},
        }
    raise ValueError(f"unknown workload {workload!r}")


def make_idx_images(seed):
    """Seeded images (one column per image, pixels in (0, 1]) and labels.

    A share of IDX_REPEAT_FRACTION of the images are exact copies, image and
    label, of an earlier image that is not itself a copy. Each copy is the
    only kind of column that preprocessing finds parallel to an earlier one,
    so the number of nudged columns equals the number of copies.
    """
    rng = np.random.default_rng([seed, 0x1D7])
    n = IDX_IMAGES
    pixels = rng.integers(1, 256, size=(IDX_SHAPE[0] * IDX_SHAPE[1], n), dtype=np.int64)
    labels = rng.integers(0, IDX_CLASSES, size=n)
    repeats = int(round(IDX_REPEAT_FRACTION * n))
    copies = np.sort(rng.choice(np.arange(1, n), size=repeats, replace=False))
    is_copy = np.zeros(n, dtype=bool)
    is_copy[copies] = True
    for j in copies:
        sources = np.flatnonzero(~is_copy[:j])
        src = sources[rng.integers(sources.size)]
        pixels[:, j] = pixels[:, src]
        labels[j] = labels[src]
    return pixels / 255.0, labels, repeats


def expected_dropped(labels, seed):
    """Samples of classes that no client draws in the non-iid split.

    Re-derives the class draw from the partition's own random stream, so
    the count follows from the input and the seed alone.
    """
    from fedspectra.rng import stream

    rng = stream(seed, "noniid-partition")
    classes = np.unique(labels)
    take = min(IDX_CLASSES_PER_CLIENT, classes.size)
    held = set()
    for _ in range(IDX_CLIENTS):
        held.update(classes[rng.choice(classes.size, size=take, replace=False)].tolist())
    return int(np.count_nonzero(~np.isin(labels, sorted(held))))


def prepare(workload, seed, input_dir):
    """Write the job config (and for idx-setup the IDX pair) into input_dir.

    Returns (command, config path, expectations for check_outputs).
    """
    input_dir = Path(input_dir)
    input_dir.mkdir(parents=True, exist_ok=True)
    command, doc = config_for(workload, seed, input_dir)
    expect = {}
    if workload == "idx-setup":
        from fedspectra.data import save_idx

        X, labels, repeats = make_idx_images(seed)
        save_idx(input_dir / "images.idx", input_dir / "labels.idx", X, labels, IDX_SHAPE)
        expect = {"perturbed_columns": repeats, "dropped_samples": expected_dropped(labels, seed)}
    config_path = input_dir / "config.json"
    config_path.write_text(json.dumps(doc, indent=2) + "\n")
    return command, config_path, expect


def primary_artifact(command):
    """The file whose bytes must repeat exactly across jobs of one seed."""
    return "trace.csv" if command == "train" else "verify.json"


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_outputs(command, out_dir):
    name = "trace.json" if command == "train" else "verify.json"
    return json.loads((Path(out_dir) / name).read_text())


def _summary(command, doc):
    if command == "train":
        return {"final_loss": doc["final_loss"], "rounds": len(doc["rows"])}
    return {"passed": doc["passed"], "checks": [[c["name"], c["measured"]] for c in doc["checks"]]}


def summarize_outputs(command, out_dir):
    """The values that the reference comparison looks at."""
    return _summary(command, _load_outputs(command, out_dir))


def _close(a, b):
    """Equal, except that two floats need only agree within the reference tolerance."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL)
    return a == b


def check_outputs(workload, command, out_dir, expect, reference=None):
    """Return a list of problems with one job's artifacts (empty when correct).

    ``reference`` is the stored summary for REFERENCE_SEED, or None for
    other seeds.
    """
    out_dir = Path(out_dir)
    problems = []
    artifact = out_dir / primary_artifact(command)
    if not artifact.is_file():
        return [f"missing {artifact.name}"]
    try:
        doc = _load_outputs(command, out_dir)
        summary = _summary(command, doc)
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable outputs: {e}"]
    if command == "train":
        losses = doc["losses"]
        if not all(isinstance(v, float) and math.isfinite(v) for v in losses):
            problems.append("non-finite loss in trace.json")
        elif workload == "relu-train" and not losses[-1] <= RELU_MAX_LOSS_RATIO * losses[0]:
            problems.append(
                f"final loss {losses[-1]} above {RELU_MAX_LOSS_RATIO} x loss0 {losses[0]}"
            )
        for key, want in expect.items():
            if doc.get(key) != want:
                problems.append(f"{key}: got {doc.get(key)}, expected {want}")
    elif summary["passed"] is not True:
        problems.append(f"verify.json has passed={summary['passed']}")
    if reference is not None and not _close(summary, reference):
        problems.append(f"differs from the stored reference: {summary} vs {reference}")
    return problems
