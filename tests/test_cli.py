"""Config parsing, subcommand artifacts, and exit codes."""

import contextlib
import dataclasses
import inspect
import json
import os
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedspectra import cli, federation, verify
from fedspectra.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_NOT_REPRODUCED,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ConfigError,
    main,
    parse_config,
    serialize_config,
)
from fedspectra.config import (
    AnalysisSection,
    DeepLinearModel,
    ExperimentConfig,
    IdxData,
    SweepSection,
    SyntheticData,
    TwoLayerModel,
    VerifySection,
)
from fedspectra.data import save_idx
from fedspectra.federation import FederationConfig, local_round, run_fedavg
from fedspectra.models import DeepLinearParams, _descends_in_sample_space, blas_threads, loss_of


ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path, name, obj) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


SMALL_LINEAR = {
    "model": {"kind": "deep-linear", "depth": 2, "width": 32, "d_in": 4, "d_out": 2},
    "data": {"kind": "synthetic", "n": 12},
    "federation": {"n_clients": 3, "local_steps": 2, "rounds": 5, "eta": 0.01, "seed": 0},
}


# ----------------------------------------------------------------- parsing ----


def test_empty_config_takes_documented_defaults():
    cfg = parse_config("")
    assert cfg.model.kind == "deep-linear"
    assert (cfg.model.depth, cfg.model.width) == (3, 500)
    assert (cfg.model.d_in, cfg.model.d_out) == (10, 5)
    assert cfg.federation.eta == 0.0005
    assert (cfg.federation.n_clients, cfg.federation.local_steps) == (20, 5)
    assert cfg.federation.rate == 1.0
    assert cfg.data.kind == "synthetic"
    assert parse_config(json.dumps(_idx())).data.classes_per_client == 3
    assert cfg.sweep.rates == (0.1, 0.5, 1.0)


def test_unknown_key_reported_with_dotted_path():
    with pytest.raises(ConfigError, match="model.depht"):
        parse_config(json.dumps({"model": {"depht": 3}}))


def test_rate_out_of_range_rejected():
    with pytest.raises(ConfigError, match="federation.rate"):
        parse_config(json.dumps({"federation": {"rate": 1.5}}))


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError, match="federation.rounds"):
        parse_config(json.dumps({"federation": {"rounds": True}}))


def test_verify_rounds_must_lie_in_range():
    doc = {"federation": {"rounds": 10}, "verify": {"rounds": [0, 10]}}
    with pytest.raises(ConfigError, match="verify.rounds"):
        parse_config(json.dumps(doc))


def test_unknown_check_name_lists_choices():
    with pytest.raises(ConfigError, match="ntk-trace"):
        parse_config(json.dumps({"verify": {"checks": ["ntk-trace"]}}))


RELU_SCHEDULED = {
    "model": {"kind": "two-layer-relu", "width": 64, "dim": 6},
    "data": {"kind": "synthetic", "n": 20},
    "federation": {"schedule": [[0, 1], [1]], "rounds": 2, "n_clients": 2},
    "verify": {"checks": ["global-drift", "ntk-trace"], "rounds": [1, 0]},
    "sweep": {"rates": [0.25, 1], "seeds": [3, 1]},
}

IDX_DOC = {
    "data": {
        "kind": "idx",
        "images": "imgs.idx",
        "labels": "labs.idx",
        "subset": 40,
        "classes_per_client": 2,
        "partition": "noniid",
        "preprocess": True,
    },
    "federation": {"rate": 0.5, "stop_loss_fraction": 0.01},
}


def test_serialize_round_trips():
    docs = [
        "",
        json.dumps(SMALL_LINEAR),
        json.dumps(
            {
                "model": {"kind": "two-layer-relu", "width": 64, "dim": 6},
                "data": {"kind": "synthetic", "n": 20},
                "federation": {"schedule": [[0, 1], [1]], "rounds": 2, "n_clients": 2},
                "verify": {"checks": ["ntk-trace"], "rounds": [0]},
            }
        ),
        json.dumps(IDX_DOC),
    ]
    for doc in docs:
        cfg = parse_config(doc)
        assert parse_config(serialize_config(cfg)) == cfg


_POSITIVE_FLOATS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _configs(draw):
    """An ExperimentConfig built in code from values the file format accepts."""
    idx, size = draw(st.booleans()), st.integers(1, 2**40)
    if idx:  # IDX data take the model's sizes from the files
        model = draw(st.builds(DeepLinearModel, size, size) | st.builds(TwoLayerModel, size))
        partition = draw(st.sampled_from(["iid", "noniid"]))
        # classes_per_client applies to the noniid partition only
        classes = st.integers(1, 10) if partition == "noniid" else st.just(3)
        data = draw(
            st.builds(IdxData, st.text(), st.text(), st.none() | st.integers(1, 10**6),
                      classes, st.just(partition), st.booleans())
        )
    else:
        model = draw(
            st.builds(DeepLinearModel, *[size] * 4)
            | st.builds(TwoLayerModel, size, st.integers(1, 50))
        )
        d_in = model.sizes()[0]
        data = draw(st.builds(SyntheticData, st.integers(d_in, d_in + 50), st.booleans()))
    n_clients, rounds = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    members = st.lists(st.integers(0, n_clients - 1), min_size=1, unique=True).map(tuple)
    schedule = draw(st.none() | st.tuples(*[members] * rounds))
    rate = draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True))
    fed = dict(
        n_clients=n_clients,
        local_steps=draw(st.integers(1, 10)),
        rounds=rounds,
        eta=draw(_POSITIVE_FLOATS),
        schedule=schedule,
        seed=draw(st.integers(-(2**70), 2**70)),
        stop_loss_fraction=draw(st.none() | _POSITIVE_FLOATS),
    )
    if schedule is not None and rate != 1.0:
        # a file gives either rate or schedule, so construction rejects both
        with pytest.raises(ValueError) as exc:
            FederationConfig(rate=rate, **fed)
        assert str(exc.value) == "schedule: give either rate or schedule, not both"
        rate = 1.0
    federation = FederationConfig(rate=rate, **fed)
    rates = st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, unique=True)
    seeds = st.lists(st.integers(-(2**40), 2**40), min_size=1, unique=True)
    checks = st.lists(st.sampled_from(verify.known_checks(model.kind)), min_size=1)
    observed = st.lists(st.integers(0, rounds - 1)) if rounds else st.just([])
    return ExperimentConfig(
        model=model,
        data=data,
        federation=federation,
        sweep=SweepSection(tuple(draw(rates)), tuple(draw(seeds))),
        analysis=AnalysisSection(draw(st.integers(1, 2**40))),
        verify=VerifySection(
            draw(st.none() | checks.map(tuple)), draw(st.none() | observed.map(tuple))
        ),
    )


@settings(deadline=None, max_examples=200)
@given(_configs())
def test_serialize_round_trips_configs_built_in_code(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


# One bad value per section built in code; the message is the one parsing
# reports, without the section's prefix.
CONSTRUCTION_ERRORS = [
    (lambda: DeepLinearModel(depth=0), "depth: must be positive, got 0"),
    (lambda: AnalysisSection(max_gram_dim=-5), "max_gram_dim: must be positive, got -5"),
    (lambda: SweepSection(rates=(0.0,)), "rates: must lie in (0, 1], got 0.0"),
    (lambda: SweepSection(rates=(0.5, 0.5)), "rates: rate 0.5 is listed twice"),
    (lambda: IdxData(images="i"), "images: idx data needs both images and labels paths"),
    (lambda: VerifySection(checks=()), "checks: expected a nonempty list of check names"),
    (lambda: ExperimentConfig(federation=FederationConfig(rounds=2),
                              verify=VerifySection(rounds=(9,))),
     "verify.rounds: round 9 outside [0, 2)"),
]


@pytest.mark.parametrize(
    "build, message", CONSTRUCTION_ERRORS, ids=[m for _, m in CONSTRUCTION_ERRORS]
)
def test_construction_enforces_what_parsing_enforces(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_verify_rounds_are_sorted_and_distinct_on_construction():
    assert VerifySection(rounds=(5, 3, 3)).rounds == (3, 5)


_DEFAULT_SWEEP = {"rates": [0.1, 0.5, 1.0], "seeds": [0, 1, 2, 3, 4]}
_DEFAULT_LINEAR_MODEL = {"kind": "deep-linear", "width": 500, "depth": 3, "d_in": 10, "d_out": 5}


@pytest.mark.parametrize(
    "doc, expected",
    [
        (
            {},
            {
                "model": _DEFAULT_LINEAR_MODEL,
                "data": {"kind": "synthetic", "n": 80, "preprocess": False},
                "federation": {
                    "n_clients": 20, "local_steps": 5, "rounds": 100, "eta": 0.0005,
                    "rate": 1.0, "seed": 0,
                },
                "sweep": _DEFAULT_SWEEP,
                "analysis": {"max_gram_dim": 1024},
            },
        ),
        (
            RELU_SCHEDULED,
            {
                "model": {"kind": "two-layer-relu", "width": 64, "dim": 6},
                "data": {"kind": "synthetic", "n": 20, "preprocess": False},
                "federation": {
                    "n_clients": 2, "local_steps": 5, "rounds": 2, "eta": 0.0005,
                    "schedule": [[0, 1], [1]], "seed": 0,
                },
                "sweep": {"rates": [0.25, 1.0], "seeds": [3, 1]},
                "analysis": {"max_gram_dim": 1024},
                "verify": {"checks": ["global-drift", "ntk-trace"], "rounds": [0, 1]},
            },
        ),
        (
            IDX_DOC,
            {
                "model": {"kind": "deep-linear", "width": 500, "depth": 3},
                "data": IDX_DOC["data"],
                "federation": {
                    "n_clients": 20, "local_steps": 5, "rounds": 100, "eta": 0.0005,
                    "rate": 0.5, "seed": 0, "stop_loss_fraction": 0.01,
                },
                "sweep": _DEFAULT_SWEEP,
                "analysis": {"max_gram_dim": 1024},
            },
        ),
        (
            # IDX data leave out the model sizes, and iid data classes_per_client
            {"data": {"kind": "idx", "images": "i", "labels": "l", "partition": "iid"}},
            {
                "model": {"kind": "deep-linear", "width": 500, "depth": 3},
                "data": {
                    "kind": "idx", "images": "i", "labels": "l", "partition": "iid",
                    "preprocess": False,
                },
                "federation": {
                    "n_clients": 20, "local_steps": 5, "rounds": 100, "eta": 0.0005,
                    "rate": 1.0, "seed": 0,
                },
                "sweep": _DEFAULT_SWEEP,
                "analysis": {"max_gram_dim": 1024},
            },
        ),
    ],
    ids=["default-linear", "relu-schedule-verify-sweep", "idx", "idx-iid"],
)
def test_serialize_text_is_pinned(doc, expected):
    # trace.json and verify.json echo this text, so its key order is part of
    # the artifact format: width second in model, verify last.
    assert serialize_config(parse_config(json.dumps(doc))) == json.dumps(expected, indent=2)


def _fed(**federation):
    return {"federation": federation}


def _idx(**data):
    return {"data": {"kind": "idx", "images": "i", "labels": "l", **data}}


def _relu(**model):
    return {"model": {"kind": "two-layer-relu", **model}}


def _sched(schedule, rounds=1):
    return {"federation": {"schedule": schedule, "rounds": rounds, "n_clients": 2}}


_IDX_SIZES = "applies to synthetic data only; IDX data take the sizes from the files"
_LINEAR_CHOICES = (
    "init-spectra, gram-floor, local-descent, local-deviation, global-drift, "
    "local-drift, first-order"
)
_RELU_CHOICES = "ntk-trace, local-descent, local-deviation, global-drift"

def _bad_idx(name, images=None, labels=None):
    """An IDX config whose images (or labels) file holds the given bytes; the
    other file of the pair is a valid one-image file."""

    def doc(tmp_path):
        paths = {"images": tmp_path / f"{name}.idx", "labels": tmp_path / f"{name}-labels.idx"}
        paths["images"].write_bytes(images or struct.pack(">iiii", 0x0803, 1, 1, 1) + b"\0")
        paths["labels"].write_bytes(labels or struct.pack(">ii", 0x0801, 1) + b"\0")
        return _idx(**{k: str(v) for k, v in paths.items()})

    return doc


def _blank_idx(model, preprocess=False, **analysis):
    """40 IDX images of 8x8 pixels, image 7 all zeros, dealt round-robin to 4
    clients, so that image 7 is column 31 of the clients' data in turn."""

    def doc(tmp_path):
        rng = np.random.default_rng(0)
        X = rng.integers(1, 256, (64, 40)) / 255
        X[:, 7] = 0.0
        paths = {"images": tmp_path / "blank.idx", "labels": tmp_path / "blank-labels.idx"}
        save_idx(paths["images"], paths["labels"], X, rng.integers(0, 3, 40), (8, 8))
        data = _idx(**{k: str(v) for k, v in paths.items()}, partition="iid", preprocess=preprocess)
        cfg = {"model": model, **data, "federation": {"n_clients": 4, "rounds": 1}}
        return cfg | ({"analysis": analysis} if analysis else {})

    return doc


def _blank_idx_subset(subset):
    """_blank_idx's 40 images on the deep linear model, data.subset of them."""

    def doc(tmp_path):
        cfg = _blank_idx({"kind": "deep-linear", "width": 8})(tmp_path)
        return cfg | {"data": cfg["data"] | {"subset": subset}}

    return doc


_BLANK = "data.images: image 7 is all zeros; {} needs every image nonzero"


# One fault per input: (config text, document, or function of the test's
# directory that returns a document; message).
CONFIG_ERRORS = [
    # document shape
    ("{not json", "config is not valid JSON: Expecting property name enclosed in "
     "double quotes: line 1 column 2 (char 1)"),
    ("[]", "config root must be a JSON object"),
    ({"bogus": {}}, "config.bogus: unknown key"),
    ({"model": 3}, "model: expected an object"),
    ({"verify": []}, "verify: expected an object"),
    # value types
    ({"model": {"depth": 2.5}}, "model.depth: expected an integer, got 2.5"),
    (_fed(rounds=True), "federation.rounds: expected an integer, got True"),
    (_fed(seed=1.0), "federation.seed: expected an integer, got 1.0"),
    (_fed(eta="x"), "federation.eta: expected a number, got 'x'"),
    (_fed(rate=False), "federation.rate: expected a number, got False"),
    (_fed(stop_loss_fraction="1"),
     "federation.stop_loss_fraction: expected a number, got '1'"),
    ({"model": {"kind": 5}}, "model.kind: expected a string, got 5"),
    ({"data": {"kind": None}}, "data.kind: expected a string, got None"),
    ({"data": {"preprocess": "yes"}}, "data.preprocess: expected a boolean, got 'yes'"),
    (_idx(partition=1), "data.partition: expected a string, got 1"),
    (_idx(partition=None), "data.partition: expected a string, got None"),
    (_idx(images=5), "data.images: expected a string, got 5"),
    (_idx(subset=None), "data.subset: expected an integer, got None"),
    ({"analysis": {"max_gram_dim": "big"}},
     "analysis.max_gram_dim: expected an integer, got 'big'"),
    # kinds
    ({"model": {"kind": "cnn"}},
     "model.kind: expected 'deep-linear' or 'two-layer-relu', got 'cnn'"),
    ({"data": {"kind": "csv"}}, "data.kind: expected 'synthetic' or 'idx', got 'csv'"),
    # unknown keys, including keys that belong to the other kind
    ({"model": {"depht": 3}}, "model.depht: unknown key"),
    ({"model": {"dim": 4}}, "model.dim: unknown key"),
    (_relu(depth=2), "model.depth: unknown key"),
    (_relu(d_in=4), "model.d_in: unknown key"),
    ({"data": {"images": "x"}}, "data.images: unknown key"),
    ({"data": {"classes_per_client": 2}}, "data.classes_per_client: unknown key"),
    (_idx(n=5), "data.n: unknown key"),
    (_fed(clients=3), "federation.clients: unknown key"),
    (_fed(workers=2), "federation.workers: unknown key"),  # refused, not silently ignored
    ({"verify": {"check": []}}, "verify.check: unknown key"),
    ({"sweep": {"rate": [0.5]}}, "sweep.rate: unknown key"),
    ({"analysis": {"max_gram": 5}}, "analysis.max_gram: unknown key"),
    # ranges
    ({"model": {"depth": 0}}, "model.depth: must be positive, got 0"),
    ({"model": {"width": -1}}, "model.width: must be positive, got -1"),
    ({"model": {"d_in": 0}}, "model.d_in: must be positive, got 0"),
    ({"model": {"d_out": 0}}, "model.d_out: must be positive, got 0"),
    (_relu(dim=0), "model.dim: must be positive, got 0"),
    ({"data": {"n": 0}}, "data.n: must be positive, got 0"),
    (_idx(subset=0), "data.subset: must be positive, got 0"),
    (_idx(classes_per_client=0), "data.classes_per_client: must be positive, got 0"),
    (_fed(n_clients=0), "federation.n_clients: must be positive, got 0"),
    (_fed(local_steps=-2), "federation.local_steps: must be positive, got -2"),
    (_fed(eta=0), "federation.eta: must be positive, got 0.0"),
    (_fed(eta=-0.001), "federation.eta: must be positive, got -0.001"),
    (_fed(stop_loss_fraction=0),
     "federation.stop_loss_fraction: must be positive, got 0.0"),
    ({"analysis": {"max_gram_dim": 0}}, "analysis.max_gram_dim: must be positive, got 0"),
    (_fed(rate=0), "federation.rate: must lie in (0, 1], got 0.0"),
    (_fed(rate=1.5), "federation.rate: must lie in (0, 1], got 1.5"),
    (_fed(rounds=-1), "federation.rounds: must be >= 0, got -1"),
    # non-finite numbers, which Python's json accepts
    ('{"federation": {"eta": 1e400}}', "federation.eta: must be finite, got inf"),
    (_fed(eta=float("nan")), "federation.eta: must be finite, got nan"),
    (_fed(stop_loss_fraction=float("inf")),
     "federation.stop_loss_fraction: must be finite, got inf"),
    ('{"federation": {"rate": 1' + "0" * 400 + "}}", "federation.rate: must be finite, got inf"),
    # partition vs data kind
    ({"data": {"partition": "noniid"}}, "data.partition: unknown key"),
    (_idx(partition="bogus"), "data.partition: expected 'iid' or 'noniid', got 'bogus'"),
    (_idx(partition="iid", classes_per_client=2),
     "data.classes_per_client: applies to the noniid partition only; "
     "iid data are dealt round-robin"),
    ({"data": {"kind": "idx", "images": "i"}},
     "data.images: idx data needs both images and labels paths"),
    ({"data": {"kind": "idx", "labels": "l"}},
     "data.images: idx data needs both images and labels paths"),
    # rate vs schedule, and the schedule itself
    ({"federation": {"schedule": [[0]], "rounds": 1, "rate": 0.5}},
     "federation.schedule: give either rate or schedule, not both"),
    (_sched("all"), "federation.schedule: expected a list of client index lists"),
    (_sched([0, 1]), "federation.schedule: expected a list of client index lists"),
    (_sched([["x"]]), "federation.schedule: expected a list of client index lists"),
    (_sched([[None]]), "federation.schedule: expected a list of client index lists"),
    (_sched([[0.9]]), "federation.schedule: expected a list of client index lists"),
    (_sched([[True]]), "federation.schedule: expected a list of client index lists"),
    (_sched([[0]], rounds=3),
     "federation.schedule: must have one entry per round"),
    (_sched([[]]), "federation.schedule: round 0: empty participant set"),
    (_sched([[1, 1]]), "federation.schedule: round 0: duplicate participant"),
    (_sched([[2]]), "federation.schedule: round 0: client index out of range"),
    (_sched([[-1]]), "federation.schedule: round 0: client index out of range"),
    # verify checks and rounds
    ({"verify": {"checks": "all"}}, "verify.checks: expected a list of strings, got 'all'"),
    ({"verify": {"checks": [1]}}, "verify.checks: expected a list of strings, got [1]"),
    ({"verify": {"checks": []}}, "verify.checks: expected a nonempty list of check names"),
    ({"verify": {"checks": ["ntk-trace"]}},
     f"verify.checks: 'ntk-trace' is not a known check for deep-linear "
     f"(choose from {_LINEAR_CHOICES})"),
    ({**_relu(), "verify": {"checks": ["gram-floor"]}},
     f"verify.checks: 'gram-floor' is not a known check for two-layer-relu "
     f"(choose from {_RELU_CHOICES})"),
    ({"verify": {"rounds": [0.5]}}, "verify.rounds: expected a list of integers, got [0.5]"),
    ({"verify": {"rounds": [True]}}, "verify.rounds: expected a list of integers, got [True]"),
    ({"verify": {"rounds": 3}}, "verify.rounds: expected a list of integers, got 3"),
    ({"federation": {"rounds": 10}, "verify": {"rounds": [0, 10]}},
     "verify.rounds: round 10 outside [0, 10)"),
    ({"verify": {"rounds": [-1]}}, "verify.rounds: round -1 outside [0, 100)"),
    ({"federation": {"rounds": 0}, "verify": {"rounds": [1]}},
     "verify.rounds: round 1 outside [0, 0)"),
    ({"federation": {"rounds": 0}, "verify": {"rounds": [0]}},
     "verify.rounds: round 0 outside [0, 0)"),
    # sweep
    ({"sweep": {"rates": []}}, "sweep.rates: expected a nonempty list of rates"),
    ({"sweep": {"rates": 0.5}}, "sweep.rates: expected a list of numbers, got 0.5"),
    ({"sweep": {"rates": [0]}}, "sweep.rates: must lie in (0, 1], got 0.0"),
    ({"sweep": {"rates": [True]}}, "sweep.rates: expected a list of numbers, got [True]"),
    ({"sweep": {"rates": ["a"]}}, "sweep.rates: expected a list of numbers, got ['a']"),
    ({"sweep": {"rates": [0.5, 0.5, 1.0]}}, "sweep.rates: rate 0.5 is listed twice"),
    ({"sweep": {"rates": [1, 1.0]}}, "sweep.rates: rate 1.0 is listed twice"),
    ({"sweep": {"seeds": []}}, "sweep.seeds: expected a nonempty list of seeds"),
    ({"sweep": {"seeds": [1.5]}}, "sweep.seeds: expected a list of integers, got [1.5]"),
    ({"sweep": {"seeds": [False]}}, "sweep.seeds: expected a list of integers, got [False]"),
    ({"sweep": {"seeds": [0, 0]}}, "sweep.seeds: seed 0 is listed twice"),
    # sample count vs input dimension
    (_relu(dim=100), "data.n: need at least dim samples for synthetic data"),
    ({"data": {"n": 5}}, "data.n: need at least d_in samples for synthetic data"),
    # model sizes beside IDX data, which take both sizes from the files
    ({**_idx(), "model": {"d_in": 784}}, f"model.d_in: {_IDX_SIZES}"),
    ({**_idx(), "model": {"d_out": 4}}, f"model.d_out: {_IDX_SIZES}"),
    ({**_idx(), **_relu(dim=64)}, f"model.dim: {_IDX_SIZES}"),
    # malformed IDX files; {tmp} stands for the test's directory
    (_bad_idx("bad-magic", struct.pack(">iiii", 0x0802, 1, 1, 1) + b"\0"),
     "data.images: {tmp}/bad-magic.idx: bad magic 0x00000802, expected 0x00000803"),
    # more pixels than a read can ask for (2**65 bytes)
    (_bad_idx("huge", struct.pack(">iiii", 0x0803, 2**31 - 1, 2**17, 2**17)),
     "data.images: {tmp}/huge.idx: truncated pixel payload"),
    (_bad_idx("negative-labels", labels=struct.pack(">ii", 0x0801, -5)),
     "data.images: {tmp}/negative-labels-labels.idx: negative item count -5"),
    (_bad_idx("empty", struct.pack(">iiii", 0x0803, 0, 1, 1), struct.pack(">ii", 0x0801, 0)),
     "data.images: {tmp}/empty.idx holds no images"),
    # a blank image, named by its index in the file
    (_blank_idx({"kind": "deep-linear", "width": 8}, preprocess=True),
     _BLANK.format("data.preprocess")),
    (_blank_idx({"kind": "two-layer-relu", "width": 8}, preprocess=True),
     _BLANK.format("data.preprocess")),
    (_blank_idx({"kind": "two-layer-relu", "width": 8}),
     _BLANK.format("the H-infinity Gram matrix")),
    (_blank_idx_subset(41), "data.subset: 41 exceeds the 40 available samples"),
]


_RELU_OVER_LIMIT = {
    **_relu(width=64, dim=8),
    "data": {"n": 40},
    "federation": {"n_clients": 4, "rounds": 3},
    "analysis": {"max_gram_dim": 16},
}
# P0 is built on the data's row space: min(d_in, n) * d_out = 8 rows
_LINEAR_OVER_LIMIT = {**SMALL_LINEAR, "analysis": {"max_gram_dim": 7}}
_SHRINK = "raise the limit or shrink the data"


def _repeated_idx(tmp_path, preprocess=False):
    """60 IDX images of 8x8 pixels where image 59 repeats image 3, with its
    label. Without preprocessing lambda_min(H-infinity) is at most 2.7e-10 of
    lambda_max (negative at some seeds); with it, about 7e-5."""
    rng = np.random.default_rng(1)
    X = rng.integers(1, 256, (64, 60)) / 255
    labels = rng.integers(0, 3, 60)
    X[:, 59], labels[59] = X[:, 3], labels[3]
    save_idx(tmp_path / "rep.idx", tmp_path / "rep-labels.idx", X, labels, (8, 8))
    return {
        **_relu(width=64),
        **_idx(images=str(tmp_path / "rep.idx"), labels=str(tmp_path / "rep-labels.idx"),
               partition="iid", preprocess=preprocess),
        "federation": {"n_clients": 4, "rounds": 3, "eta": 0.01, "seed": 1},
        "verify": {"checks": ["global-drift"]},
    }


# Faults that only verify reaches: a selection that would check nothing,
# Gram matrices over analysis.max_gram_dim, and a vanishing H-infinity
# eigenvalue. Each is reported before training.
_PER_ROUND_ONLY = {
    "model": {"width": 16},
    "federation": {"n_clients": 4, "rounds": 3},
    "verify": {"checks": ["local-descent"]},
}
VERIFY_CONFIG_ERRORS = [
    ({**_PER_ROUND_ONLY, "verify": {"checks": ["local-descent"], "rounds": []}},
     "verify.rounds: no round of 3 is observed, and every selected check (local-descent) "
     "runs per round; nothing would be checked"),
    ({**_PER_ROUND_ONLY, "federation": {"n_clients": 4, "rounds": 0}},
     "verify.rounds: no round of 0 is observed, and every selected check (local-descent) "
     "runs per round; nothing would be checked"),
    (_LINEAR_OVER_LIMIT,
     f"analysis.max_gram_dim: gram-floor needs a 8-dim Gram matrix; {_SHRINK}"),
    (_repeated_idx,
     "data.preprocess: global-drift needs lambda_min(H-infinity) >= sqrt(eps)*lambda_max; "
     "parallel or repeated inputs leave it near 0, and data.preprocess separates them"),
    (_RELU_OVER_LIMIT,
     f"analysis.max_gram_dim: local-descent needs the 40-dim H-infinity Gram matrix; {_SHRINK}"),
    ({**_RELU_OVER_LIMIT, "verify": {"checks": ["ntk-trace", "global-drift"]}},
     f"analysis.max_gram_dim: global-drift needs the 40-dim H-infinity Gram matrix; {_SHRINK}"),
]
_CONFIG_ERROR_CASES = [("train", *e) for e in CONFIG_ERRORS] + [
    ("verify", *e) for e in VERIFY_CONFIG_ERRORS
]


# Cases whose message was reworded keep the id they had before, so each case
# keeps its name; every other case is named by its message.
_FORMER_IDS = {
    "federation.schedule: must have one entry per round":
        "federation: participation schedule must have one entry per round",
    "federation.schedule: round 0: empty participant set":
        "federation: round 0: empty participant set",
    "federation.schedule: round 0: duplicate participant":
        "federation: round 0: duplicate participant",
    "federation.schedule: round 0: client index out of range":
        "federation: round 0: client index out of range",
    "data.partition: unknown key": "data.partition: synthetic data has no labels to split by",
    "verify.checks: expected a list of strings, got 'all'":
        "verify.checks: expected a list of check names",
    "verify.checks: expected a list of strings, got [1]":
        "verify.checks: expected a list of check names",
    "verify.rounds: expected a list of integers, got [0.5]":
        "verify.rounds: expected a list of integers",
    "verify.rounds: expected a list of integers, got [True]":
        "verify.rounds: expected a list of integers",
    "verify.rounds: expected a list of integers, got 3":
        "verify.rounds: expected a list of integers",
    "sweep.rates: expected a nonempty list of rates": "sweep.rates: expected a nonempty list",
    "sweep.rates: expected a list of numbers, got 0.5": "sweep.rates: expected a nonempty list",
    "sweep.rates: must lie in (0, 1], got 0.0": "sweep.rates: rate 0 must lie in (0, 1]",
    "sweep.rates: expected a list of numbers, got [True]":
        "sweep.rates: rate True must lie in (0, 1]",
    "sweep.rates: expected a list of numbers, got ['a']":
        "sweep.rates: rate 'a' must lie in (0, 1]",
    "sweep.seeds: expected a nonempty list of seeds": "sweep.seeds: expected a nonempty list",
    "sweep.seeds: expected a list of integers, got [1.5]": "sweep.seeds: expected integers",
    "sweep.seeds: expected a list of integers, got [False]": "sweep.seeds: expected integers",
}


@pytest.mark.parametrize(
    "command, doc, message",
    _CONFIG_ERROR_CASES,
    ids=[_FORMER_IDS.get(m, m) for *_, m in _CONFIG_ERROR_CASES],
)
def test_config_error_messages(tmp_path, capsys, command, doc, message):
    if callable(doc):
        doc = doc(tmp_path)
    path = tmp_path / "c.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    message = message.replace("{tmp}", str(tmp_path))
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_max_gram_dim_spares_checks_that_need_no_gram_matrix(tmp_path):
    # the H-infinity limit binds only local-descent and global-drift, and
    # only when a round is observed; first-order applies its Gram blocks as
    # products and builds none
    for name, doc in (
        ("deviation", {**_RELU_OVER_LIMIT, "verify": {"checks": ["ntk-trace", "local-deviation"]}}),
        ("no-rounds", {**_RELU_OVER_LIMIT, "federation": {"n_clients": 4, "rounds": 0}}),
        ("first-order", {**_LINEAR_OVER_LIMIT, "verify": {"checks": ["first-order"]}}),
    ):
        cfg = _write(tmp_path, f"{name}.json", doc)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK


@pytest.mark.parametrize("model", ["deep-linear", "two-layer-relu"])
def test_verify_without_rounds_runs_its_set_up_checks(tmp_path, model):
    # no round to observe leaves the checks that need none, and they pass
    cfg = _write(tmp_path, "c.json", {"model": {"kind": model}, "federation": {"rounds": 0}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["passed"] is True and report["checks"]
    # every per-round report names its round
    assert not any("t" in c["context"] for c in report["checks"])


def test_a_blank_image_trains_where_nothing_normalises_it(tmp_path):
    # neither the deep linear model nor a ReLU run that leaves H-infinity
    # out over analysis.max_gram_dim divides by a column's norm
    for name, doc in (
        ("linear", _blank_idx({"kind": "deep-linear", "width": 8})),
        ("relu", _blank_idx({"kind": "two-layer-relu", "width": 8}, max_gram_dim=39)),
    ):
        cfg = _write(tmp_path, f"{name}.json", doc(tmp_path))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK


def _save_pair(directory, pair) -> dict:
    """Write the IDX pair that `pair` describes into directory and return
    the data section's paths: seeded nonzero pixels, the `blank` columns
    then zeroed, and column src copied to dst for each (src, dst) of
    `repeats`."""
    (rows, cols), n = pair["shape"], len(pair["labels"])
    X = np.random.default_rng(pair["seed"]).integers(1, 256, (rows * cols, n)) / 255
    X[:, pair["blank"]] = 0.0
    for src, dst in pair["repeats"]:
        X[:, dst] = X[:, src]
    paths = {"images": str(Path(directory) / "i.idx"), "labels": str(Path(directory) / "l.idx")}
    save_idx(paths["images"], paths["labels"], X, pair["labels"], pair["shape"])
    return paths


# Six blank 4x4 images labelled 0 and 1, dealt to 2 clients: on the deep
# linear model, set-up or (over the limit) the checks that read X's
# spectrum once raised from its SVD.
_ALL_BLANK_PAIR = {
    "shape": (4, 4), "seed": 0, "labels": [0, 1] * 3, "blank": list(range(6)), "repeats": [],
}
_LINEAR_8 = {"kind": "deep-linear", "width": 8, "depth": 2}
_ALL_BLANK_RUN = {
    "model": _LINEAR_8,
    "data": {"kind": "idx", "partition": "iid"},
    "federation": {"n_clients": 2, "rounds": 2},
}
_LIMIT_1 = {"max_gram_dim": 1}
_LINEAR_OVER_THE_LIMIT = {
    "analysis": _LIMIT_1, "verify": {"checks": ["init-spectra", "global-drift"]},
}
_ALL_BLANK = "every image that the clients hold is all zeros"


@pytest.mark.parametrize("command", ["train", "verify", "sweep"])
@pytest.mark.parametrize(
    "model, extra, message",
    [
        (_LINEAR_8, {}, _ALL_BLANK),
        (_LINEAR_8, _LINEAR_OVER_THE_LIMIT, _ALL_BLANK),
        (_relu(width=8)["model"], {},
         "image 0 is all zeros; the H-infinity Gram matrix needs every image nonzero"),
        (_relu(width=8)["model"], {"analysis": _LIMIT_1, "verify": {"checks": ["ntk-trace"]}},
         _ALL_BLANK),
    ],
    ids=["linear", "linear-over-the-limit", "relu", "relu-over-the-limit"],
)
def test_all_blank_images_are_a_config_error(tmp_path, capsys, command, model, extra, message):
    # such data have no spectrum for set-up or any check to bound
    doc = _ALL_BLANK_RUN | extra | {"model": model}
    doc["data"] = doc["data"] | _save_pair(tmp_path, _ALL_BLANK_PAIR)
    cfg = _write(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: data.images: {message}\n"


def test_preprocessing_refuses_one_dimensional_inputs(tmp_path):
    # each unit column in one dimension is +-1, and a nudge renormalises it
    # to +-1 again; in a child process, so that a loop that never ends fails
    # the test on its timeout instead of hanging the suite
    doc = {
        **_relu(width=8, dim=1),
        "data": {"kind": "synthetic", "n": 3, "preprocess": True},
        "federation": {"n_clients": 1, "rounds": 1},
    }
    cfg = _write(tmp_path, "c.json", doc)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fedspectra.cli", "train", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=os.environ | {"PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == (
        "config error: data.preprocess: 3 columns in 1 dimension are parallel, "
        "and no nudge separates them\n"
    )


def test_preprocessing_separates_a_repeated_input(tmp_path):
    cfg = _write(tmp_path, "c.json", _repeated_idx(tmp_path, preprocess=True))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_schedule_must_match_round_count():
    doc = {"federation": {"schedule": [[0]], "rounds": 3, "n_clients": 2}}
    with pytest.raises(ConfigError, match="schedule"):
        parse_config(json.dumps(doc))


# ------------------------------------------------------------------- train ----


def test_train_writes_trace_artifacts(tmp_path):
    cfg = _write(tmp_path, "c.json", SMALL_LINEAR)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    out = tmp_path / "out"
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,participants,loss,ratio,rho_theory,bound_cum"
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert set(first[1].split(";")) == {"0", "1", "2"}
    assert float(first[3]) < 1.0  # contraction from round 0 at this eta
    doc = json.loads((out / "trace.json").read_text())
    assert doc["config"]["federation"]["rounds"] == 5
    assert len(doc["rows"]) == 5
    assert len(doc["losses"]) == 6  # includes the final loss
    assert (out / "loss.svg").read_text().startswith("<svg")


def test_trace_csv_reads_loss_and_ratio_off_the_loss_series(tmp_path):
    cfg = _write(tmp_path, "c.json", SMALL_LINEAR)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    losses = json.loads((out / "trace.json").read_text())["losses"]
    rows = [row.split(",") for row in (out / "trace.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(len(losses) - 1))
    for t, row in enumerate(rows):  # both files keep 17 digits, so exact
        assert float(row[2]) == losses[t]
        assert float(row[3]) == losses[t + 1] / losses[t]


def test_train_rho_theory_is_the_contraction_factor_of_each_round(tmp_path):
    doc = json.loads(json.dumps(SMALL_LINEAR))
    schedule = [[0], [0, 1, 2], [1, 3], [0, 1, 2, 3], [2]]
    doc["federation"] |= {"n_clients": 4, "schedule": schedule}
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    lam = json.loads((tmp_path / "out" / "trace.json").read_text())["lambda_min"]
    assert lam > 0.0
    rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
    fed = doc["federation"]
    for row, members in zip(rows, schedule, strict=True):
        rho = float(row.split(",")[4])
        assert rho == pytest.approx(
            1.0 - fed["eta"] * len(members) * lam * fed["local_steps"] / (2.0 * 4**2)
        )


def test_train_says_why_it_writes_no_bound(tmp_path, capsys):
    # one client taking 20 steps at eta 0.1 trains to 4e-13, but the bound's
    # contraction factor is about -0.3
    doc = json.loads(json.dumps(SMALL_LINEAR))
    doc["federation"] |= {"n_clients": 1, "local_steps": 20, "eta": 0.1}
    cfg = _write(tmp_path, "c.json", doc)
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("train: bound_cum not written: contraction factor -0.")
    assert err.endswith(" is not in (0, 1]: eta too large for the bound\n")
    rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",nan") for row in rows)


def test_train_zero_rounds_leaves_header_only(tmp_path):
    doc = json.loads(json.dumps(SMALL_LINEAR))
    doc["federation"]["rounds"] = 0
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "trace.csv").read_text().splitlines() == [
        "t,participants,loss,ratio,rho_theory,bound_cum"
    ]


def _train_on_cores(tmp_path, cfg, usable_cores, counts):
    """trace.csv of one train run of cfg per entry of counts, each seeing
    that many usable cores (None: the host's)."""
    outs = []
    for i, cores in enumerate(counts):
        if cores is not None:
            usable_cores(cores)
        out = tmp_path / f"run{i}"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        outs.append((out / "trace.csv").read_bytes())
    return outs


def test_train_trace_is_byte_identical_across_runs_and_workers(
    tmp_path, one_blas_thread, usable_cores
):
    cfg = _write(tmp_path, "c.json", SMALL_LINEAR)
    outs = _train_on_cores(tmp_path, cfg, usable_cores, (None, 1, 1, 4))
    assert outs[0] == outs[1] == outs[2] == outs[3]


def test_an_uneven_non_iid_run_is_byte_identical_on_one_two_and_four_cores(
    tmp_path, one_blas_thread, usable_cores
):
    # 800 28x28 images split by class over 8 clients of 67 to 130 samples:
    # on more than one core the rounds run side by side in a window of two
    # clients per thread, and trace.csv is the serial loop's byte for byte
    rng = np.random.default_rng(1)
    save_idx(tmp_path / "i.idx", tmp_path / "l.idx", rng.integers(0, 256, (784, 800)) / 255,
             rng.integers(0, 10, 800), (28, 28))
    doc = {
        "model": {"kind": "two-layer-relu", "width": 128},
        **_idx(images=str(tmp_path / "i.idx"), labels=str(tmp_path / "l.idx"),
               partition="noniid", classes_per_client=3, preprocess=True),
        "federation": {"n_clients": 8, "rounds": 3, "seed": 0},
    }
    cfg = parse_config(json.dumps(doc))
    exp = cli.build_experiment(cfg)
    costs = [exp.init_params.client_cost(b, cfg.federation.local_steps) for b in exp.batches]
    assert min(costs) >= federation.SIDE_BY_SIDE_COST and max(costs) // min(costs) == 2
    outs = _train_on_cores(tmp_path, _write(tmp_path, "c.json", doc), usable_cores, (1, 2, 4))
    assert outs[0] == outs[1] == outs[2]


def test_relu_clients_below_dim_run_deterministic_and_pass_verify(
    tmp_path, one_blas_thread, usable_cores
):
    # 8x8 images: every client holds fewer samples than the 64 inputs, one
    # class holds 4 of the 60 images, and two clients are left empty
    rng = np.random.default_rng(0)
    labels = np.where(np.arange(60) < 56, np.arange(60) % 2, 2)
    save_idx(tmp_path / "i.idx", tmp_path / "l.idx", rng.integers(1, 256, (64, 60)) / 255,
             labels, (8, 8))
    doc = {
        "model": {"kind": "two-layer-relu", "width": 256},
        **_idx(images=str(tmp_path / "i.idx"), labels=str(tmp_path / "l.idx"),
               partition="noniid", classes_per_client=1, preprocess=True),
        "federation": {"n_clients": 8, "rounds": 6, "local_steps": 3, "eta": 0.1, "seed": 0},
    }
    cfg = parse_config(json.dumps(doc))
    exp = cli.build_experiment(cfg)
    sizes = [b.n for b in exp.batches]
    assert 0 in sizes and max(sizes) < 64
    assert all(_descends_in_sample_space(256, 64, n, 3) for n in sizes)
    path = _write(tmp_path, "c.json", doc)
    outs = _train_on_cores(tmp_path, path, usable_cores, (None, 4, 1, 1))
    assert outs[0] == outs[1] == outs[2] == outs[3]
    # every ReLU check passes, and verify's trace is train's
    assert main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == EXIT_OK
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert report["passed"] and {c["name"] for c in report["checks"]} >= {
        "ntk-trace", "local-descent", "local-deviation", "global-drift"
    }
    assert (tmp_path / "v" / "trace.csv").read_bytes() == outs[0]
    # the params handed to an observer outlive the run unchanged, and the
    # round descended again from them has the losses the run recorded
    seen = []
    run_fedavg(cfg.federation, exp.init_params, list(exp.batches),
               observer=lambda s: seen.append((s, s.global_params.hidden.copy(),
                                               s.averaged.hidden.copy())))
    assert seen
    for snap, start, averaged in seen:
        assert np.array_equal(snap.global_params.hidden, start)
        assert np.array_equal(snap.averaged.hidden, averaged)
        own = [exp.batches[c] for c in snap.members]
        runs, average = federation.local_round(
            snap.global_params, own, cfg.federation.eta, cfg.federation.local_steps,
            keep=lambda i, k, q: loss_of(q, own[i]),
        )
        assert np.array_equal(average().hidden, averaged)
        for (recomputed, losses), recorded in zip(runs, snap.local_losses, strict=True):
            assert len(recomputed) == cfg.federation.local_steps + 1
            assert losses == list(recorded)
            np.testing.assert_allclose(recomputed, losses, rtol=1e-12, atol=0)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="CPU affinity cannot be set")
def test_train_trace_agrees_across_blas_thread_counts(tmp_path):
    # BLAS may split a product's sums differently with more threads, so the
    # bytes can differ in the last bits; every number agrees to 1e-12 relative.
    # On one core the clients descend serially at every BLAS thread; on the
    # host's cores rounds of several clients descend with BLAS held to one
    cfg = _write(tmp_path, "c.json", {"federation": {"rounds": 10}})
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    host = os.sched_getaffinity(0)
    single = {min(host)}
    traces = []
    for threads, cores in (("1", single), ("2", single), ("1", host), ("2", host)):
        out = tmp_path / f"{threads}-{len(traces)}"
        args = ["train", "--config", cfg, "--out", str(out)]
        os.sched_setaffinity(0, cores)  # the child runs on the cores of this thread
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fedspectra.cli", *args],
                env=os.environ | {"PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
                timeout=600,
            )
        finally:
            os.sched_setaffinity(0, host)
        assert proc.returncode == 0, proc.stderr
        traces.append([row.split(",") for row in (out / "trace.csv").read_text().splitlines()])
    one = traces[0]
    assert len(one) == 11 and traces[2] == one  # at one BLAS thread, byte for byte
    for other in traces[1:]:
        assert [r[:2] for r in other] == [r[:2] for r in one]  # header, t and participants
    values = np.array([[[float(v) for v in r[2:]] for r in t[1:]] for t in traces])
    assert np.all(np.isfinite(values))  # loss, ratio, rho_theory, bound_cum
    for other in values[1:]:
        np.testing.assert_allclose(other, values[0], rtol=1e-12, atol=0)


def test_train_trace_ignores_the_order_of_schedule_entries(tmp_path):
    outs = []
    for name, entry in (("written", [2, 0, 1]), ("sorted", [0, 1, 2])):
        doc = json.loads(json.dumps(SMALL_LINEAR))
        doc["federation"] |= {"schedule": [entry, [1, 0]] * 2, "rounds": 4}
        cfg = _write(tmp_path, f"{name}.json", doc)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        outs.append((tmp_path / name / "trace.csv").read_bytes())
    assert outs[0] == outs[1]
    assert b",0;1;2," in outs[0] and b",0;1," in outs[0]


def test_train_seed_changes_participants_not_format(tmp_path):
    doc = json.loads(json.dumps(SMALL_LINEAR))
    doc["federation"]["rate"] = 0.5
    for seed, name in ((0, "s0"), (7, "s7")):
        doc["federation"]["seed"] = seed
        cfg = _write(tmp_path, f"{name}.json", doc)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
    a = (tmp_path / "s0" / "trace.csv").read_text()
    b = (tmp_path / "s7" / "trace.csv").read_text()
    assert a != b
    assert a.splitlines()[0] == b.splitlines()[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_2(tmp_path):
    doc = json.loads(json.dumps(SMALL_LINEAR))
    doc["federation"]["eta"] = 5.0
    doc["federation"]["rounds"] = 50
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DIVERGED


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_divergence_in_the_run_exits_2_and_writes_nothing(tmp_path, capsys):
    # every round observed: the run's own divergence is reported before any
    # check measures the round, whose non-finite iterates no SVD converges on
    doc = json.loads(json.dumps(SMALL_LINEAR))
    doc["federation"].update(eta=5.0, rounds=50)
    doc["verify"] = {"rounds": list(range(50))}
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err == "divergence: round 2, client 0: non-finite local loss inf at local step 2\n"
    assert list(out.iterdir()) == []


def test_missing_config_file_exits_3(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_undecodable_config_and_unusable_out_exit_3(tmp_path, capsys):
    # exit 1 means "checks failed", so neither may end in a traceback
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes('{"data": {"images": "\xe9"}}'.encode("latin-1"))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {cfg}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1
    blocker = tmp_path / "file"
    blocker.write_text("")
    good = _write(tmp_path, "c.json", SMALL_LINEAR)
    for out in (blocker, blocker / "sub"):
        for command in ("train", "sweep", "verify"):
            assert main([command, "--config", good, "--out", str(out)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"config error: cannot create {out}: ")
            assert err.count("\n") == 1


def test_bad_config_exits_3(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["train", "--config", str(p), "--out", str(tmp_path)]) == EXIT_CONFIG
    q = _write(tmp_path, "unknown.json", {"model": {"bogus": 1}})
    assert main(["train", "--config", q, "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--rounds", "5"],  # the run-setting flags are gone: set them in the config
        ["train", "--seed", "1"],
        ["sweep", "--rate", "0.5"],
        ["train", "--bogus"],
        ["evaluate"],
    ],
    ids=" ".join,
)
def test_usage_errors_exit_3(tmp_path, capsys, args):
    cfg = _write(tmp_path, "c.json", SMALL_LINEAR)
    command, *extra = args
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *extra]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_flag_exits_3_and_help_exits_0(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "the following arguments are required: --config" in capsys.readouterr().err
    assert main(["verify", "--help"]) == EXIT_OK
    assert "--config" in capsys.readouterr().out


# ------------------------------------------------------------------- sweep ----


def test_sweep_grid_summary_envelope(tmp_path):
    doc = json.loads(json.dumps(SMALL_LINEAR))
    doc["federation"]["n_clients"] = 4
    doc["sweep"] = {"rates": [0.5, 1.0], "seeds": [0, 1]}
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "rate,t,mean_loss,min_loss,max_loss"
    rates = set()
    for line in lines[1:]:
        rate, t, mean, lo, hi = line.split(",")
        rates.add(rate)
        assert float(lo) <= float(mean) <= float(hi)
    assert len(rates) == 2
    assert (out / "sweep.svg").exists()


def test_sweep_single_cell_matches_train(tmp_path):
    cfg = _write(tmp_path, "c.json", {**SMALL_LINEAR, "sweep": {"rates": [1.0], "seeds": [0]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == EXIT_OK
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "tr")]) == EXIT_OK
    train_losses = [
        float(line.split(",")[2])
        for line in (tmp_path / "tr" / "trace.csv").read_text().splitlines()[1:]
    ]
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1:]
    sweep_losses = [float(r.split(",")[2]) for r in rows][: len(train_losses)]
    np.testing.assert_array_equal(sweep_losses, train_losses)


def _sweep_by_train_cells(tmp_path, doc, rates, seeds) -> str:
    """The sweep.csv text of doc's grid, from one train job per cell."""
    expected = ["rate,t,mean_loss,min_loss,max_loss"]
    for rate in rates:
        runs = []
        for seed in seeds:
            fed = {**doc["federation"], "rate": rate, "seed": seed}
            cell = _write(tmp_path, "cell.json", {**doc, "federation": fed})
            out = tmp_path / f"tr-{rate}-{seed}"
            assert main(["train", "--config", cell, "--out", str(out)]) == EXIT_OK
            runs.append(json.loads((out / "trace.json").read_text())["losses"])
        runs = np.array(runs)
        for t, row in enumerate(zip(runs.mean(axis=0), runs.min(axis=0), runs.max(axis=0))):
            expected.append(",".join([cli._g17(rate), str(t), *map(cli._g17, row)]))
    return "\n".join(expected) + "\n"


def test_sweep_builds_each_seed_once_and_matches_per_cell_train(tmp_path, monkeypatch):
    # set-up depends on the seed alone, so the rates share it
    seeds = []

    def counting(cfg, *data, _build=cli.build_experiment):
        seeds.append(cfg.federation.seed)
        return _build(cfg, *data)

    monkeypatch.setattr(cli, "build_experiment", counting)
    rates = [0.34, 0.67, 1.0]
    cfg = _write(tmp_path, "c.json", {**SMALL_LINEAR, "sweep": {"rates": rates, "seeds": [0, 1]}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == EXIT_OK
    assert seeds == [0, 1]

    # the same grid as one train job per cell, each with its own set-up
    monkeypatch.undo()
    expected = _sweep_by_train_cells(tmp_path, SMALL_LINEAR, rates, (0, 1))
    assert (tmp_path / "sw" / "sweep.csv").read_text() == expected


def test_an_idx_sweep_reads_and_preprocesses_its_data_once(tmp_path, monkeypatch, capsys):
    # neither step depends on the seed; the label split and the weights do
    rng = np.random.default_rng(0)
    X, labels = rng.integers(1, 256, (64, 40)) / 255, rng.integers(0, 4, 40)
    save_idx(tmp_path / "i.idx", tmp_path / "l.idx", X, labels, (8, 8))
    doc = {
        "model": {"kind": "deep-linear", "width": 16, "depth": 2},
        **_idx(images=str(tmp_path / "i.idx"), labels=str(tmp_path / "l.idx"),
               classes_per_client=2, preprocess=True),
        "federation": {"n_clients": 4, "local_steps": 2, "rounds": 3, "eta": 0.01},
    }
    calls = []
    for name in ("load_idx", "preprocess_unit_norm"):

        def counting(*args, _fn=getattr(cli, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(cli, name, counting)
    rates, seeds = [0.5, 1.0], [0, 1, 2]
    cfg = _write(tmp_path, "c.json", {**doc, "sweep": {"rates": rates, "seeds": seeds}})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == EXIT_OK
    assert calls == ["load_idx", "preprocess_unit_norm"]
    assert capsys.readouterr().out == "sweep: 6 cells completed, 0 failed\n"

    monkeypatch.undo()
    expected = _sweep_by_train_cells(tmp_path, doc, rates, seeds)
    assert (tmp_path / "sw" / "sweep.csv").read_text() == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_reports_each_diverged_cell_and_skips_a_rate_that_completed_none(tmp_path, capsys):
    doc = {
        **SMALL_LINEAR,
        "federation": {**SMALL_LINEAR["federation"], "eta": 1e6},
        "sweep": {"rates": [0.5, 1.0], "seeds": [0]},
    }
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr()
    failed = [line.split(" diverged: ")[0] for line in printed.err.splitlines()]
    assert failed == ["sweep: rate=0.5 seed=0", "sweep: rate=1.0 seed=0"]
    assert printed.out == "sweep: 0 cells completed, 2 failed\n"
    assert (out / "sweep.csv").read_text() == "rate,t,mean_loss,min_loss,max_loss\n"


def test_a_plot_without_a_positive_finite_point_says_no_data(tmp_path):
    points = [(0, 0.0), (1, -1.0), (2, float("nan")), (float("inf"), 1.0)]
    path = tmp_path / "p.svg"
    cli._svg_plot(path, [("loss", points)], title="t", x_label="round", y_label="loss")
    svg = path.read_text()
    assert ">no data</text>" in svg
    assert "<polyline" not in svg and ">round</text>" not in svg


# ------------------------------------------------------------------ verify ----


WIDE_LINEAR = {
    "model": {"kind": "deep-linear", "depth": 3, "width": 1000, "d_in": 10, "d_out": 5},
    "data": {"kind": "synthetic", "n": 32},
    "federation": {"n_clients": 4, "local_steps": 3, "rounds": 4, "eta": 2e-05, "seed": 1},
    "verify": {"rounds": [0, 2]},
}


def _verify_on_cores(tmp_path, monkeypatch, usable_cores, capsys, doc) -> list:
    """(verify.json bytes, printed lines) of `verify` on doc on the host's
    usable cores and on 1, 2 and 4 (a host with one of those runs it once),
    having checked that the checks ran side by side off the calling thread
    on more than one core, and serially on it on one."""
    threads, scheduler = set(), federation.scheduler

    @contextlib.contextmanager
    def spy():
        with scheduler() as (submit, descend):
            yield lambda call: submit(lambda: threads.add(threading.get_ident()) or call()), descend

    monkeypatch.setattr(verify, "scheduler", spy)
    cfg = _write(tmp_path, "c.json", doc)
    outs = []
    counts = [1, 2, 4] if federation._usable_cores() in (1, 2, 4) else [None, 1, 2, 4]
    for cores in counts:
        if cores is not None:
            usable_cores(cores)
        threads.clear()
        out = tmp_path / f"cores-{cores}"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        outs.append(((out / "verify.json").read_bytes(), capsys.readouterr().out))
        serial = blas_threads() is None or (cores or federation._usable_cores()) == 1
        assert (threads == {threading.get_ident()}) is serial
    return outs


def test_verify_all_checks_pass_on_wide_linear_model(
    tmp_path, capsys, monkeypatch, one_blas_thread, usable_cores
):
    # at one BLAS thread, whether the checks run side by side or serially,
    # verify.json is the same byte for byte
    outs = _verify_on_cores(tmp_path, monkeypatch, usable_cores, capsys, WIDE_LINEAR)
    assert len({text for text, _ in outs}) == 1
    report = json.loads(outs[0][0])
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert any(n.startswith("init-suffix") for n in names)
    assert "gram-floor" in names
    assert "first-order:relative-error" in names
    assert all(printed.count("PASS") == len(names) for _, printed in outs)


def test_verify_json_is_byte_identical_across_usable_cores_on_a_relu_model(
    tmp_path, capsys, monkeypatch, one_blas_thread, usable_cores
):
    doc = {
        "model": {"kind": "two-layer-relu", "width": 256, "dim": 6},
        "data": {"kind": "synthetic", "n": 24},
        "federation": {"n_clients": 3, "local_steps": 2, "rounds": 3, "eta": 0.05, "seed": 0},
    }
    outs = _verify_on_cores(tmp_path, monkeypatch, usable_cores, capsys, doc)
    assert len({text for text, _ in outs}) == 1
    names = {c["name"] for c in json.loads(outs[0][0])["checks"]}
    assert names == set(verify.known_checks("two-layer-relu")) | {"local-deviation-crude"}


def test_verify_json_keeps_the_worst_report_per_name_and_round(tmp_path):
    # at the host's BLAS thread count: the expected reports measure each
    # round descended again as verify does, whose schedulers hold BLAS as
    # its own do, from first-order terms of the round's start built in this
    # thread, as run_checks builds them; so both are the same bits
    cfg = _write(tmp_path, "c.json", WIDE_LINEAR)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    entries = json.loads((out / "verify.json").read_text())["checks"]

    parsed = parse_config(json.dumps(WIDE_LINEAR))
    ctx = cli.build_experiment(parsed)
    seen = []
    run_fedavg(parsed.federation, ctx.init_params, list(ctx.batches), observer=seen.append)
    snapshots = [snap for snap in seen if snap.t in (0, 2)]
    expected, candidates = [], 0
    for snap in snapshots:
        rnd = verify.ObservedRound(ctx, snap)
        rnd.first_order_start
        for check, row in verify.CHECKS.items():
            if row.per_round and "deep-linear" in row.kinds:
                if row.measure is None:
                    reports = row.check(ctx, snap)
                else:  # the measure of each iterate of the round descended again
                    measured = verify.redescend(rnd, [(check, row.measure)], local_round)[check]
                    probed = ()
                    if check == "first-order":
                        probed = (verify.half_rate_probe(rnd, local_round),)
                    reports = row.check(rnd, measured, *probed)
                candidates += len(reports)
                for name in dict.fromkeys(r.name for r in reports):
                    same = [r for r in reports if r.name == name]
                    expected.append(max(same, key=lambda r: r.slack))
    # per round: 4 clients for local-descent, 3 steps for local-deviation, one
    # global-drift, 4 x 3 for local-drift and the two first-order reports
    assert (candidates, len(expected)) == (2 * 22, 2 * 6)
    setup, per_round = entries[: -len(expected)], entries[-len(expected) :]
    assert [e["name"] for e in setup][-1] == "gram-floor"
    assert per_round == [json.loads(json.dumps(cli._report_dict(r))) for r in expected]


def test_verify_exits_4_when_an_observed_round_is_not_reproduced(tmp_path, monkeypatch, capsys):
    # a snapshot one ulp off the round that the run took: descended again,
    # the round does not reproduce it, so verify checks nothing, writes no
    # verify.json and says which round, under an exit code of its own
    run = cli.run_fedavg

    def nudged(*args, observer, **kwargs):
        def observe(snap):
            (first, *rest), *others = snap.local_losses
            off = ((np.nextafter(first, np.inf), *rest), *others)
            observer(dataclasses.replace(snap, local_losses=off))

        return run(*args, observer=observe, **kwargs)

    monkeypatch.setattr(cli, "run_fedavg", nudged)
    cfg = _write(tmp_path, "c.json", SMALL_LINEAR)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_NOT_REPRODUCED
    assert "not reproduced: round 0: " in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_verify_takes_one_svd_of_the_data_and_of_each_client(tmp_path, monkeypatch):
    # after set-up, every check reads X's nonzero spectrum and each X_c's
    # from RunContext, over however many rounds it observes, and gram-floor
    # reads the eigenvalue that set-up took, so only set-up decomposed X
    # with its left singular vectors
    build, svd = cli.build_experiment, np.linalg.svd
    # np.linalg.norm calls the svd of the module that defines it
    defining = sys.modules[inspect.unwrap(np.linalg.norm).__globals__["__name__"]]
    calls, contexts = [], []

    def counted(M, *args, **kwargs):
        calls.append((np.array(M), kwargs.get("compute_uv", True)))
        return svd(M, *args, **kwargs)

    def set_up(*args):
        contexts.append(build(*args))
        for module in (np.linalg, defining):
            monkeypatch.setattr(module, "svd", counted)
        return contexts[-1]

    monkeypatch.setattr(cli, "build_experiment", set_up)
    doc = {**SMALL_LINEAR, "verify": {"rounds": [1, 3]}}
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    (ctx,) = contexts

    def taken(A):
        return [uv for M, uv in calls if M.shape == A.shape and np.array_equal(M, A)]

    assert taken(ctx.X) == [False]
    assert [taken(b.X) for b in ctx.batches] == [[False]] * 3


@pytest.mark.parametrize(
    "command, doc",
    [
        pytest.param("train", SMALL_LINEAR, id="train"),
        pytest.param("verify", SMALL_LINEAR, id="verify"),
        pytest.param(
            "verify", {**SMALL_LINEAR, "verify": {"checks": ["init-spectra"]}},
            id="verify-setup-only",
        ),
    ],
)
def test_commands_call_the_benchmark_patch_points_once(tmp_path, monkeypatch, command, doc):
    # perfbench/child.py times set-up and training by replacing these two
    # names in the cli module, so both commands must call them through it;
    # verify trains even when it checks no round
    calls = {"build_experiment": 0, "run_fedavg": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    cfg = _write(tmp_path, "c.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert calls == {"build_experiment": 1, "run_fedavg": 1}


def test_each_command_writes_its_files(tmp_path):
    cfg = _write(tmp_path, "c.json", {**SMALL_LINEAR, "sweep": {"rates": [1.0], "seeds": [0]}})
    trace = {"trace.csv", "trace.json", "loss.svg"}
    for command, files in (
        ("train", trace),
        ("verify", trace | {"verify.json"}),
        ("sweep", {"sweep.csv", "sweep.svg"}),
    ):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert {p.name for p in out.iterdir()} == files


@pytest.mark.parametrize("doc", [SMALL_LINEAR, RELU_SCHEDULED], ids=["linear", "relu"])
def test_verify_writes_the_trace_files_of_train(tmp_path, doc):
    cfg = _write(tmp_path, "c.json", doc)
    for command in ("train", "verify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == EXIT_OK
    for name in ("trace.csv", "trace.json", "loss.svg"):
        assert (tmp_path / "verify" / name).read_bytes() == (tmp_path / "train" / name).read_bytes()


@pytest.mark.skipif(blas_threads() is None, reason="numpy's BLAS thread count cannot be set")
@pytest.mark.parametrize("cores", [1, 2])
def test_verify_probes_at_the_blas_thread_count_of_its_rounds(
    tmp_path, monkeypatch, usable_cores, cores
):
    # each observed round's re-descent and the first-order check's eta/2
    # probe descend as the run's rounds did: on one usable core every
    # descent, run, re-descent and probe, sees 2 BLAS threads; on two,
    # rounds of several clients hold BLAS to one
    get, put = blas_threads()
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS will not run two threads here")
        usable_cores(cores)
        seen, descend_round = [], DeepLinearParams.descend_round

        def spy(self, *args, **kwargs):
            seen.append(get())
            return descend_round(self, *args, **kwargs)

        monkeypatch.setattr(DeepLinearParams, "descend_round", spy)
        cfg = _write(tmp_path, "c.json", SMALL_LINEAR)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_OK
        report = json.loads((tmp_path / "v" / "verify.json").read_text())
        probes = sum(c["name"] == "first-order:halving" for c in report["checks"])
        # one re-descent and one probe per observed round
        assert probes and len(seen) == SMALL_LINEAR["federation"]["rounds"] + 2 * probes
        assert set(seen) == {2 if cores == 1 else 1}
    finally:
        put(before)


def test_train_context_does_not_hold_the_stacked_data(tmp_path, monkeypatch):
    # a cached X would keep a second copy of the data alive through training
    contexts = []

    def keep(cfg, _build=cli.build_experiment):
        contexts.append(_build(cfg))
        return contexts[-1]

    monkeypatch.setattr(cli, "build_experiment", keep)
    for name, doc in (("linear", SMALL_LINEAR), ("relu", RELU_SCHEDULED)):
        cfg = _write(tmp_path, f"{name}.json", doc)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        assert isinstance(contexts[-1], verify.RunContext)
        assert contexts[-1].lambda_min is not None
        assert "X" not in vars(contexts[-1])


def test_verify_detects_violated_width_bound(tmp_path):
    doc = {
        "model": {"kind": "deep-linear", "depth": 3, "width": 48, "d_in": 10, "d_out": 5},
        "data": {"kind": "synthetic", "n": 32},
        "federation": {"n_clients": 4, "local_steps": 2, "rounds": 2, "eta": 1e-05},
        "verify": {"checks": ["init-spectra"]},
    }
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERIFY_FAILED
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is False
    assert any(not c["passed"] for c in report["checks"])


def test_verify_reports_a_width_below_the_data_rank_as_a_failed_floor(tmp_path, capsys):
    # W1 X has rank <= width 8 < rank(X) = 10: its 10th singular value is 0
    doc = {
        "model": {"kind": "deep-linear", "depth": 3, "width": 8, "d_in": 10, "d_out": 5},
        "data": {"kind": "synthetic", "n": 32},
        "federation": {"n_clients": 4, "local_steps": 3, "rounds": 6, "eta": 0.02},
    }
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERIFY_FAILED
    checks = {c["name"]: c for c in json.loads((out / "verify.json").read_text())["checks"]}
    for j in (1, 2):
        floor = checks[f"init-prefix-data-sigma-min:{j}"]
        assert floor["passed"] is False
        assert floor["bound"] == floor["context"]["observed_sigma_min"] == 0.0
        assert floor["context"]["data_rank"] == 10
    assert "FAIL init-prefix-data-sigma-min:1" in capsys.readouterr().out


DEPTH_ONE = {
    "model": {"kind": "deep-linear", "depth": 1, "width": 8, "d_in": 10, "d_out": 5},
    "data": {"kind": "synthetic", "n": 32},
    "federation": {"n_clients": 4, "local_steps": 3, "rounds": 4, "eta": 0.01, "seed": 0},
}


@pytest.mark.parametrize(
    "doc",
    [pytest.param(DEPTH_ONE, id="d_in-10")]
    + [
        pytest.param(
            {
                "model": {"kind": "deep-linear", "depth": 1, "width": 8, "d_in": 1, "d_out": 1},
                "data": {"kind": "synthetic", "n": n},
                "federation": {"n_clients": 2, "local_steps": 1, "rounds": 2, "eta": 0.25},
            },
            id=f"d_in-1-n-{n}",
        )
        for n in (2, 4, 8)
    ],
)
def test_verify_passes_the_halving_form_vacuously_at_depth_one(tmp_path, monkeypatch, doc):
    # a depth-1 net is linear in its weights: the first-order prediction is
    # exact, so halving eta would divide one rounding error by another (or
    # by zero); the eta/2 probe is skipped and its form passes vacuously
    rounds, descend_round = [], DeepLinearParams.descend_round

    def counted(self, *args, **kwargs):
        rounds.append(None)
        return descend_round(self, *args, **kwargs)

    monkeypatch.setattr(DeepLinearParams, "descend_round", counted)
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    checks = json.loads((out / "verify.json").read_text())["checks"]
    errors = [c for c in checks if c["name"] == "first-order:relative-error"]
    vacuous = [c for c in checks if c["name"] == "first-order:halving-vacuous"]
    assert errors and all(c["passed"] and c["measured"] <= 1e-12 for c in errors)
    assert len(vacuous) == len(errors) and all("depth 1" in c["context"]["reason"] for c in vacuous)
    assert not any(c["name"] == "first-order:halving" for c in checks)
    # each observed round descends once more for its measures; no eta/2 probe trains
    assert len(rounds) == doc["federation"]["rounds"] + len(errors)


# Round-robin deals clients 0 and 1 one sample each and the other six none;
# observed round 3 draws clients 3 and 7, so neither first-order probe moves
ZERO_ERROR_PROBE = {
    "model": {"kind": "deep-linear", "width": 8, "depth": 3, "d_in": 2, "d_out": 1},
    "data": {"kind": "synthetic", "n": 2},
    "federation": {
        "n_clients": 8, "local_steps": 3, "rounds": 4, "eta": 0.01, "rate": 0.2, "seed": 4,
    },
}


def test_verify_passes_the_halving_form_vacuously_when_the_half_rate_error_is_zero(tmp_path):
    cfg = _write(tmp_path, "c.json", ZERO_ERROR_PROBE)
    out = tmp_path / "out"
    # width 8 is too narrow for the init-spectra windows, and only for them
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERIFY_FAILED
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert {c["name"].split(":")[0] for c in checks if not c["passed"]} == {
        "init-suffix-sigma-min", "init-prefix-data-sigma-min"
    }
    by_round = {}
    for c in checks:
        if "t" in c["context"]:
            by_round.setdefault(c["context"]["t"], []).append(c["name"])
    each = [
        "local-descent", "local-deviation", "global-drift", "local-drift",
        "first-order:relative-error",
    ]
    assert by_round == {
        0: each + ["first-order:halving"],
        2: each + ["first-order:halving"],
        3: each + ["first-order:halving-vacuous"],
    }
    (vacuous,) = [c for c in checks if c["name"] == "first-order:halving-vacuous"]
    assert vacuous["context"] == {
        "t": 3, "reason": "the eta/2 probe's prediction error is 0: no remainder to halve"
    }


def test_verify_observes_its_rounds_past_the_stop_loss_fraction(tmp_path):
    # train stops after one round here; verify still checks round 30
    doc = {
        "model": {"kind": "two-layer-relu", "width": 64, "dim": 6},
        "data": {"kind": "synthetic", "n": 20},
        "federation": {"n_clients": 4, "rounds": 31, "eta": 0.05, "stop_loss_fraction": 0.9999},
        "verify": {"rounds": [30]},
    }
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "tr")]) == EXIT_OK
    assert len((tmp_path / "tr" / "trace.csv").read_text().splitlines()) == 1 + 1
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_OK
    checks = json.loads((tmp_path / "v" / "verify.json").read_text())["checks"]
    per_round = [c for c in checks if "t" in c["context"]]
    assert per_round and all(c["context"]["t"] == 30 for c in per_round)
    # and its trace holds every round that it trained, under the setting it ran with
    assert len((tmp_path / "v" / "trace.csv").read_text().splitlines()) == 1 + 31
    # (the canonical config leaves an unset key out)
    header = {d: json.loads((tmp_path / d / "trace.json").read_text())["config"] for d in ("tr", "v")}
    assert header["tr"]["federation"]["stop_loss_fraction"] == 0.9999
    assert "stop_loss_fraction" not in header["v"]["federation"]
    verify_header = json.loads((tmp_path / "v" / "verify.json").read_text())["config"]
    assert verify_header["federation"] == header["v"]["federation"]


def test_verify_two_layer_trace_and_descent(tmp_path):
    doc = {
        "model": {"kind": "two-layer-relu", "width": 256, "dim": 6},
        "data": {"kind": "synthetic", "n": 24},
        "federation": {"n_clients": 3, "local_steps": 2, "rounds": 3, "eta": 0.05, "seed": 0},
        "verify": {"checks": ["ntk-trace", "local-deviation", "global-drift"]},
    }
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "verify.json").read_text())
    assert report["lambda_min"] is not None and report["lambda_min"] > 0.0
    names = {c["name"] for c in report["checks"]}
    assert "ntk-trace" in names and "local-deviation-crude" in names


# ----------------------------------------------------------------- idx data ----


def test_idx_pipeline_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    n, rows, cols = 12, 3, 3
    X = rng.uniform(0.1, 1.0, size=(rows * cols, n))
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
    save_idx(tmp_path / "imgs.idx", tmp_path / "labs.idx", X, labels, (rows, cols))
    doc = {
        "model": {"kind": "two-layer-relu", "width": 64},
        "data": {
            "kind": "idx",
            "images": str(tmp_path / "imgs.idx"),
            "labels": str(tmp_path / "labs.idx"),
            "classes_per_client": 2,
            "preprocess": True,
        },
        "federation": {"n_clients": 2, "local_steps": 2, "rounds": 3, "eta": 0.01, "seed": 0},
    }
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    doc2 = json.loads((out / "trace.json").read_text())
    assert len(doc2["rows"]) == 3
    losses = [r["loss"] for r in doc2["rows"]]
    assert all(np.isfinite(losses))


def test_data_subset_keeps_the_first_images(tmp_path):
    full, kept = (
        cli._load_dataset(parse_config(json.dumps(doc(tmp_path))))
        for doc in (_blank_idx({"kind": "deep-linear", "width": 8}), _blank_idx_subset(10))
    )
    assert kept.X.tobytes() == full.X[:, :10].tobytes()
    assert kept.Y.tobytes() == full.Y[:, :10].tobytes()
    assert kept.labels.tolist() == full.labels[:10].tolist()


def test_verify_local_drift_passes_clients_without_samples(tmp_path):
    # one class per client over three classes leaves clients 5 and 7 empty
    rng = np.random.default_rng(0)
    save_idx(tmp_path / "i.idx", tmp_path / "l.idx", rng.integers(1, 256, (16, 12)) / 255,
             np.arange(12) % 3, (4, 4))
    doc = {
        "model": {"kind": "deep-linear", "width": 16, "depth": 2},
        **_idx(images=str(tmp_path / "i.idx"), labels=str(tmp_path / "l.idx"),
               partition="noniid", classes_per_client=1),
        "federation": {"n_clients": 8, "rounds": 2, "eta": 0.01, "local_steps": 2},
        "verify": {"checks": ["local-drift"]},
    }
    exp = cli.build_experiment(parse_config(json.dumps(doc)))
    assert [c for c, b in enumerate(exp.batches) if b.n == 0] == [5, 7]
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert [c["name"] for c in checks] == ["local-drift"] * 2


# ------------------------------------------------------------- config fuzz ----


def _draw_federation(draw) -> dict:
    """<= 8 clients, <= 4 rounds and eta from 1e-4 to 1e3, some with a
    schedule or a stop fraction."""
    n_clients, rounds = draw(st.integers(1, 8)), draw(st.integers(0, 4))
    federation = {
        "n_clients": n_clients,
        "local_steps": draw(st.integers(1, 3)),
        "rounds": rounds,
        "eta": 10.0 ** draw(st.floats(-4.0, 3.0)),
        "seed": draw(st.integers(0, 2**16)),
    }
    if draw(st.booleans()):
        members = st.lists(st.integers(0, n_clients - 1), min_size=1, unique=True)
        federation["schedule"] = [draw(members) for _ in range(rounds)]
    else:
        federation["rate"] = draw(st.floats(0.0, 1.0, exclude_min=True))
    if draw(st.booleans()):
        federation["stop_loss_fraction"] = draw(st.floats(1e-3, 1.0))
    return federation


def _draw_run(draw, doc) -> tuple:
    """The command, and doc with a sweep grid, some with a small
    max_gram_dim or verify.checks/verify.rounds subsets."""
    rounds = doc["federation"]["rounds"]
    seeds = st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True)
    doc |= {"sweep": {"rates": [0.5, 1.0], "seeds": draw(seeds)}, "verify": {}}
    if draw(st.booleans()):
        doc["analysis"] = {"max_gram_dim": draw(st.integers(1, 16))}
    if draw(st.booleans()):
        names = st.sampled_from(verify.known_checks(doc["model"]["kind"]))
        doc["verify"]["checks"] = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    if rounds and draw(st.booleans()):
        doc["verify"]["rounds"] = draw(st.lists(st.integers(0, rounds - 1), max_size=2, unique=True))
    return draw(st.sampled_from(["train", "verify", "sweep"])), doc


@st.composite
def _small_synthetic_runs(draw):
    """A command and a small synthetic config: width <= 32, n <= 40, and
    the federation and run of _draw_federation and _draw_run. Sizes stay
    small, so that no draw allocates much memory."""
    width = draw(st.integers(1, 32))
    if draw(st.booleans()):
        sizes = st.fixed_dictionaries(
            {"depth": st.integers(1, 3), "d_in": st.integers(1, 4), "d_out": st.integers(1, 3)}
        )
        model = {"kind": "deep-linear", "width": width, **draw(sizes)}
    else:
        model = {"kind": "two-layer-relu", "width": width, "dim": draw(st.integers(1, 4))}
    federation = _draw_federation(draw)
    data = {"kind": "synthetic", "n": draw(st.integers(1, 40)), "preprocess": draw(st.booleans())}
    return _draw_run(draw, {"model": model, "data": data, "federation": federation})


# Budget: 200 draws in 5 s on 2 cores (2 s measured). Derandomized, so
# every run of the suite checks the same draws.
@settings(deadline=None, max_examples=200, derandomize=True)
@example(run=("verify", ZERO_ERROR_PROBE))
@given(run=_small_synthetic_runs())
def test_small_synthetic_configs_end_in_an_exit_code(run):
    command, doc = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), "c.json", doc)
        code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_DIVERGED, EXIT_CONFIG)


@st.composite
def _small_idx_runs(draw):
    """A command, a small IDX config and the seeded pair it reads: sides
    1-4 and n <= 24, with some or all images blank and exact repeats;
    1-4 classes, iid or noniid data, a subset (some above n),
    preprocessing, width <= 16, and the federation and run of
    _draw_federation and _draw_run."""
    n = draw(st.integers(1, 24))
    columns = st.integers(0, n - 1)
    # about one draw in six all blank, one in three some
    blank = {2: st.lists(columns, min_size=1, max_size=3), 3: st.just(list(range(n)))}
    pair = {
        "shape": (draw(st.integers(1, 4)), draw(st.integers(1, 4))),
        "seed": draw(st.integers(0, 2**16)),
        "labels": draw(st.lists(st.integers(0, draw(st.integers(0, 3))), min_size=n, max_size=n)),
        "blank": draw(blank.get((draw(st.integers(0, 5)) + 1) // 2, st.just([]))),
        "repeats": draw(st.lists(st.tuples(columns, columns), max_size=3)),
    }
    width = draw(st.integers(1, 16))
    if draw(st.booleans()):
        model = {"kind": "deep-linear", "width": width, "depth": draw(st.integers(1, 3))}
    else:
        model = {"kind": "two-layer-relu", "width": width}
    data = {"kind": "idx", "preprocess": draw(st.booleans())}
    if draw(st.booleans()):
        data["partition"] = "iid"
    else:
        data["classes_per_client"] = draw(st.integers(1, 4))
    if draw(st.integers(0, 2)) == 2:
        data["subset"] = draw(st.integers(1, n + 4))
    federation = _draw_federation(draw)
    command, doc = _draw_run(draw, {"model": model, "data": data, "federation": federation})
    return command, doc, pair


# Budget: 200 draws in 6 s on 2 cores (3 s measured). Derandomized, so
# every run of the suite checks the same draws.
@settings(deadline=None, max_examples=200, derandomize=True)
@example(run=("train", _ALL_BLANK_RUN, _ALL_BLANK_PAIR))
@example(run=("verify", _ALL_BLANK_RUN, _ALL_BLANK_PAIR))
@example(run=("sweep", _ALL_BLANK_RUN, _ALL_BLANK_PAIR))
@example(run=("verify", _ALL_BLANK_RUN | _LINEAR_OVER_THE_LIMIT, _ALL_BLANK_PAIR))
@given(run=_small_idx_runs())
def test_small_idx_configs_end_in_an_exit_code(run):
    command, doc, pair = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = _save_pair(tmp, pair)
        cfg = _write(Path(tmp), "c.json", {**doc, "data": doc["data"] | paths})
        code = main([command, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_DIVERGED, EXIT_CONFIG)
