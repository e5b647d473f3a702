"""The experiment config file: one frozen section per JSON object.

parse_config reads JSON into an ExperimentConfig, checking each key's type
and value rule under its dotted path, and serialize_config writes it back.
The `federation` section is federation.FederationConfig itself, so a run
built in code passes the same value rules.
"""

import dataclasses
import json
import typing
from dataclasses import dataclass

from . import verify
from .federation import FederationConfig, check_setting, is_int, positive, setting
from .models import DeepLinearParams, TwoLayerParams

MODEL_DEEP_LINEAR = DeepLinearParams.kind
MODEL_TWO_LAYER = TwoLayerParams.kind


class ConfigError(ValueError):
    """Configuration rejected; the message starts with the offending key path."""


def _read_check_names(path, raw):
    if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
        raise ConfigError(f"{path}: expected a list of check names")
    return tuple(raw)


def _read_rounds(path, raw):
    if not isinstance(raw, list) or not all(is_int(t) for t in raw):
        raise ConfigError(f"{path}: expected a list of integers")
    return tuple(sorted(set(raw)))


def _read_rates(path, raw):
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a nonempty list")
    for r in raw:
        if isinstance(r, bool) or not isinstance(r, (int, float)) or not 0.0 < r <= 1.0:
            raise ConfigError(f"{path}: rate {r!r} must lie in (0, 1]")
    return tuple(float(r) for r in raw)


def _read_seeds(path, raw):
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a nonempty list")
    if not all(is_int(s) for s in raw):
        raise ConfigError(f"{path}: expected integers")
    return tuple(raw)


@dataclass(frozen=True)
class ModelSection:
    kind: str = MODEL_DEEP_LINEAR
    depth: int = setting(3, check=positive)
    width: int = setting(500, check=positive)
    d_in: int = setting(10, check=positive)
    d_out: int = setting(5, check=positive)
    # two-layer input dimension (synthetic data only)
    dim: int = setting(10, check=positive)


@dataclass(frozen=True)
class DataSection:
    kind: str = "synthetic"
    n: int = setting(80, check=positive)
    images: str | None = None
    labels: str | None = None
    subset: int | None = setting(None, check=positive)
    classes_per_client: int = setting(3, check=positive)
    partition: str | None = None  # None = by-label when labels exist, else round-robin
    preprocess: bool = False


@dataclass(frozen=True)
class VerifySection:
    # None = every check applicable to the model kind
    checks: tuple | None = setting(None, read=_read_check_names)
    rounds: tuple | None = setting(None, read=_read_rounds)  # None = {0, T//2, T-1}


@dataclass(frozen=True)
class SweepSection:
    rates: tuple = setting((0.1, 0.5, 1.0), read=_read_rates)
    seeds: tuple = setting((0, 1, 2, 3, 4), read=_read_seeds)


@dataclass(frozen=True)
class AnalysisSection:
    max_gram_dim: int = setting(1024, check=positive)


@dataclass(frozen=True)
class ExperimentConfig:
    # serialize_config writes the sections in this order; verify goes last
    # and is left out when empty
    model: ModelSection = ModelSection()
    data: DataSection = DataSection()
    federation: FederationConfig = FederationConfig()
    sweep: SweepSection = SweepSection()
    analysis: AnalysisSection = AnalysisSection()
    verify: VerifySection = VerifySection()


# Keys each model and data kind accepts, in the order serialize_config writes
# them. Sections without a kind accept every field, in field order.
_KIND_KEYS = {
    "model": {
        MODEL_DEEP_LINEAR: ("kind", "width", "depth", "d_in", "d_out"),
        MODEL_TWO_LAYER: ("kind", "width", "dim"),
    },
    "data": {
        "synthetic": ("kind", "n", "partition", "preprocess"),
        "idx": (
            "kind", "images", "labels", "subset", "classes_per_client", "partition", "preprocess"
        ),
    },
}

_SCALARS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", is_int),
    float: ("a number", lambda v: is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _read_key(f, path, value):
    if f.metadata.get("read") is not None:
        return f.metadata["read"](path, value)
    kind = (typing.get_args(f.type) or (f.type,))[0]  # X for both X and X | None
    if kind in _SCALARS:  # a list key is checked by its value rule alone
        what, accepts = _SCALARS[kind]
        if not accepts(value):
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        try:
            value = kind(value)
        except OverflowError:  # an integer too large for a float key
            value = float("inf")
    try:
        check_setting(f, path, value)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return value


def _parse_section(name, cls, obj):
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    allowed = fields
    if name in _KIND_KEYS:
        kinds = _KIND_KEYS[name]
        kind = _read_key(fields["kind"], f"{name}.kind", obj.get("kind", fields["kind"].default))
        if kind not in kinds:
            choices = " or ".join(repr(k) for k in kinds)
            raise ConfigError(f"{name}.kind: expected {choices}, got {kind!r}")
        allowed = kinds[kind]
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{name}.{key}: unknown key")
    values = {key: _read_key(fields[key], f"{name}.{key}", v) for key, v in obj.items()}
    try:
        return cls(**values)
    except ValueError as e:  # a rule across keys, such as the schedule's
        raise ConfigError(f"{name}: {e}") from e


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON experiment description; unspecified fields take defaults.

    Unknown keys, type mismatches, and constraint violations raise ConfigError
    with the dotted path of the offending key.
    """
    try:
        obj = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    for key in obj:
        if key not in sections:
            raise ConfigError(f"config.{key}: unknown key")
    cfg = ExperimentConfig(
        **{name: _parse_section(name, cls, obj.get(name, {})) for name, cls in sections.items()}
    )
    model, data, fed = cfg.model, cfg.data, cfg.federation
    if data.kind == "synthetic" and data.partition not in (None, "iid"):
        raise ConfigError("data.partition: synthetic data has no labels to split by")
    if data.kind == "idx" and (data.images is None or data.labels is None):
        raise ConfigError("data.images: idx data needs both images and labels paths")
    if data.kind == "idx" and data.partition not in (None, "iid", "noniid"):
        raise ConfigError(f"data.partition: expected 'iid' or 'noniid', got {data.partition!r}")
    if "schedule" in obj.get("federation", {}) and "rate" in obj["federation"]:
        raise ConfigError("federation.schedule: give either rate or schedule, not both")
    known = verify.known_checks(model.kind)
    for c in cfg.verify.checks or ():
        if c not in known:
            raise ConfigError(
                f"verify.checks: {c!r} is not a known check for {model.kind} "
                f"(choose from {', '.join(known)})"
            )
    for t in cfg.verify.rounds or ():
        if not 0 <= t < fed.rounds:
            raise ConfigError(f"verify.rounds: round {t} outside [0, {fed.rounds})")
    if data.kind == "synthetic" and model.kind == MODEL_TWO_LAYER and data.n < model.dim:
        raise ConfigError("data.n: need at least dim samples for synthetic data")
    if data.kind == "synthetic" and model.kind == MODEL_DEEP_LINEAR and data.n < model.d_in:
        raise ConfigError("data.n: need at least d_in samples for synthetic data")
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON for a parsed config; parse_config(serialize_config(c))
    reproduces c exactly."""
    doc = {}
    for f in dataclasses.fields(cfg):
        section = getattr(cfg, f.name)
        if f.name in _KIND_KEYS:
            keys = _KIND_KEYS[f.name][section.kind]
        else:
            keys = [g.name for g in dataclasses.fields(section)]
        body = {k: getattr(section, k) for k in keys if getattr(section, k) is not None}
        if f.name == "federation" and section.schedule is not None:
            del body["rate"]
        if body:
            doc[f.name] = body
    return json.dumps(doc, indent=2)
