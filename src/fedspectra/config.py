"""The experiment config file: one frozen section per JSON object.

Each section checks its own values on construction and ExperimentConfig the
rules across sections; parse_config reads JSON, checks the shape and value
types, and builds the config, and serialize_config writes it back. The model
sections answer set-up's questions about their kind (data sizes, targets,
initial weights, Gram spectrum), so no caller tests it.
"""

import dataclasses
import json
import types
import typing
from dataclasses import dataclass

from . import analysis, verify
from .data import relu_targets
from .federation import FederationConfig, Settings, is_int, positive, setting, unit_interval
from .models import DeepLinearParams, TwoLayerParams, init_deep_linear, init_two_layer


class ConfigError(ValueError):
    """Configuration rejected; the message starts with the offending key path."""


def _list_of(noun, rule=None, repeats=False):
    """A value rule for a nonempty list of nouns, each passing `rule` and,
    unless `repeats`, none listed twice (1 and 1.0 are the same entry)."""

    def check(path, value):
        if not value:
            raise ValueError(f"{path}: expected a nonempty list of {noun}s")
        for i, v in enumerate(value):
            if rule is not None:
                rule(path, v)
            if not repeats and v in value[:i]:
                raise ValueError(f"{path}: {noun} {v} is listed twice")

    return check


# The fields of a kind's class are the keys it accepts, in the order
# serialize_config writes them after `kind`; its constants are unannotated,
# so no keys. gram_lambda gives set-up's (lambda_min, lambda_max or None);
# nonzero_images_for names its Gram matrix if that needs no blank image.
@dataclass(frozen=True)
class DeepLinearModel(Settings):
    kind = DeepLinearParams.kind
    size_keys = ("d_in", "d_out")  # of synthetic data's sizes() (inputs, outputs)
    nonzero_images_for = None  # P0's spectrum takes X's nonzero singular values
    width: int = setting(500, check=positive)
    depth: int = setting(3, check=positive)
    d_in: int = setting(10, check=positive)
    d_out: int = setting(5, check=positive)

    def sizes(self) -> tuple:
        return self.d_in, self.d_out

    def targets(self, ds):
        return ds.Y

    def init(self, d_in, d_out, seed) -> DeepLinearParams:
        return init_deep_linear(self.depth, self.width, d_in, d_out, seed)

    def gram_lambda(self, init, X) -> tuple:
        return analysis.gram_P0_lambda_min(init, X)[0], None


@dataclass(frozen=True)
class TwoLayerModel(Settings):
    kind = TwoLayerParams.kind
    size_keys = ("dim",)
    nonzero_images_for = "the H-infinity Gram matrix"
    width: int = setting(500, check=positive)
    dim: int = setting(10, check=positive)

    def sizes(self) -> tuple:
        return self.dim, 1

    def targets(self, ds):
        return ds.Y.ravel() if ds.labels is None else relu_targets(ds.labels, ds.Y.shape[0])

    def init(self, d_in, d_out, seed) -> TwoLayerParams:
        return init_two_layer(self.width, d_in, seed)

    def gram_lambda(self, init, X) -> tuple:
        spec = analysis.spectrum(analysis.gram_H_infinity(X))
        return spec.lambda_min, spec.lambda_max


@dataclass(frozen=True)
class SyntheticData(Settings):
    kind = "synthetic"
    n: int = setting(80, check=positive)
    preprocess: bool = False


@dataclass(frozen=True)
class IdxData(Settings):
    kind = "idx"
    images: str | None = None
    labels: str | None = None
    subset: int | None = setting(None, check=positive)
    classes_per_client: int = setting(3, check=positive)
    partition: str = "noniid"  # "noniid": by label; "iid": round-robin
    preprocess: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.images is None or self.labels is None:
            raise ValueError("images: idx data needs both images and labels paths")
        if self.partition not in ("iid", "noniid"):
            raise ValueError(f"partition: expected 'iid' or 'noniid', got {self.partition!r}")
        if self.partition == "iid" and self.classes_per_client != IdxData.classes_per_client:
            raise ValueError(
                "classes_per_client: applies to the noniid partition only; "
                "iid data are dealt round-robin"
            )


@dataclass(frozen=True)
class VerifySection(Settings):
    # None = every check applicable to the model kind
    checks: tuple[str, ...] | None = setting(None, check=_list_of("check name", repeats=True))
    rounds: tuple[int, ...] | None = None  # None = {0, T//2, T-1}, set by verify.select

    def __post_init__(self):
        super().__post_init__()
        if self.rounds is not None:
            object.__setattr__(self, "rounds", tuple(sorted(set(self.rounds))))


@dataclass(frozen=True)
class SweepSection(Settings):
    rates: tuple[float, ...] = setting((0.1, 0.5, 1.0), check=_list_of("rate", unit_interval))
    seeds: tuple[int, ...] = setting((0, 1, 2, 3, 4), check=_list_of("seed"))


@dataclass(frozen=True)
class AnalysisSection(Settings):
    max_gram_dim: int = setting(1024, check=positive)


@dataclass(frozen=True)
class ExperimentConfig:
    # serialize_config writes the sections in this order; verify goes last
    # and is left out when empty
    model: DeepLinearModel | TwoLayerModel = DeepLinearModel()
    data: SyntheticData | IdxData = SyntheticData()
    federation: FederationConfig = FederationConfig()
    sweep: SweepSection = SweepSection()
    analysis: AnalysisSection = AnalysisSection()
    verify: VerifySection = VerifySection()

    def __post_init__(self):
        model, T = self.model, self.federation.rounds
        known = verify.known_checks(model.kind)
        for c in self.verify.checks or ():
            if c not in known:
                raise ValueError(
                    f"verify.checks: {c!r} is not a known check for {model.kind} "
                    f"(choose from {', '.join(known)})"
                )
        for t in self.verify.rounds or ():
            if not 0 <= t < T:
                raise ValueError(f"verify.rounds: round {t} outside [0, {T})")
        key = model.size_keys[0]  # the input size
        if isinstance(self.data, SyntheticData) and self.data.n < getattr(model, key):
            raise ValueError(f"data.n: need at least {key} samples for synthetic data")
        for f in dataclasses.fields(model) if isinstance(self.data, IdxData) else ():
            if f.name in model.size_keys and getattr(model, f.name) != f.default:
                raise ValueError(
                    f"model.{f.name}: applies to synthetic data only; "
                    "IDX data take the sizes from the files"
                )


_SCALARS = {
    bool: ("a boolean", "booleans", lambda v: isinstance(v, bool)),
    int: ("an integer", "integers", is_int),
    float: ("a number", "numbers", lambda v: is_int(v) or isinstance(v, float)),
    str: ("a string", "strings", lambda v: isinstance(v, str)),
}


def _read_key(annotation, path, value):
    """Check a JSON value's type against a field's annotation and convert it:
    X | None reads as X, tuple[X, ...] as a list of X; other types pass."""
    if isinstance(annotation, types.UnionType):
        annotation = typing.get_args(annotation)[0]
    if typing.get_origin(annotation) is tuple:
        kind = typing.get_args(annotation)[0]
        _, what, accepts = _SCALARS[kind]
        if not isinstance(value, list) or not all(accepts(v) for v in value):
            raise ConfigError(f"{path}: expected a list of {what}, got {value!r}")
        return tuple(_read_key(kind, path, v) for v in value)
    if annotation not in _SCALARS:
        return value
    what, _, accepts = _SCALARS[annotation]
    if not accepts(value):
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    try:
        return annotation(value)
    except OverflowError:  # an integer too large for a float key
        return float("inf")


def _parse_section(name, f, obj):
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: expected an object")
    cls = f.type
    if isinstance(cls, types.UnionType):  # one class per kind
        kinds = {c.kind: c for c in typing.get_args(cls)}
        kind = _read_key(str, f"{name}.kind", obj.get("kind", f.default.kind))
        if kind not in kinds:
            choices = " or ".join(repr(k) for k in kinds)
            raise ConfigError(f"{name}.kind: expected {choices}, got {kind!r}")
        cls = kinds[kind]
        obj = {key: v for key, v in obj.items() if key != "kind"}
    fields = {g.name: g for g in dataclasses.fields(cls)}
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{name}.{key}: unknown key")
    values = {key: _read_key(fields[key].type, f"{name}.{key}", v) for key, v in obj.items()}
    try:
        return cls(**values)
    except ValueError as e:  # messages start with the field's name
        raise ConfigError(f"{name}.{e}") from e


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
    sections = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for key in obj:
        if key not in sections:
            raise ConfigError(f"config.{key}: unknown key")
    parsed = {name: _parse_section(name, f, obj.get(name, {})) for name, f in sections.items()}
    if "schedule" in obj.get("federation", {}) and "rate" in obj["federation"]:
        raise ConfigError("federation.schedule: give either rate or schedule, not both")
    try:
        return ExperimentConfig(**parsed)
    except ValueError as e:  # messages give the full key path
        raise ConfigError(str(e)) from e


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON for a parsed config, without the model sizes beside IDX
    data or classes_per_client beside iid data; parse_config(serialize_config(c))
    reproduces c exactly."""
    idx = isinstance(cfg.data, IdxData)
    unset = {
        "model": cfg.model.size_keys if idx else (),
        "data": ("classes_per_client",) if idx and cfg.data.partition == "iid" else (),
    }
    doc = {}
    for f in dataclasses.fields(cfg):
        section = getattr(cfg, f.name)
        body = {"kind": getattr(section, "kind", None)}
        body.update((g.name, getattr(section, g.name)) for g in dataclasses.fields(section))
        body = {k: v for k, v in body.items() if v is not None and k not in unset.get(f.name, ())}
        if f.name == "federation" and section.schedule is not None:
            del body["rate"]
        if body:
            doc[f.name] = body
    return json.dumps(doc, indent=2)
