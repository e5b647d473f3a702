"""Command-line front end: configure, train, sweep, and verify.

Artifacts are deterministic functions of (config, seed): CSV traces with
17-significant-digit floats, JSON reports, and self-contained SVG loss plots.
Exit codes: 0 success, 1 verification failure, 2 runtime divergence,
3 configuration or usage error.
"""

import argparse
import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, verify
from .data import (
    Dataset,
    IdxFormatError,
    load_idx,
    partition_iid,
    partition_noniid,
    preprocess_unit_norm,
    relu_targets,
    synth_linear_dataset,
)
from .federation import (
    DivergenceError,
    FederationConfig,
    run_fedavg,
)
from .models import DeepLinearParams, LabeledBatch, TwoLayerParams, init_deep_linear, init_two_layer

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DIVERGED = 2
EXIT_CONFIG = 3

MODEL_DEEP_LINEAR = DeepLinearParams.kind
MODEL_TWO_LAYER = TwoLayerParams.kind

CSV_HEADER = "t,participants,loss,ratio,rho_theory,bound_cum"


class ConfigError(ValueError):
    """Configuration rejected; the message starts with the offending key path."""


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _positive(path, value):
    if value <= 0:
        raise ConfigError(f"{path}: must be positive, got {value}")


def _nonnegative(path, value):
    if value < 0:
        raise ConfigError(f"{path}: must be >= 0, got {value}")


def _unit_interval(path, value):
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{path}: must lie in (0, 1], got {value}")


def _read_schedule(path, raw):
    if not isinstance(raw, list) or not all(
        isinstance(r, list) and all(_is_int(c) for c in r) for r in raw
    ):
        raise ConfigError(f"{path}: expected a list of client index lists")
    return tuple(tuple(r) for r in raw)


def _read_check_names(path, raw):
    if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
        raise ConfigError(f"{path}: expected a list of check names")
    return tuple(raw)


def _read_rounds(path, raw):
    if not isinstance(raw, list) or not all(_is_int(t) for t in raw):
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
    if not all(_is_int(s) for s in raw):
        raise ConfigError(f"{path}: expected integers")
    return tuple(raw)


def _config_field(default, *, check=None, read=None):
    """A config key: `check` validates a scalar after its type check; `read`
    parses a list value in place of the type check."""
    return field(default=default, metadata={"check": check, "read": read})


@dataclass(frozen=True)
class ModelSection:
    kind: str = MODEL_DEEP_LINEAR
    depth: int = _config_field(3, check=_positive)
    width: int = _config_field(500, check=_positive)
    d_in: int = _config_field(10, check=_positive)
    d_out: int = _config_field(5, check=_positive)
    # two-layer input dimension (synthetic data only)
    dim: int = _config_field(10, check=_positive)


@dataclass(frozen=True)
class DataSection:
    kind: str = "synthetic"
    n: int = _config_field(80, check=_positive)
    images: str | None = None
    labels: str | None = None
    subset: int | None = _config_field(None, check=_positive)
    classes_per_client: int = _config_field(3, check=_positive)
    partition: str | None = None  # None = by-label when labels exist, else round-robin
    preprocess: bool = False


@dataclass(frozen=True)
class FederationSection:
    n_clients: int = _config_field(20, check=_positive)
    local_steps: int = _config_field(5, check=_positive)
    rounds: int = _config_field(100, check=_nonnegative)
    eta: float = _config_field(0.0005, check=_positive)
    rate: float = _config_field(1.0, check=_unit_interval)
    schedule: tuple | None = _config_field(None, read=_read_schedule)
    seed: int = 0
    workers: int = _config_field(1, check=_positive)
    stop_loss_fraction: float | None = _config_field(None, check=_positive)


@dataclass(frozen=True)
class VerifySection:
    # None = every check applicable to the model kind
    checks: tuple | None = _config_field(None, read=_read_check_names)
    rounds: tuple | None = _config_field(None, read=_read_rounds)  # None = {0, T//2, T-1}


@dataclass(frozen=True)
class SweepSection:
    rates: tuple = _config_field((0.1, 0.5, 1.0), read=_read_rates)
    seeds: tuple = _config_field((0, 1, 2, 3, 4), read=_read_seeds)


@dataclass(frozen=True)
class AnalysisSection:
    max_gram_dim: int = _config_field(1024, check=_positive)


@dataclass(frozen=True)
class ExperimentConfig:
    # serialize_config writes the sections in this order; verify goes last
    # and is left out when empty
    model: ModelSection = ModelSection()
    data: DataSection = DataSection()
    federation: FederationSection = FederationSection()
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
    int: ("an integer", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _read_key(f, path, value):
    if f.metadata.get("read") is not None:
        return f.metadata["read"](path, value)
    kind = (typing.get_args(f.type) or (f.type,))[0]  # X for both X and X | None
    what, accepts = _SCALARS[kind]
    if not accepts(value):
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:  # an integer too large for a float key
        value = float("inf")
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    if f.metadata.get("check") is not None:
        f.metadata["check"](path, value)
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
    return cls(**{key: _read_key(fields[key], f"{name}.{key}", v) for key, v in obj.items()})


def section_to_federation_config(section: FederationSection) -> FederationConfig:
    participation = section.schedule if section.schedule is not None else section.rate
    return FederationConfig(
        n_clients=section.n_clients,
        local_steps=section.local_steps,
        rounds=section.rounds,
        eta=section.eta,
        participation=participation,
        seed=section.seed,
    )


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
    try:
        section_to_federation_config(fed)
    except ValueError as e:
        raise ConfigError(f"federation: {e}") from e
    known = verify.known_checks(model.kind)
    for c in cfg.verify.checks or ():
        if c not in known:
            raise ConfigError(
                f"verify.checks: {c!r} is not a known check for {model.kind} "
                f"(choose from {', '.join(known)})"
            )
    for t in cfg.verify.rounds or ():
        if not 0 <= t < max(fed.rounds, 1):
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


def _load_dataset(cfg: ExperimentConfig):
    if cfg.data.kind == "synthetic":
        m = cfg.model
        d_in, d_out = (m.d_in, m.d_out) if m.kind == MODEL_DEEP_LINEAR else (m.dim, 1)
        return synth_linear_dataset(d_in, d_out, cfg.data.n, cfg.federation.seed)[0]
    try:
        ds = load_idx(cfg.data.images, cfg.data.labels)
    except OSError as e:
        raise ConfigError(f"data.images: cannot read dataset ({e})") from e
    except IdxFormatError as e:
        raise ConfigError(f"data.images: {e}") from e
    if ds.n == 0:
        raise ConfigError(f"data.images: {cfg.data.images} holds no images")
    if cfg.data.subset is not None:
        s = cfg.data.subset
        if s > ds.n:
            raise ConfigError(f"data.subset: {s} exceeds the {ds.n} available samples")
        ds = Dataset(X=ds.X[:, :s], Y=ds.Y[:, :s], labels=ds.labels[:s])
    return ds


def build_experiment(cfg: ExperimentConfig) -> verify.RunContext:
    """Materialize data, partition, targets, initial parameters and the
    contraction rate's spectral input (left out over analysis.max_gram_dim)."""
    ds = _load_dataset(cfg)
    perturbed = 0
    if cfg.data.preprocess:
        ds, perturbed = preprocess_unit_norm(ds)
    m, fed = cfg.model, cfg.federation
    dropped = 0
    use_labels = ds.labels is not None and cfg.data.partition != "iid"
    if use_labels:
        part = partition_noniid(ds, fed.n_clients, cfg.data.classes_per_client, fed.seed)
        index_lists = [np.asarray(ix, dtype=int) for ix in part.client_indices]
        dropped = part.dropped
    else:
        index_lists = partition_iid(ds.n, fed.n_clients)
    if m.kind == MODEL_DEEP_LINEAR:
        targets = ds.Y
    elif ds.labels is not None:
        targets = relu_targets(ds.labels, ds.Y.shape[0])
    else:
        targets = np.ravel(ds.Y)
    batches = tuple(LabeledBatch(X=ds.X[:, ix], Y=targets[..., ix]) for ix in index_lists)
    if m.kind == MODEL_DEEP_LINEAR:
        init = init_deep_linear(m.depth, m.width, ds.X.shape[0], ds.Y.shape[0], fed.seed)
    else:
        init = init_two_layer(m.width, ds.X.shape[0], fed.seed)
    ctx = verify.RunContext(
        batches, init, None, fed.eta, fed.local_steps,
        perturbed_columns=perturbed, dropped_samples=dropped,
    )
    if ctx.gram_dim > cfg.analysis.max_gram_dim:
        return ctx
    # the stacked data live only here: a context that cached them would hold
    # a second copy of the data through training
    X = np.hstack([b.X for b in batches])
    if m.kind == MODEL_DEEP_LINEAR:
        return dataclasses.replace(ctx, lambda_min=analysis.gram_P0_lambda_min(init, X)[0])
    spec = analysis.spectrum(analysis.gram_H_infinity(X))
    return dataclasses.replace(ctx, lambda_min=spec.lambda_min, lambda_max=spec.lambda_max)


def _g17(v) -> str:
    if v is None:
        return "nan"
    return f"{float(v):.17g}"


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (tuple, list, set, frozenset)):
        seq = sorted(v) if isinstance(v, (set, frozenset)) else v
        return [_jsonable(x) for x in seq]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, float) and not np.isfinite(v):
        return None if np.isnan(v) else ("inf" if v > 0 else "-inf")
    return v


def _report_dict(report) -> dict:
    return _jsonable(dataclasses.asdict(report))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_plot(path, curves, *, title, x_label, y_label, width=720, height=480):
    """Write a minimal log-y line plot: curves is a list of (label, points)
    with points as (x, y) pairs; nonpositive and non-finite y are skipped."""
    left, right, top, bottom = 72, 24, 36, 48
    xs, ys = [], []
    for _, pts in curves:
        for x, y in pts:
            if np.isfinite(x) and np.isfinite(y) and y > 0.0:
                xs.append(float(x))
                ys.append(float(y))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    if xs:
        x0, x1 = min(xs), max(xs)
        ly0, ly1 = np.log10(min(ys)), np.log10(max(ys))
        if x1 == x0:
            x1 = x0 + 1.0
        if ly1 == ly0:
            ly1 = ly0 + 1.0
        plot_w = width - left - right
        plot_h = height - top - bottom

        def px(x):
            return left + (x - x0) / (x1 - x0) * plot_w

        def py(y):
            return top + (ly1 - np.log10(y)) / (ly1 - ly0) * plot_h

        parts.append(
            f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
            f'fill="none" stroke="#333"/>'
        )
        for exp in range(int(np.floor(ly0)), int(np.ceil(ly1)) + 1):
            y = 10.0**exp
            if not (min(ys) <= y <= max(ys)):
                continue
            parts.append(
                f'<line x1="{left}" y1="{py(y):.2f}" x2="{left + plot_w}" y2="{py(y):.2f}" '
                f'stroke="#ddd"/>'
                f'<text x="{left - 6}" y="{py(y) + 4:.2f}" text-anchor="end" font-size="11" '
                f'font-family="sans-serif">1e{exp}</text>'
            )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            x = x0 + frac * (x1 - x0)
            parts.append(
                f'<text x="{px(x):.2f}" y="{top + plot_h + 16}" text-anchor="middle" '
                f'font-size="11" font-family="sans-serif">{x:g}</text>'
            )
        for idx, (label, pts) in enumerate(curves):
            color = _PALETTE[idx % len(_PALETTE)]
            coords = " ".join(
                f"{px(x):.2f},{py(y):.2f}"
                for x, y in pts
                if np.isfinite(x) and np.isfinite(y) and y > 0.0
            )
            if coords:
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            ly = top + 16 + 16 * idx
            parts.append(
                f'<rect x="{left + plot_w - 150}" y="{ly - 9}" width="10" height="10" fill="{color}"/>'
                f'<text x="{left + plot_w - 136}" y="{ly}" font-size="11" '
                f'font-family="sans-serif">{label}</text>'
            )
        parts.append(
            f'<text x="{left + plot_w / 2:.1f}" y="{height - 10}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{x_label}</text>'
        )
        parts.append(
            f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif" transform="rotate(-90 16 {top + plot_h / 2:.1f})">'
            f"{y_label}</text>"
        )
    else:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{height / 2:.1f}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">no data</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _run_training(cfg: ExperimentConfig, ctx: verify.RunContext):
    return run_fedavg(
        section_to_federation_config(cfg.federation),
        ctx.init_params,
        list(ctx.batches),
        workers=cfg.federation.workers,
        stop_fraction=cfg.federation.stop_loss_fraction,
    )


def cmd_train(cfg: ExperimentConfig, out_dir) -> int:
    """Run one federated training job; write trace.csv, trace.json, loss.svg."""
    out = Path(out_dir)
    ctx = build_experiment(cfg)
    result = _run_training(cfg, ctx)

    fed, lam = cfg.federation, ctx.lambda_min
    sizes = [len(tr.members) for tr in result.traces]
    rhos, bound_values, skipped = [None] * len(sizes), None, None
    if lam is not None:
        rhos = [
            analysis.contraction_factor(fed.eta, s, lam, fed.local_steps, fed.n_clients)
            for s in sizes
        ]
        if lam <= 0.0:
            skipped = f"lambda_min {lam:g} is not positive"
        else:
            try:
                bound_values = analysis.bound_series(
                    result.losses[0], fed.eta, fed.local_steps, fed.n_clients, lam, sizes
                ).values
            except ValueError as e:
                skipped = str(e)
    if skipped is not None:
        print(f"train: bound_cum not written: {skipped}", file=sys.stderr)
    bounds = bound_values or (None,) * len(result.losses)

    lines = [CSV_HEADER]
    for tr, rho in zip(result.traces, rhos):
        numbers = map(_g17, (tr.loss, tr.ratio, rho, bounds[tr.t]))
        lines.append(",".join([str(tr.t), ";".join(str(c) for c in tr.members), *numbers]))
    (out / "trace.csv").write_text("\n".join(lines) + "\n")

    rows = [
        {
            "t": tr.t,
            "participants": list(tr.members),
            "loss": tr.loss,
            "ratio": tr.ratio,
            "rho_theory": rho,
            "bound_cum": bounds[tr.t],
            "local_losses": [list(ls) for ls in tr.local_losses],
        }
        for tr, rho in zip(result.traces, rhos)
    ]
    (out / "trace.json").write_text(
        json.dumps(
            _jsonable(
                {
                    "config": json.loads(serialize_config(cfg)),
                    "lambda_min": ctx.lambda_min,
                    "perturbed_columns": ctx.perturbed_columns,
                    "dropped_samples": ctx.dropped_samples,
                    "losses": list(result.losses),
                    "final_loss": result.final_loss,
                    "rows": rows,
                }
            ),
            indent=2,
        )
        + "\n"
    )

    curves = [("loss", [(t, v) for t, v in enumerate(result.losses)])]
    if bound_values is not None:
        curves.append(("bound", [(t, v) for t, v in enumerate(bound_values)]))
    _svg_plot(
        out / "loss.svg",
        curves,
        title="training loss per round",
        x_label="round",
        y_label="loss (log scale)",
    )
    print(f"train: {len(result.traces)} rounds, final loss {result.final_loss:.6g}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out_dir) -> int:
    """Cross product of participation rates and seeds; per-rate mean/min/max
    loss curves to sweep.csv and an overlay plot to sweep.svg. Failed cells
    are reported on stderr and excluded from the aggregates."""
    out = Path(out_dir)
    rates, seeds = cfg.sweep.rates, cfg.sweep.seeds

    per_rate = {}
    failures = []
    for rate in rates:
        runs = []
        for seed in seeds:
            cell_cfg = dataclasses.replace(
                cfg,
                federation=dataclasses.replace(
                    cfg.federation, rate=rate, schedule=None, seed=seed
                ),
            )
            try:
                runs.append(list(_run_training(cell_cfg, build_experiment(cell_cfg)).losses))
            except DivergenceError as e:
                failures.append((rate, seed, str(e)))
                print(f"sweep: rate={rate} seed={seed} diverged: {e}", file=sys.stderr)
        per_rate[rate] = runs

    lines = ["rate,t,mean_loss,min_loss,max_loss"]
    curves = []
    for rate in rates:
        runs = per_rate[rate]
        if not runs:
            continue
        horizon = max(len(r) for r in runs)
        # converged cells that stopped early hold their final value
        padded = np.array([r + [r[-1]] * (horizon - len(r)) for r in runs])
        mean = padded.mean(axis=0)
        lo = padded.min(axis=0)
        hi = padded.max(axis=0)
        for t in range(horizon):
            lines.append(
                ",".join([_g17(rate), str(t), _g17(mean[t]), _g17(lo[t]), _g17(hi[t])])
            )
        curves.append((f"rate {rate:g}", [(t, mean[t]) for t in range(horizon)]))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    _svg_plot(
        out / "sweep.svg",
        curves,
        title="mean training loss by participation rate",
        x_label="round",
        y_label="loss (log scale)",
    )
    done = sum(len(r) for r in per_rate.values())
    print(f"sweep: {done} cells completed, {len(failures)} failed")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out_dir) -> int:
    """Run the configured checks and write verify.json; exit 0 iff all pass."""
    out = Path(out_dir)
    ctx = build_experiment(cfg)
    fed = cfg.federation
    T = fed.rounds
    listed = cfg.verify.rounds if cfg.verify.rounds is not None else (0, T // 2, T - 1)
    rounds = sorted({t for t in listed if 0 <= t < T})
    try:
        names, rounds = verify.select(ctx, cfg.verify.checks, rounds, cfg.analysis.max_gram_dim)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    snapshots = []  # in round order, one per observed round
    if rounds:
        run_fedavg(
            section_to_federation_config(fed),
            ctx.init_params,
            list(ctx.batches),
            workers=fed.workers,
            observer=snapshots.append,
            observe_rounds=set(rounds),
        )
    reports = verify.run_checks(ctx, names, snapshots)
    all_passed = all(r.passed for r in reports)
    (out / "verify.json").write_text(
        json.dumps(
            _jsonable(
                {
                    "passed": all_passed,
                    "config": json.loads(serialize_config(cfg)),
                    "lambda_min": ctx.lambda_min,
                    "perturbed_columns": ctx.perturbed_columns,
                    "checks": [_report_dict(r) for r in reports],
                }
            ),
            indent=2,
        )
        + "\n"
    )
    for r in reports:
        state = "PASS" if r.passed else "FAIL"
        print(f"{state} {r.name}: measured={r.measured:.6g} bound={r.bound:.6g}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedspectra",
        description="Federated averaging simulator with convergence-theory checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("train", "run one training job and emit trace files"),
        ("sweep", "run a participation-rate x seed grid and emit summaries"),
        ("verify", "run theory checks and emit verify.json"),
    ):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True, help="path to a JSON experiment config")
        sp.add_argument("--out", required=True, help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error; 2 means divergence here
        return EXIT_OK if e.code == 0 else EXIT_CONFIG

    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as e:
        print(f"config error: cannot read {args.config}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create {args.out}: {e}") from e
        if args.command == "train":
            return cmd_train(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        return cmd_verify(cfg, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
