"""Command-line front end: configure, train, sweep, and verify.

Artifacts are deterministic functions of (config, seed): CSV traces with
17-significant-digit floats, JSON reports, and self-contained SVG loss plots.
Exit codes: 0 success, 1 verification failure, 2 runtime divergence,
3 configuration or usage error, 4 an observed round not reproduced.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, verify
from .config import ConfigError, ExperimentConfig, IdxData, parse_config, serialize_config
from .data import (
    IdxFormatError,
    gather_columns,
    load_idx,
    partition_iid,
    partition_noniid,
    preprocess_unit_norm,
    synth_linear_dataset,
)
from .federation import DivergenceError, run_fedavg
from .models import LabeledBatch

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DIVERGED = 2
EXIT_CONFIG = 3
EXIT_NOT_REPRODUCED = 4

CSV_HEADER = "t,participants,loss,ratio,rho_theory,bound_cum"


def _load_dataset(cfg: ExperimentConfig):
    if cfg.data.kind == "synthetic":
        return synth_linear_dataset(*cfg.model.sizes(), cfg.data.n, cfg.federation.seed)[0]
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
        ds = LabeledBatch(X=ds.X[:, :s], Y=ds.Y[:, :s], labels=ds.labels[:s])
    return ds


def _refuse_blank_images(X, index, need):
    """Raise the config error that names the first all-zero column of X by
    its image's index in the file, index[k] for column k."""
    blank = index[~X.any(axis=0)]
    if blank.size:
        raise ConfigError(
            f"data.images: image {blank.min()} is all zeros; {need} needs every image nonzero"
        )


def _refuse_zero_data(cfg, batches):
    """Raise the config error for IDX data whose every image that the
    clients hold is all zeros: such data have no spectrum to bound.
    Preprocessing has refused any blank image already, and synthetic
    columns have unit norm."""
    if isinstance(cfg.data, IdxData) and not cfg.data.preprocess:
        if not any(b.X.any() for b in batches):
            raise ConfigError("data.images: every image that the clients hold is all zeros")


def _prepare_data(cfg: ExperimentConfig) -> tuple:
    """The dataset that set-up partitions, loaded or drawn and then
    preprocessed when cfg.data.preprocess, and the count of columns that
    preprocessing perturbed. IDX data do not depend on the seed."""
    ds = _load_dataset(cfg)
    if not cfg.data.preprocess:
        return ds, 0
    try:
        return preprocess_unit_norm(ds)
    except ValueError as e:
        _refuse_blank_images(ds.X, np.arange(ds.n), "data.preprocess")
        raise ConfigError(f"data.preprocess: {e}") from e


def build_experiment(cfg: ExperimentConfig, data=None) -> verify.RunContext:
    """Materialize data, partition, targets, initial parameters and the
    contraction rate's spectral input (left out over analysis.max_gram_dim).
    data, when given, is _prepare_data(cfg), made once for several seeds."""
    ds, perturbed = _prepare_data(cfg) if data is None else data
    m, fed = cfg.model, cfg.federation
    if isinstance(cfg.data, IdxData) and cfg.data.partition == "noniid":
        index_lists, dropped = partition_noniid(
            ds, fed.n_clients, cfg.data.classes_per_client, fed.seed
        )
    else:
        index_lists, dropped = partition_iid(ds.n, fed.n_clients), 0
    targets = m.targets(ds)
    batches = tuple(
        LabeledBatch(X=cols, Y=targets[..., ix])
        for cols, ix in zip(gather_columns(ds.X, index_lists), index_lists)
    )
    ctx = verify.RunContext(
        batches, m.init(ds.X.shape[0], ds.Y.shape[0], fed.seed), None, fed.eta, fed.local_steps,
        perturbed_columns=perturbed, dropped_samples=dropped,
    )
    if ctx.gram_dim > cfg.analysis.max_gram_dim:
        _refuse_zero_data(cfg, batches)
        return ctx
    # the stacked data live only here: a context that cached them would hold
    # a second copy of the data through training
    X = np.hstack([b.X for b in batches])
    if m.nonzero_images_for:  # a blank image is named before all-blank data
        _refuse_blank_images(X, np.concatenate(index_lists), m.nonzero_images_for)
    _refuse_zero_data(cfg, batches)
    lambda_min, lambda_max = m.gram_lambda(ctx.init_params, X)
    return dataclasses.replace(ctx, lambda_min=lambda_min, lambda_max=lambda_max)


def _g17(v) -> str:
    if v is None:
        return "nan"
    return f"{float(v):.17g}"


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, float) and not np.isfinite(v):
        return None if np.isnan(v) else ("inf" if v > 0 else "-inf")
    return v


def _report_dict(report) -> dict:
    return _jsonable(dataclasses.asdict(report))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_plot(path, curves, *, title, x_label, y_label):
    """Write a minimal log-y line plot: curves is a list of (label, points)
    with points as (x, y) pairs; nonpositive and non-finite y are skipped."""
    width, height, left, right, top, bottom = 720, 480, 72, 24, 36, 48
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


def _write_json(path, doc):
    path.write_text(json.dumps(_jsonable(doc), indent=2) + "\n")


def _header(cfg: ExperimentConfig, ctx: verify.RunContext) -> dict:
    return {
        "config": json.loads(serialize_config(cfg)),
        "lambda_min": ctx.lambda_min,
        "perturbed_columns": ctx.perturbed_columns,
    }


def _train(command, cfg: ExperimentConfig, ctx: verify.RunContext, out: Path, **observe):
    """Run cfg.federation once from ctx; write trace.csv, trace.json and
    loss.svg from one list of per-round rows, their rho_theory and bound_cum
    from one analysis.bound_series call. Returns the RunResult."""
    fed = cfg.federation
    result = run_fedavg(fed, ctx.init_params, list(ctx.batches), **observe)

    losses, sizes = result.losses, [len(tr.members) for tr in result.traces]
    rhos, bound_values = (None,) * len(sizes), None
    if ctx.lambda_min is not None:
        series = analysis.bound_series(
            losses[0], fed.eta, fed.local_steps, fed.n_clients, ctx.lambda_min, sizes
        )
        rhos, bound_values = series.rho, series.values
        if series.refused is not None:
            print(f"{command}: bound_cum not written: {series.refused}", file=sys.stderr)
    bounds = bound_values or (None,) * len(losses)

    rows = [
        {
            "t": tr.t,
            "participants": list(tr.members),
            "loss": losses[tr.t],
            "ratio": losses[tr.t + 1] / losses[tr.t] if losses[tr.t] > 0.0 else 1.0,
            "rho_theory": rho,
            "bound_cum": bounds[tr.t],
            "local_losses": [list(ls) for ls in tr.local_losses],
        }
        for tr, rho in zip(result.traces, rhos)
    ]
    lines = [CSV_HEADER]
    for r in rows:
        numbers = map(_g17, (r["loss"], r["ratio"], r["rho_theory"], r["bound_cum"]))
        lines.append(",".join([str(r["t"]), ";".join(map(str, r["participants"])), *numbers]))
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    _write_json(
        out / "trace.json",
        {
            **_header(cfg, ctx),
            "dropped_samples": ctx.dropped_samples,
            "losses": list(losses),
            "final_loss": result.final_loss,
            "rows": rows,
        },
    )

    curves = [("loss", list(enumerate(losses)))]
    if bound_values is not None:
        curves.append(("bound", list(enumerate(bound_values))))
    _svg_plot(
        out / "loss.svg",
        curves,
        title="training loss per round",
        x_label="round",
        y_label="loss (log scale)",
    )
    return result


def cmd_train(cfg: ExperimentConfig, out_dir) -> int:
    """Run one federated training job; write trace.csv, trace.json, loss.svg."""
    result = _train("train", cfg, build_experiment(cfg), Path(out_dir))
    print(f"train: {len(result.traces)} rounds, final loss {result.final_loss:.6g}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out_dir) -> int:
    """Cross product of participation rates and seeds; per-rate mean/min/max
    loss curves to sweep.csv and an overlay plot to sweep.svg. Failed cells
    are reported on stderr and excluded from the aggregates."""
    out = Path(out_dir)
    rates, seeds = cfg.sweep.rates, cfg.sweep.seeds

    per_rate = {rate: [] for rate in rates}  # each rate's runs in seed order
    failures = 0
    # synthetic data are drawn from the seed; IDX data are read once
    data = _prepare_data(cfg) if isinstance(cfg.data, IdxData) else None
    for seed in seeds:
        # set-up depends on the seed, not on the rate
        fed = dataclasses.replace(cfg.federation, schedule=None, seed=seed)
        ctx = build_experiment(dataclasses.replace(cfg, federation=fed), data)
        for rate, runs in per_rate.items():
            cell = dataclasses.replace(fed, rate=rate)
            try:
                runs.append(list(run_fedavg(cell, ctx.init_params, list(ctx.batches)).losses))
            except DivergenceError as e:
                failures += 1
                print(f"sweep: rate={rate} seed={seed} diverged: {e}", file=sys.stderr)
        del ctx  # hold one seed's set-up at a time

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
    print(f"sweep: {done} cells completed, {failures} failed")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out_dir) -> int:
    """Train as `train` does, but through every round, checking the rounds
    that verify.select picks; write verify.json too and exit 0 iff all pass."""
    out = Path(out_dir)
    ctx = build_experiment(cfg)
    fed = cfg.federation
    try:
        names, rounds = verify.select(
            ctx, cfg.verify.checks, cfg.verify.rounds, fed.rounds, cfg.analysis.max_gram_dim
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e
    snapshots = []  # in round order, one per selected round

    def observer(snap):
        if snap.t in rounds:
            snapshots.append(snap)

    # the selected rounds are observed whatever the loss reaches
    fed = dataclasses.replace(fed, stop_loss_fraction=None)
    cfg = dataclasses.replace(cfg, federation=fed)  # both headers record the run
    _train("verify", cfg, ctx, out, observer=observer)
    reports = verify.run_checks(ctx, names, snapshots)
    all_passed = all(r.passed for r in reports)
    _write_json(
        out / "verify.json",
        {"passed": all_passed, **_header(cfg, ctx), "checks": [_report_dict(r) for r in reports]},
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
        ("verify", "train, run theory checks and emit trace files and verify.json"),
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
    except verify.ReplayError as e:
        print(f"not reproduced: {e}", file=sys.stderr)
        return EXIT_NOT_REPRODUCED


if __name__ == "__main__":
    sys.exit(main())
