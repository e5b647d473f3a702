"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["cli.cmd_train", 0.0, 10.0, -1],
        ["federation.local_trajectory", 1.0, 5.0, 0],
        ["models.loss_of", 1.5, 2.5, 1],
        ["models.predict", 1.75, 2.25, 2],
        ["models.loss_of", 6.0, 7.0, 0],
        ["models.loss_of", 6.2, 6.6, 4],  # reached through itself
    ]
    stats, covered = summarize(spans)
    assert stats["cli.cmd_train"] == {"calls": 1, "self_s": 10.0 - 4.0 - 1.0, "total_s": 10.0}
    assert stats["federation.local_trajectory"]["self_s"] == pytest.approx(3.0)
    assert stats["models.predict"]["self_s"] == pytest.approx(0.5)
    loss = stats["models.loss_of"]
    assert loss["calls"] == 3
    assert loss["self_s"] == pytest.approx((1.0 - 0.5) + (1.0 - 0.4) + 0.4)
    # the nested loss_of lies inside the outer one, so total time counts it once
    assert loss["total_s"] == pytest.approx(2.0)
    # self times add up to the time the top-level spans cover
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(covered) == 10.0


def test_overlapping_children_are_counted_once():
    spans = [["a.f", 0.0, 4.0, -1], ["b.g", 1.0, 3.0, 0], ["b.g", 2.0, 3.5, 0]]
    stats, _ = summarize(spans)
    assert stats["a.f"]["self_s"] == pytest.approx(4.0 - 2.5)


def _fake_package(monkeypatch):
    """A package whose 'federation' module binds 'models.grad' by name."""
    models = types.ModuleType("fakepkg.models")
    exec("def grad(x):\n    return 2 * x\n", vars(models))
    federation = types.ModuleType("fakepkg.federation")
    federation.grad = models.grad
    exec("def step(x):\n    return x - grad(x)\n", vars(federation))
    package = types.ModuleType("fakepkg")
    package.grad = models.grad
    for name, module in (("fakepkg", package), ("fakepkg.models", models), ("fakepkg.federation", federation)):
        monkeypatch.setitem(sys.modules, name, module)
    return package, models, federation


def test_install_patches_every_namespace_that_binds_the_function(monkeypatch):
    package, models, federation = _fake_package(monkeypatch)
    original = models.grad
    tracer = Tracer(run_id=7)
    tracer.install("fakepkg", {"models": ("grad",), "federation": ("step",)})
    assert federation.step(3) == -3
    names = [s[0] for s in tracer.spans]
    assert names == ["federation.step", "models.grad"]
    assert tracer.spans[1][3] == 0  # grad's parent is step
    assert package.grad is federation.grad is models.grad is not original
    tracer.uninstall()
    assert package.grad is federation.grad is models.grad is original


def test_absent_function_is_reported_not_raised(monkeypatch, tmp_path):
    _, models, _ = _fake_package(monkeypatch)
    tracer = Tracer()
    tracer.install("fakepkg", {"models": ("grad", "local_train"), "missing": ("f",)})
    assert tracer.absent == ["models.local_train", "missing.f"]
    models.grad(1)
    tracer.uninstall()
    stats, _ = summarize(tracer.spans)
    assert set(stats) == {"models.grad"}
    tracer.write_csv(tmp_path / "spans.csv")
    rows = (tmp_path / "spans.csv").read_text().splitlines()
    assert rows[0] == "run_id,index,name,start_s,end_s,parent"
    assert rows[1].startswith("0,0,models.grad,")


def test_tail_percentile_needs_ten_samples_above_it():
    assert bench.tail_percentile(list(range(10))) is None
    assert bench.tail_percentile(list(range(20))) == (50, 9)
    assert bench.tail_percentile(list(range(1, 101))) == (90, 90)


SMALL = {
    "model": {"kind": "deep-linear", "depth": 2, "width": 16, "d_in": 3, "d_out": 2},
    "data": {"kind": "synthetic", "n": 12},
    "federation": {"n_clients": 3, "local_steps": 2, "rounds": 3, "eta": 0.01},
}


def _run_small(tmp_path, out):
    from fedspectra.cli import main

    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL))
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0


def test_output_check_rejects_a_tampered_trace(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    _run_small(tmp_path, first)
    shutil.copytree(first, second)

    run = bench.Run("linear-train", 5, 0.0, False, workloads)
    run.command, run.expect, run.reference = "train", {}, None
    assert run.check({"exit_code": 0}, first) == []
    assert run.check({"exit_code": 0}, second) == []

    trace = second / "trace.csv"
    lines = trace.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-15))
    lines[-1] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    assert run.check({"exit_code": 0}, second) == ["trace.csv differs from the first job's"]
    assert run.check({"exit_code": 3}, first) == ["fedspectra exited 3"]
    trace.unlink()
    assert run.check({"exit_code": 0}, second) == ["missing trace.csv"]


def test_reference_comparison_tolerates_rounding_but_not_a_change(tmp_path):
    out = tmp_path / "out"
    _run_small(tmp_path, out)
    summary = workloads.summarize_outputs("train", out)
    nudged = dict(summary, final_loss=summary["final_loss"] * (1 + 1e-12))
    changed = dict(summary, final_loss=summary["final_loss"] * (1 + 1e-5))
    check = workloads.check_outputs
    assert check("linear-train", "train", out, {}, nudged) == []
    assert check("linear-train", "train", out, {}, changed)
    assert check("linear-train", "train", out, {}, dict(summary, rounds=summary["rounds"] + 1))
    assert check("linear-train", "train", out, {"perturbed_columns": 1})


def test_reference_covers_every_workload():
    reference = json.loads(bench.REFERENCE.read_text())
    assert set(reference) == set(workloads.WORKLOADS)


def test_layer_map_names_reported_metrics():
    doc = json.loads((HERE / "baseline.json").read_text())
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    names = {w["name"] for w in benchmark["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for row in doc["layer_map"]:
        assert set(row["layer_metrics"]) <= per_layer
        assert set(row["should_move"]) <= end_to_end
        assert set(row["most_work"]) | set(row["little_work"]) <= names
