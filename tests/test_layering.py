"""The package's layering: its imports, and where config value rules run.

Only the CLI imports `cli`, and the library modules below the config file do
not import `config`, so `federation.FederationConfig` stays usable without
either: imports run cli -> config -> verify -> federation. Every config
section runs its field rules through `federation.Settings` on construction,
and `config.py` runs none of them itself. Only `federation` sets numpy's BLAS
thread count, so no other module knows when it is held, and only it starts
threads, in one thread pool, `federation.scheduler`, whose rule the rounds'
clients and the verify checks share and which reads no clock: each parameter
class states a client's cost.
Local descent has one loop, `models._LocalDescent._descend`, which every
parameter class inherits and runs on the client state that the class picks,
and a round has one server sum, which `descend_round` forms as each client
ends and which is the only server average: a snapshot carries it, and the
first-order probes score the averages their rounds formed. A run's loss
series lives in `RunResult.losses` alone, a snapshot is a round's
record with more fields, and only `analysis` computes the factor rho_t.
Each check is written in `verify` alone, and `analysis` builds no report.
No check reads the iterates a snapshot kept: verify descends each observed
round again and measures each iterate as it is formed, so its run keeps none.
An option with one value in use is a constant: a run's observer sees every
round, a round lends each iterate to keep, and every first-order prediction
is scored against the residual its round reached.
Samples are one type, `models.LabeledBatch`, from the data files to each
client, and the checks read the data's singular values from `RunContext`.
The model kind is decided by its classes: set-up asks the config's model
section and the Gram size the parameter class, so `cli` names no per-kind
function or class, and in `verify` only the check table and the three bound
formulas that differ by kind name the kind.
"""

import ast
import dataclasses
import inspect
import textwrap
import typing
from pathlib import Path

import pytest

import fedspectra
from fedspectra import analysis, cli, data, federation, models, verify
from fedspectra.config import DeepLinearModel, ExperimentConfig, TwoLayerModel
from fedspectra.federation import RoundSnapshot, RoundTrace, Settings
from fedspectra.models import DeepLinearParams, TwoLayerParams, _LocalDescent

SRC = Path(__file__).resolve().parent.parent / "src" / "fedspectra"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
BELOW_CONFIG = ("rng", "models", "data", "federation", "analysis", "verify")


def _imported(module) -> set:
    """The fedspectra modules that `module` imports, relatively or not."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["fedspectra" if node.level else "", node.module]))
            targets = [f"{base}.{a.name}" for a in node.names] if base == "fedspectra" else [base]
        elif isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        else:
            continue
        found.update(t.split(".")[1] for t in targets if t.startswith("fedspectra."))
    return found


def _names(module) -> set:
    """Every name, attribute, imported name and definition that `module`
    mentions."""
    nodes = list(ast.walk(ast.parse((SRC / f"{module}.py").read_text())))
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    names |= {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
    return names


def test_modules_are_found():
    assert set(BELOW_CONFIG) | {"cli", "config"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_only_the_cli_imports_cli(module):
    assert module == "cli" or "cli" not in _imported(module)


@pytest.mark.parametrize("module", BELOW_CONFIG)
def test_library_modules_do_not_import_config(module):
    assert "config" not in _imported(module)


@pytest.mark.parametrize("module", MODULES)
def test_only_federation_knows_the_blas_thread_policy(module):
    # models defines blas_threads; federation's pools alone call it
    assert module in ("models", "federation") or "blas_threads" not in _names(module)


def _imported_stdlib(module) -> set:
    """The modules outside fedspectra that `module` imports, named as the
    import statement names them (`concurrent.futures`)."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_only_federation_starts_threads(module):
    # federation.scheduler decides when work runs side by side
    imported = _imported_stdlib(module)
    threads = {"threading", "_thread", "concurrent", "concurrent.futures"}
    assert module == "federation" or not imported & threads


def _pool_sites() -> list:
    """(module, innermost function) of every call in the package that
    constructs a ThreadPoolExecutor, however it is imported."""
    sites = []

    def visit(module, node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Call):
            called = {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
            if "ThreadPoolExecutor" in called:
                sites.append((module, where))
        for child in ast.iter_child_nodes(node):
            visit(module, child, where)

    for module in MODULES:
        visit(module, ast.parse((SRC / f"{module}.py").read_text()), None)
    return sites


def test_one_scheduler_constructs_the_only_thread_pool():
    # run_fedavg, local_round and verify.run_checks each open it; no second
    # pool type decides its own thread count or how a serial round runs
    assert _pool_sites() == [("federation", "scheduler")]
    assert not {"client_pool", "unit_pool", "_round_descent"} & set(vars(federation))


def test_federation_schedules_by_stated_cost_not_by_the_clock():
    # whether a round runs side by side is read off the shapes, the same in
    # every run and on every host
    assert "time" not in _imported_stdlib("federation")
    assert not _names("federation") & {"perf_counter", "monotonic", "time"}


@pytest.mark.parametrize("cls", _LocalDescent.__subclasses__(), ids=lambda c: c.__name__)
def test_every_parameter_class_states_its_client_cost(cls):
    # federation.scheduler compares it with SIDE_BY_SIDE_COST
    assert "client_cost" in vars(cls)


@pytest.mark.parametrize("cls", [DeepLinearParams, TwoLayerParams], ids=lambda c: c.__name__)
def test_local_descent_has_one_loop(cls):
    # a new way to descend arrives as a client state (_client), not a loop
    assert "_descend" not in vars(cls) and cls._descend is _LocalDescent._descend


def test_a_round_has_one_server_sum():
    # descend_round sums each last iterate as its client ends, kept or not;
    # a parameter class that could average snapshots would be a second path
    for cls in (DeepLinearParams, TwoLayerParams, _LocalDescent):
        assert not hasattr(cls, "average")
    assert "_mean" not in vars(models) and "local_trajectory" not in vars(federation)


def test_first_order_scaling_scores_the_rounds_own_averages():
    # both probes read the average a round formed as it ran: the eta probe's
    # is the snapshot's `averaged`, the eta/2 probe's comes from its round
    tree = ast.parse(textwrap.dedent(inspect.getsource(verify.first_order)))
    nodes = list(ast.walk(tree))
    assert "averaged" in {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    calls = [n.func for n in nodes if isinstance(n, ast.Call)]
    assert not [f for f in calls if isinstance(f, ast.Attribute) and f.attr == "average"]


def test_each_check_is_written_once_in_verify():
    # a check's measured value, bound and report live in its CHECKS
    # functions; analysis keeps the mathematics that the checks measure with
    rows = verify.CHECKS.values()
    functions = [fn for row in rows for fn in (row.check, row.measure) if fn]
    assert all(fn.__module__ == verify.__name__ for fn in functions)
    assert not [name for name in vars(analysis) if name.startswith("check_")]
    assert not _names("analysis") & {"make_report", "CheckReport"}
    assert "federation" not in _imported("analysis")


def test_no_check_reads_the_iterates_a_snapshot_kept():
    # a check that reads local iterates measures each as verify.redescend
    # forms it again: a snapshot holds none, and no observed run can be
    # asked to keep any
    assert "trajectories" not in _names("verify")
    assert [f.name for f in dataclasses.fields(federation.RoundSnapshot)] == [
        "t", "members", "local_losses", "global_params", "averaged"
    ]
    assert "keep" not in inspect.signature(federation.run_fedavg).parameters


def test_options_with_one_value_in_use_are_constants():
    # verify's observer keeps the rounds it selected; a caller that wants an
    # iterate past the client's next step copies it in keep
    assert "observe_rounds" not in inspect.signature(federation.run_fedavg).parameters
    assert "_the_iterate" not in vars(models)
    for state in (models._DenseClient, models._SampleSpaceClient):
        assert list(inspect.signature(state.iterate).parameters) == ["self"]
    scored = inspect.signature(analysis.predict_first_order).parameters["next_residual"]
    assert scored.default is inspect.Parameter.empty
    assert not {"width", "height"} & set(inspect.signature(cli._svg_plot).parameters)


def test_the_data_are_described_once():
    # data loads, draws, preprocesses and splits LabeledBatch, the clients'
    # type; the checks read X's and each X_c's spectrum off RunContext
    for module in (data, fedspectra):
        assert "Dataset" not in vars(module)
    assert "sigma_min_nonzero" not in vars(analysis) | vars(fedspectra)
    assert "_literal_lambda_min_gram" not in vars(verify)


def test_only_analysis_computes_the_contraction_factor():
    # cli takes rho_t and the bound from one analysis.bound_series call
    assert "contraction_factor" not in _names("cli")


def test_a_round_is_recorded_once():
    # the losses before and after round t are RunResult.losses[t] and [t + 1]
    record = [f.name for f in dataclasses.fields(RoundTrace)]
    assert record == ["t", "members", "local_losses"]
    assert issubclass(RoundSnapshot, RoundTrace)
    assert not set(inspect.get_annotations(RoundSnapshot)) & set(record)


SECTIONS = [
    cls
    for f in dataclasses.fields(ExperimentConfig)
    for cls in typing.get_args(f.type) or (f.type,)
]


@pytest.mark.parametrize("cls", SECTIONS, ids=lambda cls: cls.__name__)
def test_every_config_section_runs_the_shared_rule_path(cls, monkeypatch):
    seen = []
    shared = Settings.__post_init__

    def spy(self):
        seen.append(type(self))
        shared(self)

    monkeypatch.setattr(Settings, "__post_init__", spy)
    try:
        cls()
    except ValueError:  # a section whose defaults break its own rules
        pass
    assert seen == [cls]


def test_config_runs_no_value_rule_outside_construction():
    nodes = list(ast.walk(ast.parse((SRC / "config.py").read_text())))
    assert not _names("config") & {"check_setting", "metadata"}
    assert not [n for n in nodes if isinstance(n, ast.keyword) and n.arg == "read"]


def _owners_mentioning(module, names, attrs) -> set:
    """The top-level definitions of `module` (functions, methods by their own
    name, assigned names) that mention any of `names` or any attribute in
    `attrs`."""
    owners = set()
    for top in ast.parse((SRC / f"{module}.py").read_text()).body:
        parts = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in parts:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = {node.name}
            elif isinstance(node, ast.Assign):
                owner = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                owner = {top.name} if isinstance(top, ast.ClassDef) else set()
            for n in ast.walk(node):
                if (isinstance(n, ast.Name) and n.id in names) or (
                    isinstance(n, ast.Attribute) and n.attr in attrs
                ):
                    owners |= owner
    return owners


def test_the_model_kind_is_decided_by_its_classes():
    # set-up asks the config's model section, and the Gram size the
    # parameter class; only the check table and the bound formulas that
    # differ by kind name the kind
    per_kind = {
        "DeepLinearModel", "TwoLayerModel", "DeepLinearParams", "TwoLayerParams",
        "init_deep_linear", "init_two_layer", "relu_targets", "gram_P0_lambda_min",
        "gram_H_infinity",
    }
    assert not _names("cli") & per_kind
    tree = ast.parse((SRC / "config.py").read_text())
    (cfg,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig"]
    calls = [n for n in ast.walk(cfg) if isinstance(n, ast.Call)]
    tests = [c for c in calls if isinstance(c.func, ast.Name) and c.func.id == "isinstance"]
    assert not [c for c in tests if "model" in ast.unparse(c.args[0])]
    assert not {n.id for c in tests for n in ast.walk(c) if isinstance(n, ast.Name)} & per_kind
    allowed = {
        "LINEAR", "RELU", "CHECKS", "known_checks", "select",
        "drift_radius", "local_descent", "local_deviation",
    }
    assert _owners_mentioning("verify", {"LINEAR", "RELU"}, {"kind"}) <= allowed


def test_model_sections_keep_their_keys():
    # a per-kind constant on a section is unannotated, so no new config key
    fields = [[f.name for f in dataclasses.fields(c)] for c in (DeepLinearModel, TwoLayerModel)]
    assert fields == [["width", "depth", "d_in", "d_out"], ["width", "dim"]]
