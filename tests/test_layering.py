"""The package's import layering, read from the sources without importing them.

Only the CLI imports `cli`, and the library modules below the config file do
not import `config`, so `federation.FederationConfig` stays usable without
either: imports run cli -> config -> verify -> federation.
"""

import ast
from pathlib import Path

import pytest

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


def test_modules_are_found():
    assert set(BELOW_CONFIG) | {"cli", "config"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_only_the_cli_imports_cli(module):
    assert module == "cli" or "cli" not in _imported(module)


@pytest.mark.parametrize("module", BELOW_CONFIG)
def test_library_modules_do_not_import_config(module):
    assert "config" not in _imported(module)
