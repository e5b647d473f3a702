"""The demo scripts import only names the package still defines.

The demos are read with ast rather than run, since a renamed or deleted
export is caught from the imports alone. verify_pipeline.py, which drives
train and every verify check through the CLI, also runs end to end.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _package_imports(path):
    """(module, name) for every `from fedspectra[.sub] import name` in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fedspectra":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = list(_package_imports(path))
    assert imports, f"{path.name} imports nothing from fedspectra"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{path.name}: {module} has no {name}"


def test_verify_pipeline_demo_runs_and_passes():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "verify_pipeline.py")],
        env=os.environ | {"PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all passed: True" in proc.stdout
