"""The demo scripts and the README's Python blocks import only names the
package still defines.

Both are read with ast rather than run, since a renamed or deleted export is
caught from the imports alone. verify_pipeline.py, which drives train and
every verify check through the CLI, also runs end to end.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _package_imports(source, filename):
    """(module, name) for every `from fedspectra[.sub] import name` in source."""
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fedspectra":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    _assert_imports_exist(path.read_text(), path.name)


def test_readme_python_imports_exist():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for i, block in enumerate(blocks):
        _assert_imports_exist(block, f"README.md python block {i}")


def _assert_imports_exist(source, label):
    imports = list(_package_imports(source, label))
    assert imports, f"{label} imports nothing from fedspectra"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{label}: {module} has no {name}"


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
