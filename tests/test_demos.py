"""The demo scripts and the README's Python blocks run to completion.

Each runs in a fresh process with the package's source on the path, so a
removed export, keyword argument or attribute fails here, not only a removed
import. verify_pipeline.py, which drives every verify check through the
CLI and reads the trace from the same run, must also report that every
check passed.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _python(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=os.environ | {"PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    proc = _python(str(path))
    assert proc.returncode == 0, proc.stderr
    if path.name == "verify_pipeline.py":
        assert "all passed: True" in proc.stdout


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python block"
    for i, block in enumerate(blocks):
        proc = _python("-c", block)
        assert proc.returncode == 0, f"README.md python block {i}:\n{proc.stderr}"
