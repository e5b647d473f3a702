"""The demo scripts and the README's Python blocks run to completion, and
the README's config table names the keys that the config file accepts.

Each runs in a fresh process with the package's source on the path, so a
removed export, keyword argument or attribute fails here, not only a removed
import. verify_pipeline.py, which drives every verify check through the
CLI and reads the trace from the same run, must also report that every
check passed.
"""

import dataclasses
import os
import re
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

from fedspectra.config import ExperimentConfig

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


def _accepted_keys() -> set:
    """`section.field` for every field of every section class, and
    `section.kind` for each section with one class per kind."""
    keys = set()
    for section in dataclasses.fields(ExperimentConfig):
        classes = [section.type]
        if isinstance(section.type, types.UnionType):
            classes = typing.get_args(section.type)
            keys.add(f"{section.name}.kind")
        for cls in classes:
            keys.update(f"{section.name}.{f.name}" for f in dataclasses.fields(cls))
    return keys


def test_readme_config_table_names_exactly_the_accepted_keys():
    # a removed key must leave the table, and a new one join it
    text = README.read_text()
    table = text[text.index("Config reference"):].split("\n\n")[1]
    rows = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", table, re.M)
    assert len(rows) == len(set(rows)) == len(table.splitlines()) - 2
    assert set(rows) == _accepted_keys()
