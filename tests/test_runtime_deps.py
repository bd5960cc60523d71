"""The runtime needs numpy only; scipy is a test dependency (oracles)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twinbeams

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_leaves_scipy_out():
    env = {**os.environ, "PYTHONPATH": str(Path(twinbeams.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, twinbeams.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
