"""The runtime needs numpy only; scipy is a test dependency (oracles).
Importing the CLI loads neither scipy nor multiprocessing."""

import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import twinbeams

ROOT = Path(__file__).resolve().parents[1]


def _cli_import_loads(package):
    """Modules of `package` that a fresh `import twinbeams.cli` loads."""
    env = {**os.environ, "PYTHONPATH": str(Path(twinbeams.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, twinbeams.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_out():
    assert _cli_import_loads("scipy") == "[]"


def test_cli_import_leaves_multiprocessing_out():
    # the CSV workers import it when they start; at import it would cost ~15 ms
    assert _cli_import_loads("multiprocessing") == "[]"


def test_declared_dependencies_are_numpy_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
