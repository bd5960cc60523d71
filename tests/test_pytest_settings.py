"""The repo's pytest settings keep a failing property readable: a
generated hypothesis failure reports its falsifying example, under the
plain interpreter and under CI's `-X dev -W error`."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 10
'''


@pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]], ids=["plain", "dev"])
def test_hypothesis_failure_shows_its_example(tmp_path, flags):
    (tmp_path / "test_small.py").write_text(FAILING)
    proc = subprocess.run([sys.executable, *flags, "-m", "pytest", "-q", "-c",
                           str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_small.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1
