"""The module layering: states.py holds the states and the linear-optical
maps and imports nothing from the package; criteria.py owns the measured
moments that every criterion reads."""

import ast
import importlib.util
from pathlib import Path

import pytest

import twinbeams
from twinbeams import criteria, states


def test_states_imports_nothing_from_the_package():
    tree = ast.parse(Path(states.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports if node.level > 0] == []
    assert not any((node.module or "").startswith("twinbeams") for node in imports)


def test_no_moments_module():
    assert importlib.util.find_spec("twinbeams.moments") is None


@pytest.mark.parametrize("name", ["MomentPair", "DuanEprMoments", "quadrature_moments",
                                  "state_moments"])
def test_measured_moments_defined_in_criteria(name):
    obj = getattr(twinbeams, name)
    assert obj is vars(criteria)[name]
    assert obj.__module__ == "twinbeams.criteria"
    assert not hasattr(states, name)
