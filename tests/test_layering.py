"""The module layering: states.py holds the states and the linear-optical
maps and imports nothing from the package; criteria.py owns the measured
moments that every criterion reads; the package exports each name of its
modules as the object that module holds."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import twinbeams
from twinbeams import criteria, sampling, states


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


def test_star_import_binds_every_name_to_its_defining_module():
    namespace = {}
    exec("from twinbeams import *", namespace)
    exported = {name: obj for name, obj in namespace.items() if name != "__builtins__"}
    assert sorted(exported) == sorted(twinbeams.__all__) and len(exported) == 28
    for name, obj in exported.items():
        assert vars(sys.modules[obj.__module__])[name] is obj


def test_sampling_names_follow_a_rebinding(monkeypatch):
    # looked up in sampling on each use, never cached in the package
    monkeypatch.setattr(sampling, "draw_samples", lambda *args: "rebound")
    assert twinbeams.draw_samples() == "rebound"
    assert "draw_samples" not in vars(twinbeams)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="^module 'twinbeams' has no attribute 'nope'$"):
        getattr(twinbeams, "nope")
