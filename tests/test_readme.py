"""Every fenced example in the README runs as written, so the documented
API and CLI cannot drift from the code: the Python blocks in order, in
one namespace, and the CLI lines on the scenario block saved as scn.txt.
Every test id the README cites names a test that exists."""

import ast
import re
import shlex
from pathlib import Path

from twinbeams.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
# `tests/<file>.py::<class or function>[::<method>]`, a parameter id left off
CITED = re.findall(r"`(tests/\w+\.py(?:::\w+)+)", TEXT)


def test_every_block_is_run_below():
    assert sorted(lang for lang, _ in BLOCKS) == ["", "python", "python", "sh"]


def test_python_blocks_run(capsys):
    namespace = {}
    for lang, block in BLOCKS:
        if lang == "python":
            exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.count("\n") == 2


def test_cli_lines_run(tmp_path, monkeypatch):
    [scenario], [commands] = ([block for lang, block in BLOCKS if lang == kind]
                              for kind in ("", "sh"))
    monkeypatch.chdir(tmp_path)
    Path("scn.txt").write_text(scenario, encoding="utf-8")
    for line in commands.splitlines():
        program, *argv = shlex.split(line)
        assert program == "twinbeams" and main(argv) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "batch.csv", "estimates.json", "report.json", "scn.txt", "sweep.csv"]


def _defines(test_id: str) -> bool:
    """Whether the file of `file::name::name` defines that chain of classes
    and functions, read with ast rather than collected by pytest."""
    file, *names = test_id.split("::")
    path = ROOT / file
    if not path.is_file():
        return False
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_cited_test_ids_exist():
    assert [test_id for test_id in CITED if not _defines(test_id)] == []
    assert CITED and len(CITED) == TEXT.count(".py::")


def test_a_missing_file_class_or_function_does_not_resolve():
    assert _defines("tests/test_readme.py::test_cited_test_ids_exist")
    assert _defines("tests/test_scenario_cli.py::TestCli::test_golden_sweep_csv")
    assert not _defines("tests/test_nothing.py::test_cited_test_ids_exist")
    assert not _defines("tests/test_readme.py::TestNothing::test_cited_test_ids_exist")
    assert not _defines("tests/test_scenario_cli.py::TestCli::test_nothing")
