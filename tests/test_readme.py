"""Every fenced example in the README runs as written, so the documented
API and CLI cannot drift from the code: the Python blocks in order, in
one namespace, and the CLI lines on the scenario block saved as scn.txt."""

import re
import shlex
from pathlib import Path

from twinbeams.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


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
