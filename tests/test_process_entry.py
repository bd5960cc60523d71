"""The CLI as a process.  `python -m twinbeams.cli` and the installed
`twinbeams` script both run `cli.entry`, which loads numpy and the
analytic layers, freezes the collector once and then runs `main`; `main`
called from Python sets no process policy.  A command run as a process
gives the exit code, stderr line and output bytes of the same command run
through `main`, and a Ctrl-C or SIGTERM while numpy loads ends it by that
signal with nothing on stderr."""

import gc
import importlib
import os
import signal
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import twinbeams
from twinbeams import cli, states

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(twinbeams.__file__).parents[1]

SCENARIO = """\
schema = twinbeams-scenario-1
source = tmsv(1.1)
step = beamsplitter(0.3, 0.2)
step = loss(0.9, 0.8)
"""

# sub-vacuum noise on every quadrature violates the uncertainty bound: the
# one way to exit 3, since every source the grammar builds is physical
SUB_VACUUM = """\
import numpy as np
from twinbeams import states
states.make_vacuum = lambda: states.GaussianTwoModeState(np.zeros(4), 0.5 * np.eye(4))
"""

# counts the process's gc.freeze calls into the file `freezes` at exit
FREEZE_COUNTER = """\
import atexit, gc, pathlib
calls, freeze = [], gc.freeze
gc.freeze = lambda: calls.append(1) or freeze()
atexit.register(lambda: pathlib.Path("freezes").write_text(str(len(calls))))
"""


# sends the process a signal when it imports numpy, as a Ctrl-C or a kill
# during start-up would
SIGNAL_AT_NUMPY = """\
import signal, sys
class SignalAtNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            signal.raise_signal(signal.{signal})
sys.meta_path.insert(0, SignalAtNumpy())
"""


def _sub_vacuum():
    return states.GaussianTwoModeState(np.zeros(4), 0.5 * np.eye(4))


def _process(argv, cwd, *, pythonpath=(), start=("-m", "twinbeams.cli"), **kwargs):
    """`python -X dev -W error *start argv` in cwd, start `-m twinbeams.cli` by default."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*map(str, pythonpath), str(SRC)])}
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *start, *argv],
                          cwd=cwd, env=env, capture_output=True, timeout=120, **kwargs)


def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("scenario, argv, code", [
    (SCENARIO, ["run", "--scenario", "scn.txt"], 0),
    (SCENARIO, ["sweep", "--scenario", "scn.txt", "--param", "source.r", "--grid", "0:2:21",
                "--out", "sweep.csv"], 0),
    (SCENARIO, ["sample", "--scenario", "scn.txt", "--n", "1000", "--seed", "11",
                "--out", "batch.csv"], 0),
    (SCENARIO, ["estimate", "--batch", "batch.csv", "--out", "estimates.json"], 0),
    ("schema = twinbeams-scenario-1\nsource = nope()\n",
     ["run", "--scenario", "scn.txt", "--out", "report.json"], 2),
    ("schema = twinbeams-scenario-1\nsource = vacuum\n",
     ["run", "--scenario", "scn.txt", "--out", "report.json"], 3),
], ids=["run", "sweep", "sample", "estimate", "exit-2", "exit-3"])
def test_module_run_equals_main(tmp_path, capsysbinary, monkeypatch, scenario, argv, code):
    where = {side: tmp_path / side for side in ("process", "main")}
    for directory in where.values():
        directory.mkdir()
        (directory / "scn.txt").write_text(scenario, encoding="utf-8")
        if argv[0] == "estimate":
            assert cli.main(["sample", "--scenario", str(directory / "scn.txt"), "--n", "1000",
                             "--seed", "11", "--out", str(directory / "batch.csv")]) == 0
    site = tmp_path / "site"
    site.mkdir()
    if code == 3:
        (site / "sitecustomize.py").write_text(SUB_VACUUM, encoding="utf-8")
        monkeypatch.setattr(states, "make_vacuum", _sub_vacuum)
    capsysbinary.readouterr()

    proc = _process(argv, where["process"], pythonpath=[site])
    monkeypatch.chdir(where["main"])
    assert cli.main(argv) == code
    out, err = capsysbinary.readouterr()

    assert proc.returncode == code
    assert proc.stderr == err
    assert len(err.splitlines()) == (code != 0)
    assert proc.stdout == out
    assert _files(where["process"]) == _files(where["main"])


def test_module_run_freezes_once(tmp_path):
    (tmp_path / "scn.txt").write_text(SCENARIO, encoding="utf-8")
    (tmp_path / "sitecustomize.py").write_text(FREEZE_COUNTER, encoding="utf-8")
    proc = _process(["run", "--scenario", "scn.txt", "--out", "report.json"], tmp_path,
                    pythonpath=[tmp_path])
    assert proc.returncode == 0 and proc.stderr == b""
    assert (tmp_path / "freezes").read_text() == "1"


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
@pytest.mark.parametrize("start", [("-c", "from twinbeams.cli import entry; entry()"),
                                   ("-m", "twinbeams.cli")], ids=["entry", "module"])
def test_signal_while_numpy_loads_ends_by_it(tmp_path, start, signum):
    # numpy loads inside entry(), where Ctrl-C and SIGTERM are handled
    site, work = tmp_path / "site", tmp_path / "work"
    site.mkdir()
    work.mkdir()
    (site / "sitecustomize.py").write_text(SIGNAL_AT_NUMPY.format(signal=signum.name),
                                           encoding="utf-8")
    (work / "scn.txt").write_text(SCENARIO, encoding="utf-8")
    proc = _process(["run", "--scenario", "scn.txt", "--out", "report.json"], work,
                    pythonpath=[site], start=start)
    assert proc.returncode == -signum
    assert proc.stderr == b""
    assert [path.name for path in work.iterdir()] == ["scn.txt"]


def test_console_script_is_the_entry():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = pyproject["project"]["scripts"]["twinbeams"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entry


def test_entry_freezes_once_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append(("main", argv)) or 7)
    assert cli.entry() == 7
    assert calls == ["freeze", ("main", None)]


# runs entry() with a `main` that records the SIGTERM handler it runs under
SIGTERM_SEEN = """\
import signal, sys
from twinbeams import cli
if sys.argv[1] == "ignored":
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
seen = []
cli.main = lambda: seen.append(signal.getsignal(signal.SIGTERM)) or 0
assert cli.entry() == 0
print(seen[0] is cli._terminate, seen[0] == signal.SIG_IGN, signal.getsignal(signal.SIGTERM).name)
"""


@pytest.mark.parametrize("start, printed", [
    ("default", ["True", "False", "SIG_DFL"]),
    ("ignored", ["False", "True", "SIG_IGN"]),
])
def test_entry_handles_sigterm_only_while_main_runs(start, printed):
    # the handler turns SIGTERM into Ctrl-C's exception path; a process
    # started ignoring SIGTERM keeps ignoring it
    proc = subprocess.run([sys.executable, "-c", SIGTERM_SEEN, start], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == printed


def test_main_sets_no_collector_policy(tmp_path):
    scn = tmp_path / "scn.txt"
    scn.write_text(SCENARIO, encoding="utf-8")
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["run", "--scenario", str(scn)]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_import_sets_no_collector_policy():
    code = "import gc, twinbeams.cli\nprint(gc.get_freeze_count(), gc.isenabled())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]


class TestEstimateFromStdin:
    """`estimate --batch /dev/stdin` reads a batch redirected from a file; a
    pipe cannot be read twice, and the error says so."""

    @pytest.fixture
    def batch(self, tmp_path):
        scn = tmp_path / "scn.txt"
        scn.write_text(SCENARIO, encoding="utf-8")
        path = tmp_path / "batch.csv"
        assert cli.main(["sample", "--scenario", str(scn), "--n", "300", "--seed", "5",
                         "--out", str(path)]) == 0
        return path

    def test_pipe_exit_2_one_line(self, tmp_path, batch):
        proc = _process(["estimate", "--batch", "/dev/stdin", "--out", "estimates.json"],
                        tmp_path, input=batch.read_bytes())
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            "error: /dev/stdin: the batch must be a file that can be read twice, "
            "and a pipe cannot be"]
        assert proc.stdout == b""
        assert not (tmp_path / "estimates.json").exists()

    def test_file_redirected_to_stdin_estimates(self, tmp_path, batch):
        with open(batch, "rb") as stdin:
            proc = _process(["estimate", "--batch", "/dev/stdin", "--out", "piped.json"],
                            tmp_path, stdin=stdin)
        assert proc.returncode == 0 and proc.stderr == b""
        assert cli.main(["estimate", "--batch", str(batch),
                         "--out", str(tmp_path / "named.json")]) == 0
        assert (tmp_path / "piped.json").read_bytes() == (tmp_path / "named.json").read_bytes()
