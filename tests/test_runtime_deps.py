"""The runtime needs numpy only, and the `test` extra names exactly the
third-party modules that the tests import besides numpy.  Importing the
package or the CLI loads no numpy and no layer (the CLI's `entry` loads
numpy and the analytic layers once the command line parses: `--help` and
a usage error load none of them), only a command that draws or reads a
batch loads the sampling stack, only `sample` and `estimate` load the
batch CSV module and its kernel, which write and read, and no command
loads concurrent.futures, logging or multiprocessing, not even where the
CSV workers are forked."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import twinbeams

ROOT = Path(__file__).resolve().parents[1]

SAMPLING_MODULES = ("twinbeams.sampling", "twinbeams.batchfile", "twinbeams._decimal")


def _loaded_after(code, packages):
    """The modules of `packages` (each a package or module name) that a
    fresh interpreter holds after running `code`, as a printed list."""
    env = {**os.environ, "PYTHONPATH": str(Path(twinbeams.__file__).parents[1])}
    report = ("print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') "
              f"for p in {packages!r})))")
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{report}"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["twinbeams", "twinbeams.cli"])
def test_import_loads_no_layer_and_no_numpy(module):
    assert _loaded_after(f"import {module}", ("numpy", "twinbeams")) == str(
        sorted({"twinbeams", module}))


# at exit, writes into the file `loaded` whether numpy is loaded
NUMPY_AT_EXIT = """\
import atexit, pathlib, sys
atexit.register(lambda: pathlib.Path("loaded").write_text(str("numpy" in sys.modules)))
"""


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["run"], 2)], ids=["help", "usage"])
def test_help_and_usage_errors_load_no_numpy(tmp_path, capsys, monkeypatch, argv, code):
    from twinbeams import cli

    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps to, here and in the process
    (tmp_path / "sitecustomize.py").write_text(NUMPY_AT_EXIT)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tmp_path), str(Path(twinbeams.__file__).parents[1])])}
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "twinbeams.cli",
                           *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60)
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert proc.returncode == exited.value.code == code
    assert (proc.stdout, proc.stderr) == capsys.readouterr()
    assert (tmp_path / "loaded").read_text() == "False"


def test_cli_import_leaves_scipy_out():
    assert _loaded_after("import twinbeams.cli", ("scipy",)) == "[]"


def test_cli_import_leaves_multiprocessing_out():
    # no module imports it: the CSV workers are forked with os.fork
    assert _loaded_after("import twinbeams.cli", ("multiprocessing",)) == "[]"


@pytest.mark.parametrize("sampled, argv, loaded", [
    ("", ["run", "--out", "report.json"], []),
    ("", ["sweep", "--param", "source.r", "--grid", "0:1:11", "--out", "sweep.csv"], []),
    ("sampling_n = 200\nsampling_seed = 1\n", ["run", "--out", "report.json"],
     ["twinbeams.sampling"]),
], ids=["run", "sweep", "sampled-run"])
def test_only_a_sampled_command_loads_sampling(tmp_path, sampled, argv, loaded):
    scn = tmp_path / "scn.txt"
    scn.write_text(f"schema = twinbeams-scenario-1\nsource = tmsv(0.5)\n{sampled}")
    argv = [*argv[:-1], str(tmp_path / argv[-1]), "--scenario", str(scn)]
    code = f"from twinbeams.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(code, SAMPLING_MODULES) == str(loaded)


@pytest.mark.parametrize("command", ["sample", "estimate"])
def test_only_sample_and_estimate_load_the_csv_kernel(tmp_path, command):
    from twinbeams.sampling import draw_samples, write_batch
    from twinbeams.states import make_vacuum

    scn, written = tmp_path / "scn.txt", tmp_path / "written.csv"
    scn.write_text("schema = twinbeams-scenario-1\nsource = tmsv(0.5)\n")
    write_batch(draw_samples(make_vacuum(), 300, 1), written)
    argv = {  # 300 rows are one chunk or range, handled in this process, not in a worker
        "sample": ["sample", "--scenario", str(scn), "--n", "300", "--seed", "1",
                   "--out", str(tmp_path / "batch.csv")],
        "estimate": ["estimate", "--batch", str(written), "--out", str(tmp_path / "out.json")],
    }[command]
    code = f"from twinbeams.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(code, SAMPLING_MODULES) == str(["twinbeams._decimal",
                                                          "twinbeams.batchfile",
                                                          "twinbeams.sampling"])


@pytest.mark.parametrize("command", ["sample", "sampled-run", "estimate"])
def test_no_command_loads_concurrent_futures_or_logging(tmp_path, command):
    # the jackknife draws a block ahead on one bare thread, not an executor,
    # and the CSV pool forks its workers itself, on any count of CPUs
    from twinbeams.sampling import DrawnBatch, write_batch
    from twinbeams.states import make_vacuum

    scn, written = tmp_path / "scn.txt", tmp_path / "written.csv"
    scn.write_text("schema = twinbeams-scenario-1\nsource = tmsv(0.5)\n"
                   "sampling_n = 2000\nsampling_seed = 1\n")
    argv = {  # sample: 3 chunks; estimate: 3 byte ranges, each on 2 forked workers
        "sample": ["sample", "--scenario", str(scn), "--n", "40000", "--seed", "1",
                   "--out", str(tmp_path / "batch.csv")],
        "sampled-run": ["run", "--scenario", str(scn), "--out", str(tmp_path / "report.json")],
        "estimate": ["estimate", "--batch", str(written), "--out", str(tmp_path / "out.json")],
    }[command]
    if command == "estimate":
        write_batch(DrawnBatch(make_vacuum(), 100_000, 1), written)
    code = ("from twinbeams import batchfile\nbatchfile._cpu_count = lambda: 2\n"
            f"from twinbeams.cli import main\nassert main({argv!r}) == 0")
    assert _loaded_after(code, ("concurrent.futures", "logging", "multiprocessing")) == "[]"


def test_declared_dependencies_are_numpy_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_test_extra_names_the_modules_the_tests_import():
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"][
        "optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", dep).group() for dep in extra}
    tests = list((ROOT / "tests").glob("*.py"))
    imported = set()
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    # numpy is a runtime dependency; twinbeams and the test modules are ours
    ours = {"numpy", "twinbeams", *(path.stem for path in tests)}
    assert imported - set(sys.stdlib_module_names) - ours == declared
