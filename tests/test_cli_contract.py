"""The CLI keeps its contract on generated scenario files and sweeps.

Each `run`, `sweep` or `sample` of a scenario written from the file
grammar, with numbers from a pool of boundary doubles, exits 0, 2 or 3
with no exception escaping.  An error prints exactly one stderr line and
leaves no output file; a success prints nothing on stderr and writes only
finite numbers, and a sample batch reads back through `estimate` to the
estimates of the same batch drawn in memory.  Warnings are errors
throughout.  A grid is passed as `--grid=<value>`, the form the README
gives for one that begins with a minus sign (argparse reads `--grid -1,2`
as an option and prints its usage)."""

import contextlib
import errno
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twinbeams
from twinbeams import sampling
from twinbeams.cli import main
from twinbeams.scenario import SCHEMA, SOURCES, STEPS, build_state, load_scenario

# numbers of the domain, weighted eight to one against those at or past its edges
DOMAIN = ["0", "1", "0.5", "0.3", "0.9", "1.1", "2", "3.14159", "-0.0", "1e-300", "5e-324"]
NUMBERS = DOMAIN * 8 + [
    "-1", "400", "1e75", "9.999999999999999e74", "1.0000000000000002e75", "1e308", "-1e308",
    "nan", "inf", "-inf", "1_0", "0x10", "1e", ""]
MODES = ["1", "2"] * 4 + ["0", "3", "1.5"]
PARAMS = ["r", "f", "s", "theta", "eta", "step9.eta", "source.mode", "theta_plus", "nothing"]
GRIDS = ["0:1:11", "0:1:2", "-1,2", "-3.14:3.14:5", "0.1,0.2", "1,2,3"] * 4 + [
    "0,1e308", "-1e308,0", "5e-324,1e75", "0:1e308:3", "1:1:2", "0:1:1", "0:1:1.5", ",",
    "0.1,,0.2", "nan,1"]
EXTRA_LINES = [b"", b"# a note", b"out = elsewhere.json"] * 8 + [
    b"# caf\xe9 au lait", b"\xe9", b"foo = 1", b"= 1", b"source", b"source = vacuum"]


@st.composite
def calls(draw, table, where):
    """An operation of the table, now and then an unknown one, mostly
    with the right number of arguments, and the sweep names of its
    parameters at `where`."""
    name = draw(st.sampled_from(sorted(table) * 10 + ["squeeze"]))
    params = table[name][0] if name in table else ("x",)
    count = draw(st.sampled_from([len(params)] * 10 + [len(params) + 1, len(params) - 1]))
    args = [draw(st.sampled_from(MODES if (name, k) == ("sms", 0) else NUMBERS))
            for k in range(max(count, 0))]
    return f"{name}({', '.join(args)})", [f"{where}.{p}" for p in params]


@st.composite
def scenarios(draw):
    """The bytes of a scenario file, and a parameter to sweep: mostly one
    that the file holds."""
    source, names = draw(calls(SOURCES, "source"))
    lines = [f"schema = {draw(st.sampled_from([SCHEMA] * 9 + ['twinbeams-scenario-2']))}",
             f"source = {source}"]
    for k in range(1, draw(st.integers(0, 3)) + 1):
        step, step_names = draw(calls(STEPS, f"step{k}"))
        lines.append(f"step = {step}")
        names += step_names
    lines += [f"{key} = {draw(st.sampled_from(NUMBERS))}"
              for key in ("theta_plus", "theta_minus") if draw(st.booleans())]
    if draw(st.integers(0, 4)) == 0:  # now and then sampled, at a small n
        lines += [f"sampling_n = {draw(st.sampled_from(['200', '1000', '199', '-1', '2.5']))}",
                  f"sampling_seed = {draw(st.sampled_from(['0', '7', '-1']))}"]
    data = [line.encode() for line in lines]
    data.insert(draw(st.integers(0, len(data))), draw(st.sampled_from(EXTRA_LINES)))
    return b"\n".join(data) + b"\n", draw(st.sampled_from(names * 3 + PARAMS))


def _scenario(*lines: str) -> bytes:
    return "".join(f"{line}\n" for line in (f"schema = {SCHEMA}", *lines)).encode()


def _refuse(constant):
    raise ValueError(f"{constant} in the report")


def _main(argv) -> tuple:
    """The exit code of the CLI on argv, run in this process with warnings
    as errors, and what it printed on stderr."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    return code, stderr.getvalue()


def _error_line(code: int, stderr: str) -> str:
    """The one stderr line of a failed command, checked against its exit code."""
    assert code in (2, 3)
    [line] = stderr.splitlines()
    assert line.startswith("physicality error: " if code == 3 else "error: ")
    return line


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=200)
@given(scenario=scenarios(), sweep=st.booleans(), grid=st.sampled_from(GRIDS))
# squeezing whose covariance overflows: one line naming the parameter
@example(scenario=(_scenario("source = tmsv(1e308)"), "r"), sweep=False, grid="0:1:2")
@example(scenario=(_scenario("source = sms(2, -1e308, 0)"), "s"), sweep=False, grid="0:1:2")
# the same, where exp(-2 * 1e308) is 0 with the CPU's overflow flag set
@example(scenario=(_scenario("source = sms(1, 1e308, 0)"), "s"), sweep=False, grid="0:1:2")
# a grid that begins with a minus sign
@example(scenario=(_scenario("source = tmsv(0.5)"), "r"), sweep=True, grid="-1,2")
@example(scenario=(_scenario("source = sms(1, 0.5, 0)"), "s"), sweep=True, grid="-1,2")
# a comment that is not UTF-8: the line is named
@example(scenario=(b"# caf\xe9 au lait\n" + _scenario("source = tmsv(0.5)"), "r"), sweep=False,
         grid="0:1:2")
def test_run_and_sweep_keep_the_contract(workdir, scenario, sweep, grid):
    scenario, param = scenario
    scn, out = workdir / "scn.txt", workdir / ("sweep.csv" if sweep else "report.json")
    scn.write_bytes(scenario)
    out.unlink(missing_ok=True)
    argv = (["sweep", "--scenario", str(scn), "--param", param, f"--grid={grid}"] if sweep
            else ["run", "--scenario", str(scn)]) + ["--out", str(out)]
    code, stderr = _main(argv)
    if code == 0:
        assert stderr == ""
        if sweep:
            header, *rows = out.read_text().splitlines()
            assert rows and all(math.isfinite(float(cell)) for row in rows
                                for cell in row.split(","))
        else:
            json.loads(out.read_text(), parse_constant=_refuse)
    else:
        _error_line(code, stderr)
        assert not out.exists()


@st.composite
def domain_scenarios(draw):
    """The bytes of a scenario file of known operations with the right
    number of arguments, each of them drawn from the domain's numbers."""
    def call(table):
        name = draw(st.sampled_from(sorted(table)))
        args = [draw(st.sampled_from(["1", "2"] if (name, k) == ("sms", 0) else DOMAIN))
                for k in range(len(table[name][0]))]
        return f"{name}({', '.join(args)})"

    return _scenario(f"source = {call(SOURCES)}",
                     *(f"step = {call(STEPS)}" for _ in range(draw(st.integers(0, 3)))))


# `sample` at small n, mostly of states in the domain; now and then of a file
# it refuses, or to a directory that does not exist
SAMPLE_SCENARIOS = st.one_of(domain_scenarios(), scenarios().map(lambda drawn: drawn[0]))
SAMPLE_OUTS = st.sampled_from(["batch.csv"] * 9 + ["missing/batch.csv"])


@settings(max_examples=150)
@given(scenario=SAMPLE_SCENARIOS, n=st.integers(200, 3000), seed=st.integers(0, 2 ** 32),
       out=SAMPLE_OUTS, pool=st.booleans())
# an n or a seed it refuses
@example(scenario=_scenario("source = tmsv(0.5)"), n=1, seed=1, out="batch.csv", pool=True)
@example(scenario=_scenario("source = tmsv(0.5)"), n=1000, seed=-1, out="batch.csv", pool=True)
# the file named whole, not its missing directory; no worker is forked
@example(scenario=_scenario("source = tmsv(0.5)"), n=1000, seed=1, out="missing/batch.csv",
         pool=True)
@example(scenario=_scenario("source = tmsv(0.5)"), n=3000, seed=7, out="batch.csv", pool=True)
def test_sample_keeps_the_contract(workdir, scenario, n, seed, out, pool):
    # pool: chunks of 256 rows, so that a batch of more than one runs on a
    # worker per CPU (on one CPU, in this process)
    scn, out = workdir / "scn.txt", workdir / out
    scn.write_bytes(scenario)
    out.unlink(missing_ok=True)
    argv = ["sample", "--scenario", str(scn), "--n", str(n), "--seed", str(seed),
            "--out", str(out)]
    missing = not out.parent.exists()
    with pytest.MonkeyPatch.context() as patch:
        if pool:
            patch.setattr(sampling, "WRITE_CHUNK", 256)
        with mock.patch.object(os, "fork", side_effect=AssertionError("forked")) if missing \
                else contextlib.nullcontext():
            code, stderr = _main(argv)
        if code:
            line = _error_line(code, stderr)
            assert not out.exists()
            assert repr(str(out.parent)) not in line  # a missing directory is named by the file
            return
        assert stderr == ""
        scn = load_scenario(scn)
        try:
            expected = sampling.estimate_criteria(sampling.draw_samples(
                build_state(scn), n, seed, scn.source.format()))
        except ValueError as exc:  # a degenerate batch: `estimate` names the file
            expected = exc
    report = workdir / "estimate.json"
    report.unlink(missing_ok=True)
    code, stderr = _main(["estimate", "--batch", str(out), "--out", str(report)])
    if isinstance(expected, ValueError):
        assert _error_line(code, stderr) == f"error: {out}: {expected}"
        assert not report.exists()
    else:
        assert (code, stderr) == (0, "")
        assert report.read_text() == json.dumps(expected.to_json(), indent=2,
                                                sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "{scn}"],
    ["sweep", "--scenario", "{scn}", "--param", "source.r", "--grid", "0,1"],
    ["sample", "--scenario", "{scn}", "--n", "1000", "--seed", "1"],
    ["estimate", "--batch", "{batch}"],
], ids=["run", "sweep", "sample", "estimate"])
def test_out_in_a_missing_directory_is_named_whole(tmp_path, argv):
    scn, batch = tmp_path / "scn.txt", tmp_path / "batch.csv"
    scn.write_bytes(_scenario("source = tmsv(0.5)"))
    sampling.write_batch(sampling.draw_samples(build_state(load_scenario(scn)), 1000, 1), batch)
    out = tmp_path / "missing" / "out"
    code, stderr = _main([arg.format(scn=scn, batch=batch) for arg in argv] + ["--out", str(out)])
    assert (code, stderr) == (2, f"error: [Errno 2] No such file or directory: {str(out)!r}\n")
    assert not out.parent.exists()


def _commands(tmp_path) -> dict:
    """The argv of each command, but its --out: a sampled run and a
    2001-point sweep of one scenario, a sample of it and an estimate of a
    batch of it."""
    scn, batch = tmp_path / "scn.txt", tmp_path / "batch.csv"
    scn.write_bytes(_scenario("source = tmsv(0.5)", "sampling_n = 1000", "sampling_seed = 1"))
    sampling.write_batch(sampling.draw_samples(build_state(load_scenario(scn)), 1000, 1), batch)
    return {
        "run": ["run", "--scenario", str(scn)],
        "sweep": ["sweep", "--scenario", str(scn), "--param", "source.r", "--grid", "0:1:2001"],
        "sample": ["sample", "--scenario", str(scn), "--n", "1000", "--seed", "1"],
        "estimate": ["estimate", "--batch", str(batch)],
    }


# a CLI whose files may hold at most argv[1] bytes; a longer write fails with EFBIG
_LIMITED = """import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE,
                   (int(sys.argv.pop(1)), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from twinbeams.cli import main
sys.exit(main())
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit to set")
@pytest.mark.parametrize("command", ["run", "sweep", "sample", "estimate"])
def test_failed_write_leaves_no_output(tmp_path, command):
    # the limit is set in the child only; each output is longer than 1024 bytes
    out, argv = tmp_path / "out", _commands(tmp_path)[command]
    files = set(tmp_path.iterdir())
    env = {**os.environ, "PYTHONPATH": str(Path(twinbeams.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _LIMITED, "1024", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(out)!r}\n"
    assert set(tmp_path.iterdir()) == files  # neither `out` nor its temporary file


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["run", "sweep", "sample", "estimate"])
def test_write_error_names_the_file(tmp_path, command):
    code, stderr = _main(_commands(tmp_path)[command] + ["--out", "/dev/full"])
    assert (code, stderr) == (2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                                 "'/dev/full'\n")
    assert os.path.exists("/dev/full")


@pytest.mark.parametrize("command", ["run", "sweep", "sample", "estimate"])
def test_out_through_a_symlink_replaces_its_file_keeping_the_mode(tmp_path, command):
    # the file is written beside the old one and then replaces it: the same
    # bytes as a fresh file, the link still a link, the old mode, nothing left over
    argv = _commands(tmp_path)[command]
    fresh, target, link = tmp_path / "fresh", tmp_path / "target", tmp_path / "link"
    assert _main(argv + ["--out", str(fresh)]) == (0, "")
    target.write_bytes(b"an earlier file\n")
    target.chmod(0o640)
    link.symlink_to(target)
    files = set(tmp_path.iterdir())
    assert _main(argv + ["--out", str(link)]) == (0, "")
    assert target.read_bytes() == fresh.read_bytes() and link.is_symlink()
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert set(tmp_path.iterdir()) == files


def test_out_over_the_temporary_file_of_a_killed_command(tmp_path):
    # a killed command that had this process id left its temporary file
    (tmp_path / f".report.json.{os.getpid()}.tmp").write_bytes(b"cut sh")
    assert _main(_commands(tmp_path)["run"] + ["--out", str(tmp_path / "report.json")]) == (0, "")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["batch.csv", "report.json", "scn.txt"]


def _process(argv, **kwargs):
    """`python -m twinbeams.cli argv` run as a process."""
    env = {**os.environ, "PYTHONPATH": str(Path(twinbeams.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "twinbeams.cli", *argv], env=env,
                          timeout=120, **kwargs)


@pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="no /proc fd links")
@pytest.mark.parametrize("name", ["/dev/stdout", "/dev/fd/1"])
@pytest.mark.parametrize("command", ["run", "sample"])
def test_out_to_stdout_appends_to_the_shells_file(tmp_path, command, name):
    # `--out /dev/stdout >> log`: the output follows the log's earlier bytes
    # in the shell's own file, and no other file is made
    argv = _commands(tmp_path)[command]
    fresh, log = tmp_path / "fresh", tmp_path / "log"
    assert _main(argv + ["--out", str(fresh)]) == (0, "")
    log.write_bytes(b"an earlier line\n")
    inode, files = log.stat().st_ino, set(tmp_path.iterdir())
    with open(log, "ab") as stdout:
        proc = _process(argv + ["--out", name], stdout=stdout, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert log.read_bytes() == b"an earlier line\n" + fresh.read_bytes()
    assert log.stat().st_ino == inode and set(tmp_path.iterdir()) == files


@pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="no /proc fd links")
def test_out_to_a_deleted_stdout_makes_no_file(tmp_path):
    argv = _commands(tmp_path)["run"]
    files = set(tmp_path.iterdir())
    with open(tmp_path / "log", "wb") as stdout:
        os.remove(tmp_path / "log")
        proc = _process(argv + ["--out", "/dev/stdout"], stdout=stdout, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert os.fstat(stdout.fileno()).st_size > 0
    assert set(tmp_path.iterdir()) == files


def test_out_to_a_hard_linked_file_writes_it_in_place(tmp_path):
    # a rename would part the two names: both hold the new bytes
    argv = _commands(tmp_path)["run"]
    fresh, target, other = tmp_path / "fresh", tmp_path / "target", tmp_path / "other"
    assert _main(argv + ["--out", str(fresh)]) == (0, "")
    target.write_bytes(b"an earlier file\n")
    os.link(target, other)
    assert _main(argv + ["--out", str(target)]) == (0, "")
    assert target.read_bytes() == other.read_bytes() == fresh.read_bytes()
    assert os.path.samefile(target, other)


def test_out_to_a_file_with_an_attribute_writes_it_in_place(tmp_path):
    argv = _commands(tmp_path)["run"]
    fresh, target = tmp_path / "fresh", tmp_path / "target"
    assert _main(argv + ["--out", str(fresh)]) == (0, "")
    target.write_bytes(b"an earlier file\n")
    try:
        os.setxattr(target, "user.origin", b"kept")
    except (AttributeError, OSError):
        pytest.skip("no user extended attributes here")
    assert _main(argv + ["--out", str(target)]) == (0, "")
    assert target.read_bytes() == fresh.read_bytes()
    assert os.getxattr(target, "user.origin") == b"kept"


@pytest.mark.skipif(os.geteuid() != 0, reason="only root may give a file to another owner")
def test_out_keeps_the_owner_of_the_file_it_replaces(tmp_path):
    argv = _commands(tmp_path)["run"]
    target = tmp_path / "target"
    target.write_bytes(b"an earlier file\n")
    os.chown(target, 4321, 8765)
    assert _main(argv + ["--out", str(target)]) == (0, "")
    assert (target.stat().st_uid, target.stat().st_gid) == (4321, 8765)


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any directory")
def test_out_in_a_read_only_directory_writes_the_file_in_place(tmp_path):
    argv = _commands(tmp_path)["run"]
    fresh, shut = tmp_path / "fresh", tmp_path / "shut"
    assert _main(argv + ["--out", str(fresh)]) == (0, "")
    shut.mkdir()
    (shut / "report.json").write_bytes(b"an earlier file\n")
    shut.chmod(0o555)
    try:
        assert _main(argv + ["--out", str(shut / "report.json")]) == (0, "")
        assert (shut / "report.json").read_bytes() == fresh.read_bytes()
    finally:
        shut.chmod(0o755)


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_out_refuses_a_read_only_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_bytes(b"an earlier file\n")
    target.chmod(0o444)
    code, stderr = _main(_commands(tmp_path)["run"] + ["--out", str(target)])
    assert (code, stderr) == (2, f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: "
                                 f"{str(target)!r}\n")
    assert target.read_bytes() == b"an earlier file\n"


@pytest.mark.parametrize("target", ["/dev/full", "closed-pipe"])
@pytest.mark.parametrize("command", ["run", "estimate"])
def test_stdout_write_error_names_stdout(tmp_path, command, target):
    # PYTHONUNBUFFERED dropped: stdout is buffered, so without the flush in
    # `main` the write would fail first at the flush of interpreter exit
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(twinbeams.__file__).parents[1])
    argv = [sys.executable, "-m", "twinbeams.cli", *_commands(tmp_path)[command]]
    if target == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout, code = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    else:
        read, stdout = os.pipe()
        os.close(read)  # before the child starts, so its write fails whenever it comes
        code = errno.EPIPE
    try:
        proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=120)
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (
        2, f"error: [Errno {code}] {os.strerror(code)}: '<stdout>'\n")


class _FullStdout(io.StringIO):
    """A stdout with no descriptor whose every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("command", ["run", "estimate"])
def test_stdout_write_error_without_a_descriptor(tmp_path, monkeypatch, command):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code, stderr = _main(_commands(tmp_path)[command])
    assert (code, stderr) == (2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                                 "'<stdout>'\n")
