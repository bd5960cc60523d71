"""The CLI keeps its contract on generated scenario files and sweeps.

Each `run` or `sweep` of a scenario written from the file grammar, with
numbers from a pool of boundary doubles, exits 0, 2 or 3 with no
exception escaping.  An error prints exactly one stderr line and leaves
no output file; a success prints nothing on stderr and writes only
finite numbers.  Warnings are errors throughout.  A grid is passed as
`--grid=<value>`, the form the README gives for one that begins with a
minus sign (argparse reads `--grid -1,2` as an option and prints its
usage)."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeams.cli import main
from twinbeams.scenario import SCHEMA, SOURCES, STEPS

# numbers of the domain, weighted eight to one against those at or past its edges
NUMBERS = ["0", "1", "0.5", "0.3", "0.9", "1.1", "2", "3.14159", "-0.0", "1e-300", "5e-324"] * 8 + [
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
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    if code == 0:
        assert stderr.getvalue() == ""
        if sweep:
            header, *rows = out.read_text().splitlines()
            assert rows and all(math.isfinite(float(cell)) for row in rows
                                for cell in row.split(","))
        else:
            json.loads(out.read_text(), parse_constant=_refuse)
    else:
        assert code in (2, 3)
        [line] = stderr.getvalue().splitlines()
        assert line.startswith("physicality error: " if code == 3 else "error: ")
        assert not out.exists()
