"""The defect ledger: each confident wrong output on record is a strict
xfail.  An entry asserts the truth, which is exact (a closed form, or two
commands that score the same rows), and its reason names the ROADMAP item
that will mend it and says what the program does today.  A change that
mends an entry turns it into a plain test; an entry leaves the ledger
only that way.  Item 1's mapped-vacuum xfails stay in
`tests/test_criteria.py::TestClassify::test_mapped_vacuum_satisfies_nothing`."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twinbeams
from twinbeams.cli import main
from twinbeams.criteria import classify
from twinbeams.sampling import SampleBatch, draw_samples, estimate_criteria
from twinbeams.states import (
    PhysicalityError,
    apply_beamsplitter,
    apply_phase,
    make_single_mode_squeezed,
    make_thermal,
    make_two_mode_squeezed,
)


def squeezed_beside_vacuum(s, phi):
    """sms(1, s, 0), phased by phi on both beams, is a product state with
    vacuum in beam 2: EPR21 = 1, EPR12 = 1 too at phi = 0, and neither
    level 3 nor level 4 holds."""
    rep = classify(apply_phase(make_single_mode_squeezed(1, s, 0.0), phi, phi))
    assert rep.epr_product_21 == pytest.approx(1.0, rel=1e-12)
    if phi == 0.0:
        assert rep.epr_product_12 == pytest.approx(1.0, rel=1e-12)
    assert not (rep.level3 or rep.level4)


def scaled_column_estimate(scale):
    """A record of standard-normal rows with column 0 scaled is scored,
    and its X-_1 variance at theta_minus = pi/2 is that of column 1."""
    rows = np.random.default_rng(0).standard_normal((2000, 4))
    rows[:, 0] *= scale
    estimates = estimate_criteria(SampleBatch(rows, seed=0)).estimates
    assert estimates["fminus_1"].value == pytest.approx(rows[:, 1].var(), rel=1e-9)


def tmsv_gemellity(r):
    """tmsv(r) has G = exp(-2r)."""
    assert classify(make_two_mode_squeezed(r)).gemellity == pytest.approx(math.exp(-2 * r),
                                                                         rel=1e-12)


def thermal_pair(f1, f2, theta=None):
    """A thermal pair, split by a beamsplitter of angle theta if given, has
    G = min(f1, f2) and satisfies no level."""
    state = make_thermal(f1, f2)
    if theta is not None:
        state = apply_beamsplitter(state, theta)
    rep = classify(state)
    assert rep.gemellity == pytest.approx(min(f1, f2), rel=1e-9)
    assert not (rep.level1 or rep.level2 or rep.level3 or rep.level4)


def tmsv_draw(r, n):
    """tmsv(r) is physical, so it is sampled: (X+_1 - X+_2) / sqrt(2) has
    variance exp(-2r), here within 5 standard errors of a sample variance."""
    rows = draw_samples(make_two_mode_squeezed(r), n, 1).samples
    assert np.var(rows[:, 0] - rows[:, 2]) / 2 == pytest.approx(math.exp(-2 * r),
                                                                rel=5 * math.sqrt(2 / n))


def file_estimate_at_scenario_angles():
    """`sample` then `estimate` scores the rows that a sampled `run` of
    the same scenario scores, at the scenario's angles: the estimates are
    equal."""
    Path("scn.txt").write_text(
        "schema = twinbeams-scenario-1\nsource = tmsv(1.1)\nstep = phase(0.4, 0.4)\n"
        f"theta_plus = 0.4\ntheta_minus = {0.4 + math.pi / 2!r}\n"
        "sampling_n = 2000\nsampling_seed = 3\n")
    assert main(["run", "--scenario", "scn.txt", "--out", "report.json"]) == 0
    assert main(["sample", "--scenario", "scn.txt", "--n", "2000", "--seed", "3",
                 "--out", "batch.csv"]) == 0
    assert main(["estimate", "--batch", "batch.csv", "--out", "estimate.json"]) == 0
    sampled = json.loads(Path("report.json").read_text())["estimated"]["estimates"]
    assert json.loads(Path("estimate.json").read_text())["estimates"] == sampled


THREADS = """
import sys
def threads():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
"""
# `sample` as the process entry runs it, on two CPUs: each fork prints the
# number of OS threads of the process it forks
SAMPLE_ON_TWO_CPUS = """
import os
from twinbeams import cli

def sample_on_two_cpus(args, sample=cli._COMMANDS["sample"]):
    from twinbeams import batchfile
    batchfile._cpu_count = lambda: 2
    return sample(args)

def fork(fork=os.fork):
    print(threads(), flush=True)
    return fork()

cli._COMMANDS["sample"] = sample_on_two_cpus
os.fork = fork
sys.exit(cli.entry())
"""


def fork_from_one_thread():
    """`sample` on two CPUs, with no BLAS thread variable set, calls
    `os.fork` for each CSV worker in a process with one OS thread, or
    forks none: a fork beside another thread may deadlock the child, and
    Python 3.12 and later warn of it.  (OpenBLAS stops its own threads in
    a fork handler, which runs only inside the call.)  Where numpy starts
    no BLAS thread there is none to fork beside."""
    env = {name: value for name, value in os.environ.items()
           if not name.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(twinbeams.__file__).parents[1])

    def fresh(code, *args):
        return subprocess.run([sys.executable, "-c", THREADS + code, *args], env=env, check=True,
                              capture_output=True, text=True, timeout=120).stdout.split()

    if fresh("import numpy\nprint(threads())") == ["1"]:
        pytest.skip("numpy starts no BLAS thread here")
    Path("scn.txt").write_text("schema = twinbeams-scenario-1\nsource = tmsv(1.1)\n")
    at_fork = fresh(SAMPLE_ON_TWO_CPUS, "sample", "--scenario", "scn.txt", "--n", "50000",
                    "--seed", "1", "--out", "batch.csv")
    assert set(at_fork) <= {"1"}, at_fork


def _entry(check, args, item, raises, today):
    return pytest.param(check, args, id="-".join([check.__name__, *map(str, args)]),
                        marks=pytest.mark.xfail(strict=True, raises=raises,
                                                reason=f"ROADMAP {item}; today {today}"))


LEDGER = [
    _entry(squeezed_beside_vacuum, (0.5, 0.3), "item 1", AssertionError,
           "EPR21 = 0.9999999999999998 with level 4"),
    _entry(squeezed_beside_vacuum, (8, 0.0), "item 15", AssertionError,
           "EPR12 = 0.9931002393932498 with level 4"),
    _entry(squeezed_beside_vacuum, (10, 0.0), "item 15", ValueError,
           "`variances must be positive, got F1=0.0, F2=1.0`"),
    _entry(scaled_column_estimate, (1e8,), "item 15", ValueError,
           "`variances must be positive` with F1 < 0"),
    _entry(tmsv_gemellity, (9,), "items 2 and 20", AssertionError, "G = 1.4901161193847656e-08"),
    _entry(tmsv_gemellity, (10,), "items 2 and 20", AssertionError, "G = 0.0"),
    _entry(tmsv_gemellity, (12,), "items 2 and 20", AssertionError, "G = 0.0"),
    _entry(thermal_pair, (1e16, 1.0), "items 2 and 20", AssertionError, "G = 0.0 with level 1"),
    _entry(thermal_pair, (1e10, 1.0, 1e-3), "item 2b", PhysicalityError,
           "refused with min eigenvalue of cov + i*Omega = -2.652e-07"),
    _entry(tmsv_draw, (10, 1000), "item 2b", ValueError,
           "no double-precision Cholesky factor of its covariance"),
    _entry(file_estimate_at_scenario_angles, (), "item 16", AssertionError,
           "G = 1.480 from the file, 0.110 from the sampled run"),
    _entry(fork_from_one_thread, (), "item 19", AssertionError,
           "the first `os.fork` is called in a process of 2 OS threads"),
]


@pytest.mark.parametrize("check, args", LEDGER)
def test_known_defect(tmp_path, monkeypatch, check, args):
    monkeypatch.chdir(tmp_path)  # for the files an entry's commands write
    check(*args)
