"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import spans
from workloads import WORKLOADS, Spec, make_pass, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_scenario_files(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        write_inputs(make_pass(workload, seed, 0) + make_pass(workload, seed, 1),
                     tmp_path / name)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_plain_passes_write_identical_outputs(tmp_path, workload):
    tb = run.import_twinbeams()
    commands = [c for unit in make_pass(workload, 3, 0, scale=0.01) for c in unit]
    write_inputs([commands], tmp_path / "inputs")
    recorder = spans.Recorder()
    codes = {}
    for mode in ("plain", "traced"):
        (tmp_path / mode).mkdir()
        uninstall = spans.install(recorder) if mode == "traced" else (lambda: None)
        try:
            codes[mode] = [code for code, _ in run.run_inprocess(
                tb, commands, tmp_path / "inputs", tmp_path / mode,
                recorder if mode == "traced" else None)]
        finally:
            uninstall()
    assert codes["plain"] == codes["traced"]
    assert all(code == 0 for code, c in zip(codes["plain"], commands) if c.role != "probe")
    assert _files(tmp_path / "plain") == _files(tmp_path / "traced")
    assert sum(s.name == "cli.main" for s in recorder.spans) == len(commands)
    assert not hasattr(tb.states.GaussianTwoModeState.__post_init__, "__wrapped__")
    assert not hasattr(tb.criteria.quadrature_moments, "__wrapped__")


def test_reference_matches_closed_form():
    r, eta = 1.3, 0.7
    spec = Spec("x", ("tmsv", (("r", r),)), (("loss", (("eta1", eta), ("eta2", eta))),))
    got = reference.criteria(reference.covariance(spec)[None])
    assert got["gemellity"][0] == pytest.approx(eta * math.exp(-2 * r) + 1 - eta, rel=1e-12)
    assert got["separability"][0] == pytest.approx(2 * got["gemellity"][0], rel=1e-12)


def test_importtime_parser_leaves_numpy_out_of_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        50 |        150 |     scipy._lib",
        "import time:        20 |        170 |   scipy",
        "import time:        30 |        200 | twinbeams",
    ])
    assert spans.parse_importtime(text) == (200e-6, 70e-6)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sampled-run", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = declared["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""
