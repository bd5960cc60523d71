import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import write_sweep_csv_per_row

import twinbeams
from twinbeams import cli, criteria, scenario
from twinbeams.cli import main
from twinbeams.sampling import SampleBatch, write_batch
from twinbeams.scenario import (
    SWEEP_COLUMNS,
    Scenario,
    ScenarioError,
    build_state,
    load_scenario,
    parse_scenario,
    run_scenario,
    set_parameter,
    sweep,
    write_sweep_csv,
)

BOUND = "state moments must be finite and at most 1e+75 in magnitude, got"
CHOLESKY = "covariance too near singular for the sampler's double-precision Cholesky factor"

TMSV_SCENARIO = """\
schema = twinbeams-scenario-1
source = tmsv(1.103)
"""

LOSSY_TMSV_SCENARIO = """\
schema = twinbeams-scenario-1
source = tmsv(3.0)
step = loss(0.4, 0.4)
"""

SPLIT_THERMAL_SCENARIO = """\
schema = twinbeams-scenario-1
source = thermal(9.0, 1.0)
step = beamsplitter(0.7853981633974483, 0.0)
"""

TILTED_THERMAL_SCENARIO = """\
schema = twinbeams-scenario-1
source = thermal(3.0, 2.0)
step = beamsplitter(0.4, 0.3)
step = phase(0.2, 0.9)
step = loss(0.8, 0.7)
theta_plus = 0.3
theta_minus = 1.9
"""


class TestParsing:
    def test_minimal_scenario(self):
        scn = parse_scenario(TMSV_SCENARIO)
        assert scn.source.name == "tmsv"
        assert scn.source.args == {"r": 1.103}
        assert scn.pipeline == ()
        assert scn.theta_plus == 0.0
        assert scn.theta_minus == pytest.approx(math.pi / 2)

    def test_pipeline_order_preserved(self):
        scn = parse_scenario(
            "schema = twinbeams-scenario-1\nsource = vacuum\n"
            "step = phase(0.1, 0.2)\nstep = loss(0.5, 0.5)\n")
        assert [s.name for s in scn.pipeline] == ["phase", "loss"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(TMSV_SCENARIO + "typo_key = 3\n")

    def test_unknown_operation_rejected(self):
        with pytest.raises(ScenarioError, match="unknown operation"):
            parse_scenario("schema = twinbeams-scenario-1\nsource = squeezy(1)\n")

    @pytest.mark.parametrize("line, message", [
        ("source = tmsv(1, 2)", "source: tmsv takes 1 parameters ('r',), got 2"),
        ("source = tmsv(0.5,)", "source: tmsv takes 1 parameters ('r',), got 2"),
        ("source = vacuum\nstep = loss(0.9,,0.8)",
         "line 3 step: loss takes 2 parameters ('eta1', 'eta2'), got 3"),
        ("source = tmsv(1", "source: cannot parse 'tmsv(1'"),
        ("tmsv(0.5)", "line 2: expected 'key = value'"),
        ("source = vacuum\nsource = tmsv(0.5)", "line 3: duplicate key 'source'"),
        ("theta_plus = 0.1", "source: missing"),
    ], ids=["too-many", "trailing-comma", "empty-middle", "unclosed-call", "no-equals-sign",
            "duplicate-key", "no-source"])
    def test_malformed_scenario_rejected(self, line, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(f"schema = twinbeams-scenario-1\n{line}\n")

    def test_missing_schema_rejected(self):
        with pytest.raises(ScenarioError, match="schema"):
            parse_scenario("source = vacuum\n")

    def test_sampling_keys_must_pair(self):
        with pytest.raises(ScenarioError, match="sampling"):
            parse_scenario(TMSV_SCENARIO + "sampling_n = 1000\n")

    def test_sampling_n_below_the_floor_rejected(self):
        with pytest.raises(ScenarioError, match=r"^sampling_n: must be >= 200$"):
            parse_scenario(TMSV_SCENARIO + "sampling_n = 199\nsampling_seed = 1\n")

    @pytest.mark.parametrize("head, line", [
        (b"schema = twinbeams-scenario-1\n", 2),
        (b"schema = twinbeams-scenario-1\r\n\r\n", 3),
        (b"", 1),
    ], ids=["lf", "crlf", "first-line"])
    def test_scenario_not_utf8_names_file_and_line(self, tmp_path, capsys, head, line):
        path = tmp_path / "scn.txt"
        path.write_bytes(head + b"# caf\xe9 au lait\nsource = tmsv(1.0)\n")
        message = f"{path}: line {line}: byte 0xe9 is not UTF-8"
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(path)
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_out_of_range_parameter_rejected(self):
        scn = parse_scenario(
            "schema = twinbeams-scenario-1\nsource = vacuum\nstep = loss(1.5, 0.5)\n")
        with pytest.raises(ScenarioError, match="eta"):
            build_state(scn)


class TestRunScenario:
    def test_tmsv_report(self):
        payload = run_scenario(parse_scenario(TMSV_SCENARIO))
        analytic = payload["analytic"]
        assert analytic["gemellity"] == pytest.approx(0.11, abs=0.005)
        assert all(analytic[f"level{i}"] for i in range(1, 5))
        assert payload["estimated"] is None

    def test_split_thermal_report(self):
        payload = run_scenario(parse_scenario(SPLIT_THERMAL_SCENARIO))
        analytic = payload["analytic"]
        assert analytic["gemellity"] == pytest.approx(1.0, abs=1e-9)
        assert not analytic["level1"]

    def test_lossy_tmsv_duan_without_epr(self):
        payload = run_scenario(parse_scenario(LOSSY_TMSV_SCENARIO))
        analytic = payload["analytic"]
        assert analytic["separability"] < 2.0 and analytic["level3"]
        assert analytic["epr_product_12"] > 1.0 and not analytic["level4"]

    def test_report_with_sampling(self):
        payload = run_scenario(parse_scenario(
            TMSV_SCENARIO + "sampling_n = 20000\nsampling_seed = 5\n"))
        est = payload["estimated"]["estimates"]
        g = est["gemellity"]
        assert abs(g["value"] - payload["analytic"]["gemellity"]) <= 5 * g["stderr"]

    def test_sampled_run_estimates_at_scenario_angles(self):
        # sms split on a beamsplitter: G depends on theta_plus, so an
        # estimate taken at theta_plus = 0 lies far from the analytic value
        payload = run_scenario(parse_scenario(
            "schema = twinbeams-scenario-1\nsource = sms(1, 0.8, 0.0)\n"
            "step = beamsplitter(0.7853981633974483, 0.0)\ntheta_plus = 0.7\n"
            "sampling_n = 200000\nsampling_seed = 3\n"))
        est = payload["estimated"]["estimates"]
        for key in ("gemellity", "separability", "conditional_variance_12"):
            e = est[key]
            assert abs(e["value"] - payload["analytic"][key]) <= 5 * e["stderr"], key

    def test_classification_banners(self):
        payload = run_scenario(parse_scenario(TMSV_SCENARIO))
        levels = [entry["level"] for entry in payload["classification"]]
        assert levels == [1, 2, 3, 4, 5]
        assert payload["classification"][4]["satisfied"] is None


class TestSweep:
    def _tmsv(self):
        return parse_scenario("schema = twinbeams-scenario-1\nsource = tmsv(1.0)\n")

    def test_sweep_r_matches_closed_form(self):
        rows = sweep(self._tmsv(), "source.r", np.linspace(0.0, 2.0, 21))
        for row in rows:
            assert row["gemellity"] == pytest.approx(
                math.exp(-2.0 * row["source.r"]), abs=1e-9)

    def test_sweep_eta_alias_sets_both(self):
        scn = parse_scenario(LOSSY_TMSV_SCENARIO)
        point = set_parameter(scn, "step1.eta", 0.7)
        assert point.pipeline[0].args == {"eta1": 0.7, "eta2": 0.7}

    def test_sweep_bare_name_resolution(self):
        rows = sweep(self._tmsv(), "r", [0.0, 0.5])
        assert rows[0]["r"] == 0.0

    def test_sweep_unknown_parameter(self):
        with pytest.raises(ScenarioError, match="not found"):
            sweep(self._tmsv(), "bogus", [0.0])

    def test_sweep_ambiguous_parameter(self):
        scn = parse_scenario(
            "schema = twinbeams-scenario-1\nsource = vacuum\n"
            "step = loss(0.5, 0.5)\nstep = loss(0.9, 0.9)\n")
        with pytest.raises(ScenarioError, match="ambiguous"):
            sweep(scn, "eta1", [0.5])

    def test_rows_equal_classify_bit_for_bit(self, monkeypatch):
        calls = []
        real = criteria.report_scalars
        monkeypatch.setattr(criteria, "report_scalars",
                            lambda dm: calls.append(dm) or real(dm))
        scn = parse_scenario(TILTED_THERMAL_SCENARIO)
        grid = np.linspace(0.0, 1.0, 41)
        rows = sweep(scn, "step3.eta", grid)
        assert len(calls) == 1  # the whole grid is one stack
        for row, eta in zip(rows, grid):
            point = set_parameter(scn, "step3.eta", float(eta))
            expected = criteria.classify(build_state(point), 0.3, 1.9).to_json()
            assert repr(row) == repr({"step3.eta": float(eta),
                                      **{col: expected[col] for col in SWEEP_COLUMNS}})
        # eta = 0 on the last step leaves the vacuum, which satisfies no level
        assert not any(rows[0][f"level{i}"] for i in range(1, 5))

    def test_classical_split_sweep_constant_gemellity(self):
        scn = parse_scenario(SPLIT_THERMAL_SCENARIO)
        rows = sweep(scn, "source.f1", np.linspace(1.0, 100.0, 25))
        for row in rows:
            assert row["gemellity"] == pytest.approx(1.0, abs=1e-9)


class TestCli:
    def _write(self, tmp_path, text, name="scn.txt"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_run_writes_report(self, tmp_path):
        scn = self._write(tmp_path, TMSV_SCENARIO)
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "twinbeams-report-1"

    def test_sampled_run_at_the_sample_floor(self, tmp_path):
        scn = self._write(tmp_path, TMSV_SCENARIO + "sampling_n = 200\nsampling_seed = 1\n")
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
        estimated = json.loads(out.read_text())["estimated"]
        assert (estimated["n_samples"], estimated["n_blocks"]) == (200, 100)

    def test_scenario_out_key_and_its_override(self, tmp_path, capsys):
        keyed, given = tmp_path / "keyed.json", tmp_path / "given.json"
        scn = self._write(tmp_path, TMSV_SCENARIO + f"out = {keyed}\n")
        assert main(["run", "--scenario", str(scn)]) == 0
        assert capsys.readouterr().out == ""
        report = keyed.read_text(encoding="utf-8")
        assert json.loads(report)["schema"] == "twinbeams-report-1"
        keyed.unlink()
        assert main(["run", "--scenario", str(scn), "--out", str(given)]) == 0
        assert given.read_text(encoding="utf-8") == report
        assert not keyed.exists()

    def test_run_validation_error_exit_2(self, tmp_path):
        scn = self._write(tmp_path, "schema = twinbeams-scenario-1\nsource = nope()\n")
        assert main(["run", "--scenario", str(scn)]) == 2

    def test_run_missing_file_exit_2(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "absent.txt")]) == 2

    def test_sweep_writes_csv(self, tmp_path):
        scn = self._write(tmp_path, TMSV_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(scn), "--param", "source.r",
                     "--grid", "0:2:11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("source.r,gemellity,")
        assert len(lines) == 12

    def test_negative_grid_after_equals_sign(self, tmp_path):
        # `--grid -1,2` would be read as an option; `--grid=-1,2` is not
        scn = self._write(tmp_path, TILTED_THERMAL_SCENARIO)
        out = tmp_path / "sweep.csv"
        for grid, first in (("-1,2", "-1.0,"), ("-3.14:3.14:5", "-3.14,")):
            assert main(["sweep", "--scenario", str(scn), "--param", "step2.phi1",
                         f"--grid={grid}", "--out", str(out)]) == 0
            assert out.read_text().splitlines()[1].startswith(first)

    def test_sample_then_estimate(self, tmp_path):
        scn = self._write(tmp_path, TMSV_SCENARIO)
        batch_path = tmp_path / "batch.csv"
        assert main(["sample", "--scenario", str(scn), "--n", "5000",
                     "--seed", "7", "--out", str(batch_path)]) == 0
        report_path = tmp_path / "est.json"
        assert main(["estimate", "--batch", str(batch_path),
                     "--out", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert payload["n_samples"] == 5000
        assert "gemellity" in payload["estimates"]

    def test_estimate_bad_batch_exit_2(self, tmp_path):
        bad = self._write(tmp_path, "not,a,batch\n", name="bad.csv")
        assert main(["estimate", "--batch", str(bad)]) == 2

    def _run_fresh(self, args, prelude=""):
        """The CLI in a fresh interpreter; `prelude` runs before main."""
        code = f"import sys\n{prelude}\nfrom twinbeams.cli import main\nsys.exit(main(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": str(Path(twinbeams.__file__).parents[1])}
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("source, message, command", [
        ("nope()", "{scn}: source: unknown operation 'nope'", ["run"]),
        ("tmsv(400)", "source tmsv: squeezing parameter r = 400.0 overflows the covariance",
         ["run"]),
        ("sms(1, 400, 0)",
         "source sms: squeezing parameter s = 400.0 overflows the covariance", ["run"]),
        # 2 * r overflows to inf, and cosh(inf) is inf, not an OverflowError
        ("tmsv(1e308)", "source tmsv: squeezing parameter r = 1e+308 overflows the covariance",
         ["run"]),
        ("sms(2, -1e308, 0)",
         "source sms: squeezing parameter s = -1e+308 overflows the covariance", ["run"]),
        ("tmsv(0.5)\ntheta_plus = nan", "{scn}: theta_plus: bad value 'nan'", ["run"]),
        ("tmsv(0.5)\ntheta_minus = inf", "{scn}: theta_minus: bad value 'inf'", ["run"]),
        ("tmsv(nan)", "{scn}: source: parameter r of tmsv: bad value 'nan'", ["run"]),
        ("tmsv(0.5)\nstep = phase(inf, 0)",
         "{scn}: line 3 step: parameter phi1 of phase: bad value 'inf'",
         ["run"]),
        ("tmsv(0.5)\nsampling_n = 300\nsampling_seed = -1",
         "seed must be a non-negative integer, got -1", ["run"]),
        ("tmsv(0.5)", "seed must be a non-negative integer, got -1",
         ["sample", "--n", "300", "--seed", "-1", "--out", "{tmp}/batch.csv"]),
        ("tmsv(0.5)", f"n = {10 ** 15}: the CSV needs at least {18 * 10 ** 15} bytes "
         "(18 a row), more than the disk has free",
         ["sample", "--n", str(10 ** 15), "--seed", "1", "--out", "{tmp}/batch.csv"]),
        ("thermal(1e300, 1e300)", f"source thermal: {BOUND} 1e+300", ["run"]),
        ("thermal(1e300, 1e300)\nsampling_n = 1000\nsampling_seed = 1",
         f"source thermal: {BOUND} 1e+300", ["run"]),
        ("thermal(1e300, 1e300)", f"source thermal: {BOUND} 1e+300",
         ["sample", "--n", "300", "--seed", "1", "--out", "{tmp}/batch.csv"]),
        ("tmsv(200)", f"source tmsv: {BOUND} {math.cosh(400.0)!r}", ["run"]),
        ("tmsv(0.5)\ntheta_plus = 1e308", "{scn}: theta_plus: bad value '1e308'", ["run"]),
        # these states pass their own uncertainty check; only the sampler's
        # Cholesky factor fails in rounding, which is no physicality error
        ("tmsv(10)\nsampling_n = 1000\nsampling_seed = 1", CHOLESKY, ["run"]),
        ("tmsv(12)\nsampling_n = 1000\nsampling_seed = 1", CHOLESKY, ["run"]),
        ("sms(3, 0.5, 0)", "source sms: mode must be 1 or 2, got 3", ["run"]),
    ], ids=["unknown-op", "tmsv-overflow", "sms-overflow", "tmsv-inf-double", "sms-inf-double",
            "nan-theta-plus", "inf-theta-minus", "nan-op-argument", "inf-op-argument",
            "negative-sampling-seed", "negative-sample-seed",
            "oversized-sample", "huge-thermal", "huge-thermal-sampled", "huge-thermal-sample",
            "huge-tmsv", "overflowing-theta-plus", "sampled-tmsv-10", "sampled-tmsv-12",
            "sms-mode-3"])
    def test_validation_error_printed_once(self, tmp_path, source, message, command):
        scn = self._write(tmp_path, f"schema = twinbeams-scenario-1\nsource = {source}\n")
        argv = [arg.format(tmp=tmp_path) for arg in command]
        proc = self._run_fresh([*argv, "--scenario", str(scn)])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message.format(scn=scn)}"]

    @pytest.mark.parametrize("command", [
        ["run"],
        ["sweep", "--param", "source.r", "--grid", "0,1", "--out", "{tmp}/sweep.csv"],
    ], ids=["run", "sweep"])
    def test_scenario_error_names_file(self, tmp_path, capsys, command):
        scn = self._write(tmp_path, "schema = twinbeams-scenario-1\nsource = tmsv(0.5)\nfoo = 1\n")
        argv = [arg.format(tmp=tmp_path) for arg in command]
        assert main([*argv, "--scenario", str(scn)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {scn}: line 3: unknown key 'foo'"]
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("grid", [",", "", "0.1,,0.2", "0.1, ,0.2", "0:1:1e9",
                                      "0:1:nan", "0:1:2.5", "0:1", "0:1:2:3", "0:x:3",
                                      "0:1:1", "0:inf:3", "nan,1", "0.5,inf",
                                      "1e308:-1e308:3"],
                             ids=["comma-only", "empty", "empty-cell", "blank-cell",
                                  "float-num", "nan-num", "fractional-num", "two-parts",
                                  "four-parts", "bad-stop", "num-one", "inf-stop", "nan-cell",
                                  "inf-cell", "overflowing-step"])
    def test_bad_grid_rejected(self, tmp_path, capsys, grid):
        scn = self._write(tmp_path, TMSV_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(scn), "--param", "source.r",
                     "--grid", grid, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --grid: ")
        assert not out.exists()

    @pytest.mark.parametrize("module, name, stand_in", [
        (cli, "range", None),  # building the grid: the module's name comes before the builtin
        (scenario, "np", "array"),  # numpy's allocation of the grid's state stack
        (criteria, "report_scalars", None),  # scoring the stack
        (scenario, "operator", "itemgetter"),  # formatting the CSV
    ], ids=["grid", "state-stack", "scores", "csv-text"])
    def test_sweep_out_of_memory_exit_2_no_file(self, tmp_path, capsys, monkeypatch,
                                                module, name, stand_in):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        stand_in = SimpleNamespace(**{stand_in: fail}) if stand_in else fail
        monkeypatch.setattr(module, name, stand_in, raising=False)
        scn = self._write(tmp_path, TMSV_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(scn), "--param", "source.r",
                     "--grid", "0:2:41", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --grid: 41 points are more than memory holds"]
        assert not out.exists()

    @pytest.mark.parametrize("param", ["source.mode", "mode"])
    def test_mode_sweep_rejected(self, tmp_path, capsys, param):
        scn = self._write(tmp_path, "schema = twinbeams-scenario-1\nsource = sms(1, 0.5, 0.2)\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(scn), "--param", param,
                     "--grid", "1,2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: sweep parameter: '{param}' selects a beam, it is not a sweep axis"]
        assert not out.exists()

    def test_sweep_beyond_moment_bound_rejected(self, tmp_path):
        scn = self._write(tmp_path, "schema = twinbeams-scenario-1\nsource = thermal(2.0, 2.0)\n")
        out = tmp_path / "sweep.csv"
        proc = self._run_fresh(["sweep", "--scenario", str(scn), "--param", "f",
                                "--grid", "1,1e100,1e200,1e300", "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: source thermal: {BOUND} 1e+300"]
        assert not out.exists()

    def test_sampled_run_at_moment_bound_is_finite(self, tmp_path):
        # the bound leaves the jackknife's squared EPR deviations finite
        scn = self._write(tmp_path, "schema = twinbeams-scenario-1\n"
                          "source = thermal(1e75, 1e75)\nstep = beamsplitter(0.3, 0.2)\n"
                          "sampling_n = 1000\nsampling_seed = 1\n")
        payload = run_scenario(load_scenario(scn))
        numbers = [*payload["analytic"].values(),
                   *(v for est in payload["estimated"]["estimates"].values()
                     for v in est.values())]
        assert all(math.isfinite(v) for v in numbers if isinstance(v, float))

    def test_oversized_sample_creates_no_file(self, tmp_path, capsys):
        # refused before a row is drawn or the file is opened
        scn = self._write(tmp_path, TMSV_SCENARIO)
        out = tmp_path / "batch.csv"
        assert main(["sample", "--scenario", str(scn), "--n", str(10 ** 15), "--seed", "1",
                     "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e160, 1e40, 1e38])
    def test_estimate_overflow_exit_2_one_line(self, tmp_path, scale):
        # 1e160 overflows the Gram matrix, 1e40 the jackknife's squared deviations;
        # 1e38 gives finite covariances of ~1e76, beyond the batch moment bound
        batch = tmp_path / "batch.csv"
        samples = scale * np.random.default_rng(0).standard_normal((1000, 4))
        write_batch(SampleBatch(samples=samples, seed=0), batch)
        proc = self._run_fresh(["estimate", "--batch", str(batch)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {batch}: batch moments overflow double precision; "
            "a state's moments are at most 1e+75 in magnitude"]

    def test_sample_then_estimate_at_moment_bound(self, tmp_path):
        # the sample covariance exceeds 1e75 by sampling noise; the file is scored
        scn = self._write(tmp_path, "schema = twinbeams-scenario-1\n"
                          "source = thermal(1e75, 1e75)\n")
        batch = tmp_path / "batch.csv"
        out = tmp_path / "estimates.json"
        assert self._run_fresh(["sample", "--scenario", str(scn), "--n", "1000", "--seed", "1",
                                "--out", str(batch)]).returncode == 0
        proc = self._run_fresh(["estimate", "--batch", str(batch), "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")
        estimates = json.loads(out.read_text())["estimates"]
        assert max(estimates[key]["value"]
                   for key in ("fplus_1", "fminus_1", "fplus_2", "fminus_2")) > 1e75
        assert all(math.isfinite(v) for est in estimates.values() for v in est.values()
                   if isinstance(v, float))

    def test_estimate_nonpositive_measured_variance_exit_2_one_line(self, tmp_path):
        # X+_1 at 1e10 and X-_1 at 1e-5: the variance measured at pi/2 cancels
        # to below 0, far inside the moment bound, so no overflow is reported
        batch = tmp_path / "batch.csv"
        samples = np.random.default_rng(0).standard_normal((1000, 4))
        samples[:, 0] *= 1e10
        samples[:, 1] *= 1e-5
        write_batch(SampleBatch(samples=samples, seed=0), batch)
        proc = self._run_fresh(["estimate", "--batch", str(batch)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: {batch}: variances must be positive, got F1=-")

    def test_json_to_stdout_equals_json_to_file(self, tmp_path, capsys):
        scn = self._write(tmp_path, TMSV_SCENARIO)
        batch = tmp_path / "batch.csv"
        assert main(["sample", "--scenario", str(scn), "--n", "300", "--seed", "2",
                     "--out", str(batch)]) == 0
        for args in (["run", "--scenario", str(scn)], ["estimate", "--batch", str(batch)]):
            out = tmp_path / "out.json"
            assert main(args + ["--out", str(out)]) == 0
            capsys.readouterr()
            assert main(args) == 0
            assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_physicality_error_printed_once(self, tmp_path):
        # sub-vacuum noise on every quadrature violates the uncertainty bound
        prelude = ("import numpy as np\nfrom twinbeams import states\n"
                   "states.make_vacuum = lambda: states.GaussianTwoModeState("
                   "np.zeros(4), 0.5 * np.eye(4))")
        scn = self._write(tmp_path, "schema = twinbeams-scenario-1\nsource = vacuum\n")
        proc = self._run_fresh(["run", "--scenario", str(scn)], prelude)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("physicality error: ")

    def test_golden_report(self, tmp_path):
        # schema stability: fixed scenario reproduces the frozen report
        import pathlib
        scn = self._write(tmp_path, "schema = twinbeams-scenario-1\nsource = tmsv(0.5)\n")
        out = tmp_path / "report.json"
        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
        produced = json.loads(out.read_text())
        golden = json.loads(
            (pathlib.Path(__file__).parent / "data" / "golden_report.json").read_text())
        assert _approx_equal(produced, golden)

    def test_golden_sweep_csv(self, tmp_path):
        # the sweep values must not move: same bytes as the frozen table
        scn = self._write(tmp_path, TILTED_THERMAL_SCENARIO)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--scenario", str(scn), "--param", "step3.eta",
                     "--grid", "0:1:41", "--out", str(out)]) == 0
        assert out.read_bytes() == (Path(__file__).parent / "data" / "golden_sweep.csv").read_bytes()


def _approx_equal(a, b, tol=1e-12):
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_approx_equal(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_approx_equal(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == pytest.approx(b, abs=tol)
    return a == b


SWEEP_FLOATS = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-05, 1e16])
SWEEP_ROWS = st.lists(st.fixed_dictionaries(
    {col: st.booleans() if col.startswith("level") else SWEEP_FLOATS
     for col in ("step1.eta",) + SWEEP_COLUMNS}), max_size=20)


@settings(max_examples=100)
@given(rows=SWEEP_ROWS)
@example(rows=[])  # the header only
@example(rows=[{"step1.eta": -0.0, **dict.fromkeys(SWEEP_COLUMNS[:6], 1e-05),
                **dict.fromkeys(SWEEP_COLUMNS[6:], True)},
               {"step1.eta": 1e16, **dict.fromkeys(SWEEP_COLUMNS[:6], -0.0),
                **dict.fromkeys(SWEEP_COLUMNS[6:], False)}])
def test_sweep_csv_equals_the_per_row_writer(rows):
    with tempfile.TemporaryDirectory() as scratch:
        got, want = Path(scratch) / "got.csv", Path(scratch) / "want.csv"
        write_sweep_csv(rows, "step1.eta", got)
        write_sweep_csv_per_row(rows, "step1.eta", want)
        assert got.read_bytes() == want.read_bytes()
