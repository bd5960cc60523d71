import math
import multiprocessing
import os
import re
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeams import sampling, scenario
from twinbeams.criteria import report_scalars, state_moments
from twinbeams.sampling import (
    CSV_HEADER,
    WRITE_CHUNK,
    BatchFormatError,
    DrawnBatch,
    EstimationError,
    SampleBatch,
    draw_samples,
    estimate_criteria,
    read_batch,
    write_batch,
)
from twinbeams.states import (
    GaussianTwoModeState,
    apply_beamsplitter,
    apply_loss,
    make_two_mode_squeezed,
    make_vacuum,
)

GOLDEN_BATCH = Path(__file__).parent / "data" / "golden_batch.csv"


class TestDrawSamples:
    def test_same_seed_identical(self):
        s = make_two_mode_squeezed(0.5)
        a = draw_samples(s, 1000, seed=42)
        b = draw_samples(s, 1000, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        s = make_vacuum()
        a = draw_samples(s, 100, seed=1)
        b = draw_samples(s, 100, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_vacuum_column_variances(self):
        batch = draw_samples(make_vacuum(), 10 ** 6, seed=3)
        se = math.sqrt(2.0 / batch.n)
        for col in range(4):
            assert batch.samples[:, col].var() == pytest.approx(1.0, abs=5 * se)

    def test_tmsv_sample_covariance(self):
        r = 0.5
        batch = draw_samples(make_two_mode_squeezed(r), 10 ** 6, seed=4)
        cov = np.cov(batch.samples[:, 0], batch.samples[:, 2], ddof=0)[0, 1]
        # var of a normal covariance estimate: (s11*s22 + s12^2)/N
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        se = math.sqrt((ch * ch + sh * sh) / batch.n)
        assert cov == pytest.approx(sh, abs=5 * se)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            draw_samples(make_vacuum(), 1, seed=0)

    def test_equals_one_shot_draw_bit_for_bit(self):
        state = GaussianTwoModeState(mean=[1e5, -3.0, 0.25, 7.0],
                                     cov=make_two_mode_squeezed(0.8).cov)
        normals = np.random.Generator(np.random.PCG64(43)).standard_normal((1000, 4))
        expected = normals @ np.linalg.cholesky(state.cov).T + state.mean
        assert draw_samples(state, 1000, seed=43).samples.tobytes() == expected.tobytes()

    def test_peak_below_two_batches(self):
        n = 200_000
        assert _peak_bytes(draw_samples, make_vacuum(), n, 3) < 2.2 * n * 4 * 8


class TestSampleBatch:
    def test_caller_array_is_copied(self):
        samples = np.arange(12.0).reshape(3, 4)
        read_only_view = samples[:]
        read_only_view.setflags(write=False)
        batches = [SampleBatch(samples=a, seed=0) for a in (samples, read_only_view)]
        samples[0, 0] = 99.0
        assert [b.samples[0, 0] for b in batches] == [0.0, 0.0]
        assert not any(b.samples.flags.writeable for b in batches)

    def test_read_only_owner_is_kept(self):
        samples = np.array(GRAMMAR_ROWS)
        samples.setflags(write=False)
        assert SampleBatch(samples=samples, seed=0).samples is samples

    def test_negative_seed_rejected_as_by_draw_samples(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
            SampleBatch(samples=np.ones((300, 4)), seed=-3)

    def test_fresh_batches_are_not_copied(self, tmp_path, monkeypatch):
        given = []

        def spy(samples, **fields):
            given.append(samples)
            return SampleBatch(samples=samples, **fields)

        monkeypatch.setattr(sampling, "SampleBatch", spy)
        drawn = draw_samples(make_vacuum(), 100, seed=1)
        write_batch(drawn, tmp_path / "batch.csv")
        read = read_batch(tmp_path / "batch.csv")
        assert drawn.samples is given[0] and read.samples is given[1]


class TestBatchRoundTrip:
    def test_round_trip(self, tmp_path):
        batch = draw_samples(make_two_mode_squeezed(0.3), 500, seed=9,
                             source_label="tmsv(0.3)")
        path = tmp_path / "batch.csv"
        write_batch(batch, path)
        back = read_batch(path)
        assert np.array_equal(back.samples, batch.samples)
        assert back.seed == 9
        assert back.source_label == "tmsv(0.3)"

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# seed: 1\n# source_label: x\n"
            "sample_index,xplus_1,xminus_1,xplus_2,xminus_2\n"
            "0,1.0,2.0,3.0\n")
        with pytest.raises(BatchFormatError, match="line 4"):
            read_batch(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "sample_index,xplus_1,xminus_1,xplus_2,xminus_2\n"
            "0,1.0,abc,3.0,4.0\n0,1.0,1.0,3.0,4.0\n")
        with pytest.raises(BatchFormatError, match="line 2"):
            read_batch(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0,3.0,4.0\n")
        with pytest.raises(BatchFormatError, match="header"):
            read_batch(path)


# The reader's grammar, each case written with `{h}` for the header.
# Accepted files hold seed 5, label "x" and the two rows of GRAMMAR_ROWS.
GRAMMAR_ROWS = [[1.5, 2.5, 3.5, 4.5], [-1.0, 0.25, 1e-3, 7.0]]
ACCEPTED = {
    "empty-lines": "# seed: 5\n# source_label: x\n\n{h}\n\n0,1.5,2.5,3.5,4.5\n\n\n"
                   "1,-1.0,0.25,1e-3,7\n\n",
    "crlf": "# seed: 5\r\n# source_label: x\r\n{h}\r\n0,1.5,2.5,3.5,4.5\r\n"
            "1,-1.0,0.25,1e-3,7\r\n",
    "spaces-around-cells": "# seed: 5\n# source_label:  x \n  {h} \n 0 , 1.5 ,2.5,\t3.5 , 4.5 \n"
                           "1, -1.0,0.25 ,1e-3,7\t\n",
    "comments-before-header": "# written by hand\n# seed: 5\n#\n# source_label: x\n"
                              "# units: shot noise\n{h}\n0,1.5,2.5,3.5,4.5\n1,-1.0,0.25,1e-3,7\n",
    "whitespace-only-lines": " \n# seed: 5\n\t\n# source_label: x\n{h}\n   \n0,1.5,2.5,3.5,4.5\n"
                             " \t \n1,-1.0,0.25,1e-3,7\n  ",
}
# rejected files: (text, error, the whole message)
REJECTED = {
    "six-columns": ("{h}\n0,1,2,3,4\n\n1,1,2,3,4,5\n2,1,2,3,4\n", BatchFormatError,
                    "line 4: expected 5 columns, got 6"),
    "six-columns-first-row": ("{h}\n0,1,2,3,4,5\n1,1,2,3,4,5\n", BatchFormatError,
                              "line 2: expected 5 columns, got 6"),
    "comment-after-header": ("# seed: 5\n{h}\n0,1,2,3,4\n\n# late note\n1,1,2,3,4\n",
                             BatchFormatError, "line 5: comment after header"),
    "non-numeric-after-blank-lines": ("# seed: 5\n{h}\n0,1,2,3,4\n \n\n1,1,2,x,4\n",
                                      BatchFormatError, "line 6: non-numeric cell"),
    # the whole row goes through numpy's parser: the index cell is a
    # number, and Python-only float syntax is not (the parent took both)
    "non-numeric-index": ("{h}\n0,1,2,3,4\nb,1,2,3,4\n", BatchFormatError,
                          "line 3: non-numeric cell"),
    "digit-underscore": ("{h}\n0,1,2,3,4\n1,1_0,2,3,4\n", BatchFormatError,
                         "line 3: non-numeric cell"),
    "nan": ("{h}\n0,1,2,3,4\n1,1,nan,3,4\n", ValueError, "samples must be finite"),
    "one-row": ("{h}\n0,1,2,3,4\n\n", BatchFormatError, "batch holds fewer than 2 samples"),
    "no-rows": ("# seed: 5\n{h}\n", BatchFormatError, "batch holds fewer than 2 samples"),
    "negative-seed": ("# source_label: x\n# seed: -5\n{h}\n0,1,2,3,4\n1,1,2,3,4\n",
                      BatchFormatError, "line 2: bad seed value"),
}


def _write_text(path, text):
    path.write_bytes(text.format(h=CSV_HEADER).encode("utf-8"))
    return path


class TestBatchGrammar:
    @pytest.mark.parametrize("text", ACCEPTED.values(), ids=ACCEPTED.keys())
    def test_accepted(self, tmp_path, text):
        batch = read_batch(_write_text(tmp_path / "batch.csv", text))
        assert batch.samples.tolist() == GRAMMAR_ROWS
        assert (batch.seed, batch.source_label) == (5, "x")

    @pytest.mark.parametrize("text, error, message", REJECTED.values(), ids=REJECTED.keys())
    def test_rejected(self, tmp_path, text, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            read_batch(_write_text(tmp_path / "batch.csv", text))


class TestBatchBytes:
    def test_writer_matches_golden_file(self, tmp_path):
        batch = draw_samples(make_two_mode_squeezed(0.3), 50, seed=9,
                             source_label="tmsv(0.3)")
        path = tmp_path / "batch.csv"
        write_batch(batch, path)
        assert path.read_bytes() == GOLDEN_BATCH.read_bytes()
        assert read_batch(GOLDEN_BATCH).samples.tobytes() == batch.samples.tobytes()

    def test_round_trip_over_chunk_seam(self, tmp_path):
        batch = draw_samples(make_two_mode_squeezed(0.3), WRITE_CHUNK + 3, seed=47,
                             source_label="seam")
        path = tmp_path / "batch.csv"
        write_batch(batch, path)
        rows = "".join(f"{i},{a!r},{b!r},{c!r},{d!r}\n"
                       for i, (a, b, c, d) in enumerate(batch.samples.tolist()))
        expected = f"# seed: 47\n# source_label: seam\n{CSV_HEADER}\n{rows}"
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_batch(path).samples.tobytes() == batch.samples.tobytes()


def _peak_bytes(fn, *args):
    """Peak traced allocation of one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _patch_workers(monkeypatch, count):
    monkeypatch.setattr(sampling, "_cpu_count", lambda: count)


def _golden_batch():
    return draw_samples(make_two_mode_squeezed(0.3), 50, seed=9, source_label="tmsv(0.3)")


def _fail_on(start):
    """A row formatter that fails on the chunk beginning at `start`."""
    format_rows = sampling._format_rows

    def fail(samples, chunk):
        if chunk == start:
            raise ZeroDivisionError(f"chunk {chunk}")
        return format_rows(samples, chunk)

    return fail


def _exit_on(start):
    """A row formatter whose worker dies on the chunk beginning at `start`."""
    format_rows = sampling._format_rows

    def die(samples, chunk):
        if chunk == start:
            os._exit(7)
        return format_rows(samples, chunk)

    return die


class TestWorkers:
    """The forked path, with the CPU count patched to 1, 2 and 3 workers
    and chunks and ranges patched small so that 50 rows span many."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_write_bytes_do_not_depend_on_workers(self, tmp_path, monkeypatch, workers):
        _patch_workers(monkeypatch, workers)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 7)
        path = tmp_path / "batch.csv"
        write_batch(_golden_batch(), path)
        assert path.read_bytes() == GOLDEN_BATCH.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("range_bytes", [1, 64, 333])
    def test_read_over_range_seams(self, tmp_path, monkeypatch, workers, range_bytes):
        _patch_workers(monkeypatch, workers)
        monkeypatch.setattr(sampling, "READ_RANGE", range_bytes)
        head, data = GOLDEN_BATCH.read_text().split(CSV_HEADER + "\n")
        rows = data.splitlines()
        # CRLF ends and whitespace-only lines fall on range seams
        data = "".join(f"{row}\r\n{' ' * (k % 3)}\t\r\n" if k % 2 else f" {row} \r\n"
                       for k, row in enumerate(rows))
        path = tmp_path / "batch.csv"
        path.write_bytes(f"{head}{CSV_HEADER}\r\n\r\n{data}  \n".encode())
        batch = read_batch(path)
        assert batch.samples.tobytes() == _golden_batch().samples.tobytes()
        assert (batch.seed, batch.source_label) == (9, "tmsv(0.3)")

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("bad, message", [
        ("47,1,2,x,4", "line 51: non-numeric cell"),
        ("47,1,2,3,4,5", "line 51: expected 5 columns, got 6"),
        ("# late", "line 51: comment after header"),
    ])
    def test_bad_line_in_late_range(self, tmp_path, monkeypatch, workers, bad, message):
        monkeypatch.setattr(sampling, "READ_RANGE", 64)
        lines = GOLDEN_BATCH.read_text().splitlines(keepends=True)
        lines[50] = bad + "\n"  # row 47 of 50
        path = tmp_path / "bad.csv"
        path.write_text("".join(lines))
        errors = []
        for count in (1, workers):
            _patch_workers(monkeypatch, count)
            with pytest.raises(BatchFormatError) as info:
                read_batch(path)
            errors.append(str(info.value))
        assert errors == [message, message]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("formatter, error, match", [
        (_fail_on(0), ZeroDivisionError, "^chunk 0$"),
        (_exit_on(0), RuntimeError, "^worker 0 ended before sending its result$"),
    ], ids=["raises", "dies"])
    def test_worker_failure_raises_and_leaves_no_child(self, tmp_path, monkeypatch,
                                                       formatter, error, match):
        # worker 1 is then blocked sending a chunk larger than a pipe buffer,
        # so only killing it lets write_batch return; the alarm turns a hang
        # into a failure
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 2000)
        monkeypatch.setattr(sampling, "_format_rows", formatter)
        batch = draw_samples(make_vacuum(), 6000, seed=2)

        def hang(signum, frame):
            raise TimeoutError("write_batch did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(30)
        try:
            with pytest.raises(error, match=match):
                write_batch(batch, tmp_path / "batch.csv")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_daemon_process_writes_in_process(self, tmp_path, monkeypatch):
        # a daemonic process may not start children, so it formats itself
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 7)
        path = tmp_path / "batch.csv"
        context = multiprocessing.get_context("fork")
        proc = context.Process(target=write_batch, args=(_golden_batch(), path), daemon=True)
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert path.read_bytes() == GOLDEN_BATCH.read_bytes()


class TestBatchMemory:
    def test_read_peak_within_three_arrays(self, tmp_path):
        batch = draw_samples(make_vacuum(), 200_000, seed=37)
        path = tmp_path / "batch.csv"
        write_batch(batch, path)
        assert _peak_bytes(read_batch, path) < 3 * batch.samples.nbytes

    @pytest.mark.parametrize("workers", [None, 1], ids=["pool", "one-worker"])
    def test_write_peak_does_not_grow_with_n(self, tmp_path, monkeypatch, workers):
        # None leaves the worker count to the CPUs.  Chunks made smaller to
        # bound the run time; each N spans >= 12 chunks
        if workers is not None:
            _patch_workers(monkeypatch, workers)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 4096)
        # a first write outside the trace, so neither peak holds an import
        write_batch(draw_samples(make_vacuum(), 2 * 4096, seed=41), tmp_path / "warm.csv")
        small, large = (_peak_bytes(write_batch, draw_samples(make_vacuum(), n, seed=41),
                                    tmp_path / f"{n}.csv")
                        for n in (12 * 4096, 48 * 4096))
        assert large <= 1.1 * small


class TestEstimateCriteria:
    def test_vacuum_gemellity_near_one(self):
        batch = draw_samples(make_vacuum(), 10 ** 5, seed=11)
        est = estimate_criteria(batch)
        g = est.estimates["gemellity"]
        assert abs(g.value - 1.0) <= 5 * g.stderr

    def test_tmsv_estimates_match_analytic(self):
        r = 1.103
        state = make_two_mode_squeezed(r)
        batch = draw_samples(state, 10 ** 5, seed=13)
        est = estimate_criteria(batch)
        targets = report_scalars(state_moments(state))
        for key in ("gemellity", "separability", "epr_product_12",
                    "conditional_variance_12"):
            e = est.estimates[key]
            assert abs(e.value - targets[key]) <= 5 * e.stderr, key

    def test_consistency_as_n_grows(self):
        state = make_two_mode_squeezed(0.7)
        target = report_scalars(state_moments(state))["gemellity"]
        errors = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            est = estimate_criteria(draw_samples(state, n, seed=17))
            errors.append(abs(est.estimates["gemellity"].value - target))
        assert errors[-1] < errors[0]

    def test_estimator_uses_closed_forms_of_criteria_module(self):
        # the estimator applied to exact sample moments must reproduce
        # the analytic layer exactly (shared closed forms)
        batch = draw_samples(make_two_mode_squeezed(0.4), 2000, seed=19)
        dm = state_moments(np.cov(batch.samples, rowvar=False, ddof=0))
        est = estimate_criteria(batch)
        analytic = report_scalars(dm)
        numbers = {key: value for key, value in analytic.items() if value.dtype != bool}
        for key, value in numbers.items():
            assert est.estimates[key].value == pytest.approx(value, abs=1e-12)

    def test_requires_enough_samples_for_blocks(self):
        batch = draw_samples(make_vacuum(), 150, seed=23)
        with pytest.raises(ValueError):
            estimate_criteria(batch)

    def test_degenerate_column_rejected(self):
        samples = np.ones((400, 4))
        samples[:, 0] = np.linspace(0, 1, 400)
        samples[:, 1] = np.linspace(1, 0, 400)
        samples[:, 3] = np.linspace(0, 2, 400)
        batch = SampleBatch(samples=samples, seed=0)
        with pytest.raises(EstimationError):
            estimate_criteria(batch)

    def test_stderrs_nonnegative(self):
        batch = draw_samples(make_two_mode_squeezed(0.2), 5000, seed=29)
        est = estimate_criteria(batch)
        assert all(e.stderr >= 0.0 for e in est.estimates.values())

    def test_json_payload(self):
        batch = draw_samples(make_vacuum(), 1000, seed=31, source_label="vac")
        payload = estimate_criteria(batch).to_json()
        assert payload["n_samples"] == 1000
        assert payload["source_label"] == "vac"
        assert "gemellity" in payload["estimates"]
        assert set(payload["estimates"]["gemellity"]) == {"value", "stderr"}


# ---------------------------------------------------------------------------
# the streamed batch of a sampled run

ANGLES = st.one_of(st.just((0.0, math.pi / 2)), st.tuples(st.floats(-3.2, 3.2),
                                                        st.floats(-3.2, 3.2)))


def _sampled_scenario(n, seed, r, eta, angles):
    return scenario.parse_scenario(
        f"schema = twinbeams-scenario-1\nsource = tmsv({r!r})\n"
        f"step = beamsplitter(0.5, 0.2)\nstep = loss({eta!r}, 0.6)\n"
        f"theta_plus = {angles[0]!r}\ntheta_minus = {angles[1]!r}\n"
        f"sampling_n = {n}\nsampling_seed = {seed}\n")


class TestDrawnBatch:
    # Bit equality rests on BLAS rounding a row the same whatever the row
    # count of the product; CI runs this class on one BLAS thread as well.

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(200, 5000), seed=st.integers(0, 2 ** 32 - 1),
           r=st.floats(0.0, 2.0), eta=st.floats(0.05, 1.0), angles=ANGLES)
    @example(n=200, seed=0, r=0.6, eta=0.8, angles=(0.0, math.pi / 2))
    @example(n=5003, seed=41, r=0.6, eta=0.8, angles=(0.3, 1.9))
    @example(n=4999, seed=2 ** 32 - 1, r=1.5, eta=1.0, angles=(0.3, 1.9))
    def test_sampled_run_estimate_equals_estimate_of_drawn_samples(self, n, seed, r, eta,
                                                                   angles):
        scn = _sampled_scenario(n, seed, r, eta, angles)
        batch = draw_samples(scenario.build_state(scn), n, seed,
                             source_label=scn.source.format())
        expected = estimate_criteria(batch, theta_plus=angles[0],
                                     theta_minus=angles[1]).to_json()
        assert scenario.run_scenario(scn)["estimated"] == expected

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(200, 5000), seed=st.integers(0, 2 ** 32 - 1),
           offset=st.sampled_from([0.0, -7.5, 1e5]), angles=ANGLES)
    @example(n=200, seed=3, offset=1e5, angles=(0.3, 1.9))
    @example(n=1234, seed=9, offset=1e5, angles=(0.0, math.pi / 2))
    def test_blocks_equal_those_of_drawn_samples(self, n, seed, offset, angles):
        cov = apply_loss(apply_beamsplitter(make_two_mode_squeezed(0.6), 0.5, 0.2),
                         0.8, 0.6).cov
        state = GaussianTwoModeState(mean=offset * np.array([1.0, -0.5, 0.25, 1.0]), cov=cov)
        drawn = DrawnBatch(state, n, seed, source_label="displaced")
        batch = draw_samples(state, n, seed, source_label="displaced")
        for got, want in zip(drawn.blocks(100), batch.blocks(100), strict=True):
            assert got.tobytes() == want.tobytes()
        assert (estimate_criteria(drawn, theta_plus=angles[0], theta_minus=angles[1]).to_json()
                == estimate_criteria(batch, theta_plus=angles[0],
                                     theta_minus=angles[1]).to_json())

    @pytest.mark.parametrize("state, seed, message", [
        (make_vacuum(), -1, "seed must be a non-negative integer, got -1"),
        (apply_loss(make_two_mode_squeezed(1.0), np.array([0.5, 0.7]), 0.5), 0,
         "takes one state, got a stack of shape (2,)"),
    ], ids=["negative-seed", "stack"])
    def test_checks_of_draw_samples(self, state, seed, message):
        for make in (draw_samples, DrawnBatch):
            with pytest.raises(ValueError, match=re.escape(message)):
                make(state, 1000, seed)

    def test_sampled_run_peak_scales_with_the_block_not_the_batch(self):
        # A sampled run holds a few blocks of n / 100 rows at a time, never
        # the n x 4 batch: each peak stays below six blocks, 6% of one
        # batch array.
        def peak(n):
            return _peak_bytes(scenario.run_scenario, _sampled_scenario(
                n, 43, 0.8, 0.9, (0.0, math.pi / 2)))

        peak(1000)  # outside the measurement: first-call allocations
        for n in (200_000, 800_000):
            assert peak(n) < 6 * (n // 100) * 4 * 8, n
