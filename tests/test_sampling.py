import collections
import contextlib
import ctypes
import errno
import io
import itertools
import json
import math
import multiprocessing
import os
import pickle
import re
import resource
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twinbeams
from twinbeams import _decimal, batchfile, sampling, scenario
from twinbeams.batchfile import CSV_HEADER, BatchFormatError, FileBatch
from twinbeams.cli import main
from twinbeams.criteria import report_scalars, state_moments
from twinbeams.sampling import (
    BLOCKS,
    WRITE_CHUNK,
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
# forked CSV workers that can set glibc's heap thresholds
_KEEPS_HEAP = hasattr(os, "fork") and hasattr(ctypes.CDLL(None), "mallopt")
_NO_KEPT_HEAP = "no forked workers, or no glibc mallopt"


@pytest.fixture(autouse=True)
def no_thread_left():
    """Every test ends with the threads it began with: no drawing helper
    outlives its blocks, however they end."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before


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

    @pytest.mark.parametrize("samples, seed, message", [
        (np.ones((300, 4)), -3, "seed must be a non-negative integer, got -3"),
        (np.ones((10, 3)), 0, "samples must be N x 4, got shape (10, 3)"),
        (np.full((10, 4), np.nan), 0, "samples must be finite"),
    ], ids=["negative-seed", "three-columns", "nan"])
    def test_bad_batch_rejected(self, samples, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SampleBatch(samples=samples, seed=seed)

    def test_fresh_batches_are_not_copied(self, tmp_path, monkeypatch):
        given = []

        def spy(samples, **fields):
            given.append(samples)
            return SampleBatch(samples=samples, **fields)

        monkeypatch.setattr(sampling, "SampleBatch", spy)
        drawn = draw_samples(make_vacuum(), 100, seed=1)
        write_batch(drawn, tmp_path / "batch.csv")
        read_batch(tmp_path / "batch.csv").samples  # a file batch builds no SampleBatch
        assert len(given) == 1 and drawn.samples is given[0]


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

    @settings(max_examples=100)
    @given(label=st.text())
    @example(label="\xa0x\x1c")  # ends that str.strip removes and bytes.strip keeps
    @example(label="a\rb\x85c\u2028d")  # line ends of text mode, not of the file
    @example(label="a\nb")
    @example(label="\ud800")  # a lone surrogate, which UTF-8 cannot encode
    def test_every_label_written_reads_back(self, label):
        # the batch rule refuses a label that the file could not carry
        samples = np.array(GRAMMAR_ROWS)
        try:
            batch = SampleBatch(samples=samples, seed=5, source_label=label)
        except ValueError as exc:
            assert str(exc).startswith("source_label must be ")
            return
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "batch.csv"
            write_batch(batch, path)
            back = read_batch(path)
            assert (back.source_label, back.samples.tolist()) == (label, GRAMMAR_ROWS)

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
            read_batch(path).samples

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0,3.0,4.0\n")
        with pytest.raises(BatchFormatError, match="header"):
            read_batch(path)


# The reader's grammar, each case written with `{h}` for the header and
# `\udcff` for the byte 0xff.  Accepted files hold seed 5, label "x" and
# the two rows of GRAMMAR_ROWS.
GRAMMAR_ROWS = [[1.5, 2.5, 3.5, 4.5], [-1.0, 0.25, 1e-3, 7.0]]
FIRST_ROW = "0,1.5,2.5,3.5,4.5"


def _grammar_file(*rows):
    return "# seed: 5\n# source_label: x\n{h}\n" + "".join(row + "\n" for row in rows)


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
    "comment-not-utf-8": "# seed: 5\n# source_label: x\n# \udcff\n{h}\n0,1.5,2.5,3.5,4.5\n"
                         "1,-1.0,0.25,1e-3,7\n",
    # numbers the writer never spells
    "25-digit-mantissas": _grammar_file(*(
        f"{i}," + ",".join(f"{Decimal(repr(v)):.24f}" for v in row)
        for i, row in enumerate(GRAMMAR_ROWS))),
    "point-without-fraction": _grammar_file(FIRST_ROW, "1,-1.0,0.25,1e-3,7."),
    "plus-sign": _grammar_file("0,+1.5,2.5,3.5,4.5", "1,-1.0,0.25,1e-3,+7"),
    "fraction-without-integer": _grammar_file(FIRST_ROW, "1,-1.0,.25,1e-3,7"),
    "capital-exponent": _grammar_file(FIRST_ROW, "1,-1.0,0.25,1E-3,7"),
    "two-digit-exponent": _grammar_file(FIRST_ROW, "1,-1.0,0.25,1e-03,7"),
    "exponent-of-whole-number": _grammar_file(FIRST_ROW, "1,-1.0,0.25,1e-3,70e-1"),
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
    "nan": ("{h}\n0,1,2,3,4\n1,1,nan,3,4\n", BatchFormatError, "line 3: non-finite cell"),
    "overflowing-cell": ("{h}\n0,1,2,3,4\n\n1,1,2,1e400,4\n", BatchFormatError,
                         "line 4: non-finite cell"),
    "overflowing-repr-cell": ("{h}\n0,1,2,3,4\n1,1,2,1e+400,4\n", BatchFormatError,
                              "line 3: non-finite cell"),
    "overflowing-index": ("{h}\n0,1,2,3,4\n" + "9" * 400 + ",1,2,3,4\n", BatchFormatError,
                          "line 3: non-finite cell"),
    "one-row": ("{h}\n0,1,2,3,4\n\n", BatchFormatError, "batch holds fewer than 2 samples"),
    "no-rows": ("# seed: 5\n{h}\n", BatchFormatError, "batch holds fewer than 2 samples"),
    "negative-seed": ("# source_label: x\n# seed: -5\n{h}\n0,1,2,3,4\n1,1,2,3,4\n",
                      BatchFormatError, "line 2: bad seed value"),
    "label-not-utf-8": ("# seed: 5\n# source_label: \udcff\n{h}\n0,1,2,3,4\n1,1,2,3,4\n",
                        BatchFormatError, "line 2: bad source_label value"),
    "comments-only": ("# seed: 5\n# source_label: x\n\n", BatchFormatError, "missing header row"),
    # a line is blank only when bytes.strip empties it, before the header as after
    "no-break-space-line": ("# seed: 5\n\u00a0\n{h}\n0,1,2,3,4\n1,1,2,3,4\n", BatchFormatError,
                            f"line 2: expected header {CSV_HEADER!r}, got '\\xa0'"),
    "file-separator-line": ("# seed: 5\n\x1c\n{h}\n0,1,2,3,4\n1,1,2,3,4\n", BatchFormatError,
                            f"line 2: expected header {CSV_HEADER!r}, got '\\x1c'"),
    # a line ends at LF alone, before the header as after
    "lone-cr-header": ("# seed: 5\n{h}\r0,1,2,3,4\n1,1,2,3,4\n", BatchFormatError,
                       f"line 2: expected header {CSV_HEADER!r}, got "
                       + repr(CSV_HEADER + "\r0,1,2,3,4")),
    "lone-cr-comments": ("# seed: 5\r# source_label: x\r{h}\n0,1,2,3,4\n1,1,2,3,4\n",
                         BatchFormatError, "line 1: bad seed value"),
    # rows are numbered from 0, so the last sample_index is the row count less one
    "duplicated-row": ("{h}\n0,1,2,3,4\n1,1,2,3,4\n1,1,2,3,4\n", BatchFormatError,
                       "line 4: sample_index 1 is not the last of 3 rows numbered from 0"),
    "dropped-row": ("{h}\n0,1,2,3,4\n\n2,1,2,3,4\n", BatchFormatError,
                    "line 4: sample_index 2 is not the last of 2 rows numbered from 0"),
    "index-past-capacity": ("{h}\n0,1,2,3,4\n1000000000000000,1,2,3,4\n", BatchFormatError,
                            "line 3: sample_index 1000000000000000 is not the last of 2 rows "
                            "numbered from 0"),
    "last-index-not-digits": ("{h}\n0,1,2,3,4\n1e0,1,2,3,4\n", BatchFormatError,
                              "line 3: sample_index 1e0 is not the last of 2 rows numbered from 0"),
}


def _write_text(path, text):
    path.write_bytes(text.format(h=CSV_HEADER).encode("utf-8", "surrogateescape"))
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
            read_batch(_write_text(tmp_path / "batch.csv", text)).samples


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


def _worker_faults(fn, *args) -> int:
    """Minor page faults of the workers that one call forks and reaps."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    fn(*args)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


def _patch_workers(monkeypatch, count):
    monkeypatch.setattr(batchfile, "_cpu_count", lambda: count)


def _golden_batch():
    return draw_samples(make_two_mode_squeezed(0.3), 50, seed=9, source_label="tmsv(0.3)")


def _fail_on(row, error=None):
    """A row formatter that fails on the chunk beginning at `row`, with
    `error` or a ZeroDivisionError naming the chunk."""
    format_rows = _decimal.format_rows

    def fail(start, rows):
        if start == row:
            raise error or ZeroDivisionError(f"chunk {start}")
        return format_rows(start, rows)

    return fail


def _exit_on(row):
    """A row formatter whose worker dies on the chunk beginning at `row`."""
    format_rows = _decimal.format_rows

    def die(start, rows):
        if start == row:
            os._exit(7)
        return format_rows(start, rows)

    return die


def _patch_draws(monkeypatch, fail_on=None, delay=0.0):
    """Make the sampler's generator record the thread of each draw (the
    list returned), sleep `delay` s before it, and raise MemoryError on
    draw number `fail_on`, counted from 0."""
    threads = []

    class Watched(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            threads.append(threading.current_thread())
            if len(threads) - 1 == fail_on:
                raise MemoryError
            time.sleep(delay)
            return super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Watched)
    return threads


def _small_batch():
    return draw_samples(make_vacuum(), 12000, seed=2)


def _long_drawn_batch():
    return DrawnBatch(make_vacuum(), 80000, 2)  # 20 chunks of 4000 rows


@pytest.fixture(scope="module")
def written_1e5(tmp_path_factory):
    """A written batch of 1e5 rows, about 8.5 MB."""
    path = tmp_path_factory.mktemp("written") / "batch.csv"
    write_batch(DrawnBatch(make_vacuum(), 100_000, 4), path)
    return path


# a worker's reply, as it crosses the socket whole
_REPLY = pickle.dumps((False, bytes(1000)), pickle.HIGHEST_PROTOCOL)


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
        monkeypatch.setattr(batchfile, "READ_RANGE", range_bytes)
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
        ("47,1,2,nan,4", "line 51: non-finite cell"),
        ("# late", "line 51: comment after header"),
    ])
    def test_bad_line_in_late_range(self, tmp_path, monkeypatch, capsys, workers, bad, message):
        # 50 rows: read_batch parses a file under the sample floor whole,
        # so it names the bad line rather than the floor
        monkeypatch.setattr(batchfile, "READ_RANGE", 64)
        lines = GOLDEN_BATCH.read_text().splitlines(keepends=True)
        lines[50] = bad + "\n"  # row 47 of 50
        path = tmp_path / "bad.csv"
        path.write_text("".join(lines))
        errors = []
        for count in (1, workers):
            _patch_workers(monkeypatch, count)
            with pytest.raises(BatchFormatError) as info:
                estimate_criteria(read_batch(path))
            errors.append(str(info.value))
            assert main(["estimate", "--batch", str(path)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
        assert errors == [message, message]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_dropped_row_in_late_range(self, written_1e5, tmp_path, monkeypatch, capsys,
                                       workers):
        # 1e5 rows in 3 ranges: row 95000, on line 95004, is in the last
        _patch_workers(monkeypatch, workers)
        lines = written_1e5.read_bytes().splitlines(keepends=True)
        del lines[95003]
        path = tmp_path / "dropped.csv"
        path.write_bytes(b"".join(lines))
        assert len(read_batch(path).spans) == 3
        message = "line 100002: sample_index 99999 is not the last of 99999 rows numbered from 0"
        with pytest.raises(BatchFormatError, match=f"^{message}$"):
            estimate_criteria(read_batch(path))
        assert main(["estimate", "--batch", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {message}"]
        assert multiprocessing.active_children() == []

    def test_estimate_parses_in_one_pool(self, tmp_path, monkeypatch):
        # read_batch takes n from the last row and forks nothing; the
        # jackknife's blocks are the one parse of the rows
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(batchfile, "READ_RANGE", 4096)
        path = tmp_path / "batch.csv"
        write_batch(draw_samples(make_vacuum(), 1000, 3), path)
        maps, forks = [], []
        ordered_map, fork = batchfile._ordered_map, os.fork
        monkeypatch.setattr(batchfile, "_ordered_map",
                            lambda func, *args: maps.append(func) or ordered_map(func, *args))
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        batch = read_batch(path)
        assert len(batch.spans) > 2
        assert (maps, forks) == ([], [])
        estimate_criteria(batch)
        assert (maps, len(forks)) == ([batchfile._parse_range], 2)

    @pytest.mark.parametrize("formatter, make_batch, error, match", [
        (_fail_on(0), _small_batch, ZeroDivisionError, "^chunk 0$"),
        (_exit_on(0), _small_batch, RuntimeError, "^worker 0 ended before sending its result$"),
        # chunk 7 of 20, on worker 1, while the parent is still drawing
        (_fail_on(7 * 4000), _long_drawn_batch, ZeroDivisionError, "^chunk 28000$"),
        (_exit_on(7 * 4000), _long_drawn_batch, RuntimeError,
         "^worker 1 ended before sending its result$"),
    ], ids=["raises", "dies", "raises-late", "dies-late"])
    def test_worker_failure_raises_and_leaves_no_child(self, tmp_path, monkeypatch,
                                                       formatter, make_batch, error, match):
        # the other worker is then blocked sending a chunk larger than a
        # socket buffer, so only killing it lets write_batch return; the
        # alarm turns a hang into a failure
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 4000)
        monkeypatch.setattr(_decimal, "format_rows", formatter)
        batch = make_batch()

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
        assert list(tmp_path.iterdir()) == []  # no truncated batch to be read

    @pytest.mark.parametrize("reply", [_REPLY[:len(_REPLY) // 2], b""], ids=["cut-short", "empty"])
    def test_reply_cut_short_is_a_worker_that_ended(self, reply):
        with pytest.raises(RuntimeError, match="^worker 0 ended before sending its result$"):
            batchfile._take(io.BytesIO(reply), 0)

    def test_exception_that_does_not_pickle_is_a_worker_that_ended(self, monkeypatch):
        # the worker cannot send what it raised, so it ends with nothing sent
        _patch_workers(monkeypatch, 2)

        def fail():
            raise ValueError(lambda: None)  # its args do not pickle

        with pytest.raises(RuntimeError, match="^worker 0 ended before sending its result$"):
            list(batchfile._ordered_map(fail, [()] * 2, 2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fault, message", [
        ("worker", "[Errno 28] No space left on device"),
        ("helper", "n = 80000: drawing 4000 x 4 samples needs 256000 bytes, "
                   "more than can be allocated"),
    ], ids=["worker", "helper"])
    def test_failed_sample_leaves_no_file(self, tmp_path, monkeypatch, capsys, fault, message):
        # chunk 7 of 20 fails after earlier chunks are written: `sample`
        # exits 2 and leaves no batch that `estimate` would score
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 4000)
        if fault == "worker":
            full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            monkeypatch.setattr(_decimal, "format_rows", _fail_on(7 * 4000, full))
        else:
            _patch_draws(monkeypatch, fail_on=7)
        scn = tmp_path / "scn.txt"
        scn.write_text("schema = twinbeams-scenario-1\nsource = tmsv(0.5)\n")
        out = tmp_path / "batch.csv"
        assert main(["sample", "--scenario", str(scn), "--n", "80000", "--seed", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        _patch_workers(monkeypatch, 1)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 4000)
        monkeypatch.setattr(_decimal, "format_rows", _fail_on(2 * 4000, KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            write_batch(_long_drawn_batch(), tmp_path / "batch.csv")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_a_pipe(self, tmp_path, monkeypatch):
        # only a regular file is removed; a pipe is written as _check_room lets it be
        _patch_workers(monkeypatch, 1)
        monkeypatch.setattr(_decimal, "format_rows", _fail_on(0))
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
        try:
            with pytest.raises(ZeroDivisionError, match="^chunk 0$"):
                write_batch(_small_batch(), pipe)
            assert os.read(reader, 1 << 16).startswith(b"# seed: 2\n")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)

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


    def test_workers_write_a_pipe_as_a_file(self, tmp_path, monkeypatch):
        # each worker writes its chunks, larger than a pipe's buffer, into
        # the FIFO in turn while a thread drains it
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 4000)
        path, pipe = tmp_path / "batch.csv", tmp_path / "pipe"
        write_batch(_long_drawn_batch(), path)
        os.mkfifo(pipe)
        drained = []
        reader = threading.Thread(target=lambda: drained.append(pipe.read_bytes()))
        reader.start()
        try:
            write_batch(_long_drawn_batch(), pipe)
        finally:
            reader.join(timeout=60)
        assert drained == [path.read_bytes()]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_multi_chunk_sample_to_a_full_device(self, tmp_path, monkeypatch, capsys):
        # 3 chunks on 2 workers; the header's write, in the parent, fails first
        _patch_workers(monkeypatch, 2)
        scn = tmp_path / "scn.txt"
        scn.write_text("schema = twinbeams-scenario-1\nsource = tmsv(0.5)\n")
        assert main(["sample", "--scenario", str(scn), "--n", "40000", "--seed", "2",
                     "--out", "/dev/full"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '/dev/full'"]
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file size limit to set")
    def test_worker_write_error_names_the_file(self, tmp_path):
        # a 100 KB file size limit: the header fits, and worker 0's write of
        # chunk 0 fails part way with EFBIG, raised in the parent
        scn, out = tmp_path / "scn.txt", tmp_path / "batch.csv"
        scn.write_text("schema = twinbeams-scenario-1\nsource = tmsv(0.5)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(twinbeams.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", _LIMITED_POOL, "sample", "--scenario", str(scn),
                               "--n", "40000", "--seed", "2", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "no child\n")
        assert proc.stderr == (f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: "
                               f"{str(out)!r}\n")
        assert not out.exists()


# a CLI on 2 workers whose files may hold at most 100 KB; it prints
# whether any child is left once `main` returns
_LIMITED_POOL = """import os, resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from twinbeams import batchfile
from twinbeams.cli import main
batchfile._cpu_count = lambda: 2
code = main()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child")
sys.exit(code)
"""


def _children(pid: int) -> list:
    with open(f"/proc/{pid}/task/{pid}/children") as listed:
        return [int(child) for child in listed.read().split()]


def _running(pid: int) -> bool:
    """pid is a process that has not ended (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat_file:
            return stat_file.read().rpartition(")")[2].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                    reason="no /proc children list")
@pytest.mark.skipif(batchfile._cpu_count() < 2, reason="one CPU: no worker is forked")
class TestKilledCommand:
    """A command killed by SIGKILL leaves no worker behind: each worker
    reads EOF from its channel once the parent is gone, and exits with
    no traceback.  Ctrl-C, a SIGINT to the whole process group, ends the
    command by that signal, with no traceback and no output file."""

    def _stop(self, tmp_path, command, stop):
        """Start `command` in a new session, call stop(proc) once all its
        workers are seen, and check that every worker ends and nothing
        reaches stderr; returns the exit status and the output path."""
        scn, batch, out = tmp_path / "scn.txt", tmp_path / "batch.csv", tmp_path / "out"
        scn.write_text("schema = twinbeams-scenario-1\nsource = tmsv(0.5)\n")
        argv = {
            "sample": ["sample", "--scenario", str(scn), "--n", "3000000", "--seed", "2"],
            "estimate": ["estimate", "--batch", str(batch)],
        }[command]
        if command == "estimate":
            write_batch(DrawnBatch(make_vacuum(), 500_000, 3), batch)
            tasks = len(read_batch(batch).spans)
        else:
            tasks = -(-3_000_000 // WRITE_CHUNK)
        forked = min(batchfile._cpu_count(), tasks)  # the workers of one pool
        env = {**os.environ, "PYTHONPATH": str(Path(twinbeams.__file__).parents[1])}
        with open(tmp_path / "stderr", "wb") as stderr:
            proc = subprocess.Popen([sys.executable, "-m", "twinbeams.cli", *argv, "--out", str(out)],
                                    env=env, stderr=stderr, start_new_session=True)
        workers = []
        try:
            # sample: once output has begun; estimate: while it parses
            while len(workers) < forked and proc.poll() is None:
                if command == "estimate" or (out.exists() and out.stat().st_size):
                    with contextlib.suppress(FileNotFoundError):  # it has just ended
                        workers = _children(proc.pid)
                time.sleep(0.002)
            assert len(workers) == forked, "the command ended before its workers were seen"
            stop(proc)
            proc.wait()
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            proc.kill()
            proc.wait()
            for pid in workers:
                if _running(pid):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
        assert (tmp_path / "stderr").read_bytes() == b""  # no traceback
        return proc.returncode, out

    @pytest.mark.parametrize("command", ["sample", "estimate"])
    def test_workers_end_with_their_parent(self, tmp_path, command):
        status, _ = self._stop(tmp_path, command, subprocess.Popen.kill)
        assert status == -signal.SIGKILL

    @pytest.mark.parametrize("command", ["sample", "estimate"])
    def test_interrupt_ends_by_sigint(self, tmp_path, command):
        status, out = self._stop(tmp_path, command,
                                 lambda proc: os.killpg(proc.pid, signal.SIGINT))
        assert status == -signal.SIGINT
        assert not out.exists()


class TestBatchMemory:
    def test_read_peak_within_three_arrays(self, tmp_path):
        batch = draw_samples(make_vacuum(), 200_000, seed=37)
        path = tmp_path / "batch.csv"
        write_batch(batch, path)
        assert _peak_bytes(lambda p: read_batch(p).samples, path) < 3 * batch.samples.nbytes

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

    @pytest.mark.parametrize("workers", [None, 1], ids=["pool", "one-worker"])
    def test_streamed_peaks_do_not_grow_with_n(self, tmp_path, monkeypatch, workers):
        # `sample` writes a DrawnBatch and `estimate` reads the file range by
        # range: neither holds the batch, so 48 chunks peak as 12 do.  Ranges
        # of 90% of the smaller file: both files are parsed by the pool, in
        # ranges of one size.
        if workers is not None:
            _patch_workers(monkeypatch, workers)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 4096)
        write_batch(DrawnBatch(make_vacuum(), 2 * 4096, 41), tmp_path / "warm.csv")
        paths = [tmp_path / f"{chunks}.csv" for chunks in (12, 48)]
        writes = [_peak_bytes(write_batch, DrawnBatch(make_vacuum(), chunks * 4096, 41), path)
                  for chunks, path in zip((12, 48), paths)]
        monkeypatch.setattr(batchfile, "READ_RANGE", int(0.9 * paths[0].stat().st_size))
        estimate_criteria(read_batch(paths[0]))
        estimates = [_peak_bytes(lambda p: estimate_criteria(read_batch(p)), path)
                     for path in paths]
        assert writes[1] <= 1.1 * writes[0]
        assert estimates[1] <= 1.1 * estimates[0]

    def test_parent_write_peak_below_two_chunks(self, tmp_path, monkeypatch):
        # the parent draws a block and sends it, and each worker writes the
        # chunk it formats: the parent never holds two chunks' bytes
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 4096)
        batch = DrawnBatch(make_vacuum(), 12 * 4096, 41)
        write_batch(batch, tmp_path / "warm.csv")
        peak = _peak_bytes(write_batch, batch, tmp_path / "batch.csv")
        chunk_bytes = min(len(_decimal.format_rows(start, block))
                          for start, block in sampling._numbered(batch.blocks(12)))
        assert peak < 2 * chunk_bytes

    @pytest.mark.skipif(not _KEEPS_HEAP, reason=_NO_KEPT_HEAP)
    def test_workers_set_the_heap_thresholds(self, monkeypatch):
        _patch_workers(monkeypatch, 2)
        kept = batchfile._ordered_map(lambda: bytes([batchfile._keep_freed_heap()]), [()] * 2, 2)
        assert b"".join(kept) == b"\1\1"

    @pytest.mark.skipif(not _KEEPS_HEAP, reason=_NO_KEPT_HEAP)
    def test_worker_faults_do_not_grow_with_chunks(self, tmp_path, monkeypatch):
        # Each worker keeps the heap its kernels free, so a chunk or a range
        # reuses the pages of the one before: 40 of them fault as 10 do.
        # Per extra 8192-row chunk, 4-5 faults were read with the thresholds
        # set and 1085-1467 with glibc's defaults; per extra range, 4 and
        # 1321.  Two chunks first, so that neither count holds the workers'
        # first use of the kernels.
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 8192)
        paths = {chunks: tmp_path / f"{chunks}.csv" for chunks in (2, 10, 40)}
        writes = {chunks: _worker_faults(write_batch, DrawnBatch(make_vacuum(), chunks * 8192, 43),
                                         path) for chunks, path in paths.items()}
        monkeypatch.setattr(batchfile, "READ_RANGE", paths[2].stat().st_size // 2)
        batches = {chunks: read_batch(path) for chunks, path in paths.items()}
        reads = {chunks: _worker_faults(collections.deque, batch.blocks(BLOCKS), 0)
                 for chunks, batch in batches.items()}
        assert (writes[40] - writes[10]) / 30 < 100, writes
        assert (reads[40] - reads[10]) / 30 < 100, reads


def _crlf_and_blank_lines(path):
    """Rewrite a written batch with CRLF ends, padded cells and blank and
    whitespace-only lines between the rows."""
    head, data = path.read_text().split(CSV_HEADER + "\n")
    data = "".join(f"{row}\r\n{' ' * (k % 3)}\t\r\n" if k % 2 else f" {row} \r\n"
                   for k, row in enumerate(data.splitlines()))
    path.write_bytes(f"{head}{CSV_HEADER}\r\n\r\n{data}  \n".encode())


class TestStreamedCsv:
    """`write_batch` of a DrawnBatch and the estimate of a file batch, with
    the worker count, the chunk and the byte range patched.  Bit equality
    rests on DrawnBatch rows not depending on the block count; CI runs
    this class on one BLAS thread as well."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [7, 17, 25])  # 50 rows: 7 * 7 + 1, 3 * 17 - 1, 2 * 25
    def test_drawn_batch_writes_the_golden_bytes(self, tmp_path, monkeypatch, workers, chunk):
        _patch_workers(monkeypatch, workers)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", chunk)
        state = make_two_mode_squeezed(0.3)
        for batch in (DrawnBatch(state, 50, 9, "tmsv(0.3)"), _golden_batch()):
            write_batch(batch, tmp_path / "batch.csv")
            assert (tmp_path / "batch.csv").read_bytes() == GOLDEN_BATCH.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [5 * 64 - 1, 5 * 64 + 1])
    def test_drawn_batch_writes_the_bytes_of_its_array(self, tmp_path, monkeypatch, workers, n):
        _patch_workers(monkeypatch, workers)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 64)
        state = apply_loss(make_two_mode_squeezed(1.1), 0.9, 0.8)
        write_batch(DrawnBatch(state, n, 12, "lossy"), tmp_path / "drawn.csv")
        write_batch(draw_samples(state, n, 12, "lossy"), tmp_path / "array.csv")
        assert (tmp_path / "drawn.csv").read_bytes() == (tmp_path / "array.csv").read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_file_batch_writes_the_bytes_it_was_read_from(self, tmp_path, monkeypatch, workers):
        # both maps at once: the writer's workers format what the reader's workers parse
        _patch_workers(monkeypatch, workers)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 7)
        monkeypatch.setattr(batchfile, "READ_RANGE", 333)
        write_batch(read_batch(GOLDEN_BATCH), tmp_path / "batch.csv")
        assert (tmp_path / "batch.csv").read_bytes() == GOLDEN_BATCH.read_bytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("range_bytes", [1, 64, 333])
    def test_file_estimate_equals_estimate_of_drawn_batch(self, tmp_path, monkeypatch,
                                                          workers, range_bytes):
        # 1003 rows in jackknife blocks of 10 and 11: ranges of 333 bytes
        # hold 1 to 3 rows, so most seams fall inside a block
        _patch_workers(monkeypatch, workers)
        monkeypatch.setattr(batchfile, "READ_RANGE", range_bytes)
        batch = draw_samples(apply_loss(make_two_mode_squeezed(1.1), 0.9, 0.8), 1003, 5, "lossy")
        path = tmp_path / "batch.csv"
        write_batch(batch, path)
        _crlf_and_blank_lines(path)
        read = read_batch(path)
        assert (read.n, read.seed, read.source_label) == (1003, 5, "lossy")
        assert (json.dumps(estimate_criteria(read).to_json())
                == json.dumps(estimate_criteria(batch).to_json()))
        assert multiprocessing.active_children() == []

    def test_bad_line_met_by_the_jackknife(self, tmp_path, monkeypatch, capsys):
        # a fault in a late range surfaces while the blocks are read, and
        # the parse workers are gone once the error is raised
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(batchfile, "READ_RANGE", 4096)
        path = tmp_path / "bad.csv"
        write_batch(draw_samples(make_vacuum(), 1000, 3), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[903] = "900,1,2,x,4\n"
        path.write_text("".join(lines))
        with pytest.raises(BatchFormatError, match="^line 904: non-numeric cell$"):
            estimate_criteria(read_batch(path))
        assert multiprocessing.active_children() == []
        assert main(["estimate", "--batch", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: line 904: non-numeric cell"]


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

    def test_overflowing_moments_rejected(self):
        # finite rows whose squared jackknife deviations overflow
        samples = 1e40 * np.random.default_rng(0).standard_normal((1000, 4))
        with pytest.raises(EstimationError, match="^batch moments overflow double precision"):
            estimate_criteria(SampleBatch(samples=samples, seed=0))

    @pytest.mark.parametrize("column", [
        1e38 * np.random.default_rng(0).standard_normal(2000),  # covariances of ~1e76
        # a mean of 1e76: its steps of one ulp (1.6e60) give a variance of ~6e119
        np.where(np.arange(2000) % 2, 1e76, np.nextafter(1e76, 0.0)),
    ], ids=["covariance", "mean"])
    def test_moments_beyond_the_batch_bound_rejected(self, column):
        # finite all through, but no state within the moment bound yields them
        samples = np.random.default_rng(1).standard_normal((2000, 4))
        samples[:, 0] = column
        with pytest.raises(EstimationError, match="^batch moments overflow double precision"):
            estimate_criteria(SampleBatch(samples=samples, seed=0))

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

    @settings(max_examples=60)
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

    @settings(max_examples=60)
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

    @pytest.mark.parametrize("seed, label, message", [
        *((seed, "", f"seed must be a non-negative integer, got {seed}")
          for seed in (2.5, 3.0, True)),
        *((1, label, "source_label must be a str of one line with no whitespace at either end, "
                     f"got {label!r}") for label in ("a\nb", "  x ", "x\r", b"x", None)),
        (1, "x\udcff", "source_label must be UTF-8 text, got 'x\\udcff'"),
    ], ids=["2.5", "3.0", "True", "line-feed", "padded", "carriage-return", "bytes", "none",
            "surrogate"])
    def test_batch_rule_shared_by_every_batch_type(self, seed, label, message):
        # a FileBatch is refused before its file is opened: this one has none
        for make in (lambda: SampleBatch(samples=np.ones((300, 4)), seed=seed, source_label=label),
                     lambda: DrawnBatch(make_vacuum(), 300, seed, label),
                     lambda: draw_samples(make_vacuum(), 300, seed, label),
                     lambda: FileBatch("no-such-file.csv", 300, seed, label)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make()

    def test_numpy_integer_seed_kept_as_int(self):
        samples = np.ones((300, 4))
        for batch in (SampleBatch(samples=samples, seed=np.int64(3)),
                      DrawnBatch(make_vacuum(), 300, np.uint32(3)),
                      draw_samples(make_vacuum(), 300, np.int64(3))):
            assert type(batch.seed) is int and batch.seed == 3
        est = estimate_criteria(draw_samples(make_vacuum(), 300, np.int64(3)))
        assert json.loads(json.dumps(est.to_json()))["seed"] == 3

    def test_float_n_rejected(self):
        for make in (DrawnBatch, draw_samples):
            with pytest.raises(ValueError, match=r"^n must be an integer, got 300\.0$"):
                make(make_vacuum(), 300.0, 1)

    @pytest.mark.parametrize("n, n_blocks", [(2, 1), (3, 5), (200, 100), (1001, 7),
                                             (12345, 100), (5003, 610)])
    def test_block_sizes_are_those_of_array_split(self, n, n_blocks):
        sizes = [len(block) for block in DrawnBatch(make_vacuum(), n, 1).blocks(n_blocks)]
        assert sizes == [len(part) for part in np.array_split(np.empty(n), n_blocks)]

    def test_block_sizes_cost_no_memory(self):
        # `write_batch` of 1e10 rows: 610352 chunks, each size made as it is
        # asked for (the first n % 610352 one row longer), none held
        tracemalloc.start()
        try:
            runs = [(size, sum(1 for _ in run))
                    for size, run in itertools.groupby(sampling._block_sizes(10 ** 10, 610352))]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert runs == [(16384, 10 ** 10 % 610352), (16383, 610352 - 10 ** 10 % 610352)]
        assert peak < 10_000

    @pytest.mark.parametrize("angles", [(math.nan, 0.0), (0.0, math.inf), (1e308, 0.0)])
    def test_bad_angle_rejected_before_any_block(self, monkeypatch, angles):
        def no_blocks(self, n_blocks):
            raise AssertionError("a block was requested")

        monkeypatch.setattr(DrawnBatch, "blocks", no_blocks)
        batch = DrawnBatch(make_two_mode_squeezed(0.5), 2_000_000, 1)
        with pytest.raises(ValueError, match="^measurement angle must be finite"):
            estimate_criteria(batch, *angles)

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


class TestDrawingHelper:
    """DrawnBatch's helper thread draws the next block's normals while the
    caller uses the current one.  The autouse fixture checks after every
    test that no thread is left."""

    def test_full_jackknife_draws_on_one_helper_and_joins_it(self, monkeypatch):
        threads = _patch_draws(monkeypatch)
        estimate_criteria(DrawnBatch(make_vacuum(), 20_000, 1))
        assert len(threads) == BLOCKS and len(set(threads)) == 1
        assert threads[0] is not threading.main_thread() and not threads[0].is_alive()

    def test_unread_blocks_start_no_thread(self):
        before = threading.active_count()
        blocks = DrawnBatch(make_vacuum(), 1000, 1).blocks(10)
        assert threading.active_count() == before
        blocks.close()

    def test_close_after_three_blocks_joins_the_helper(self, monkeypatch):
        threads = _patch_draws(monkeypatch)
        before = threading.active_count()
        blocks = DrawnBatch(make_vacuum(), 1000, 1).blocks(10)
        for _ in range(3):
            next(blocks)
        assert threading.active_count() == before + 1
        time.sleep(0.2)  # time for the helper to draw all it was asked for
        assert len(threads) == 4  # block 3's normals, and not block 4's: one block ahead
        blocks.close()
        assert threading.active_count() == before and not threads[0].is_alive()

    def test_consumer_error_joins_the_helper(self, monkeypatch):
        threads = _patch_draws(monkeypatch)
        with pytest.raises(ZeroDivisionError):
            with contextlib.closing(DrawnBatch(make_vacuum(), 1000, 1).blocks(10)) as blocks:
                for k, _ in enumerate(blocks):
                    if k == 4:
                        raise ZeroDivisionError
        assert not threads[0].is_alive()

    def test_helper_memory_error_keeps_its_message(self, monkeypatch):
        threads = _patch_draws(monkeypatch, fail_on=3)
        message = ("n = 20000: drawing 200 x 4 samples needs 12800 bytes, "
                   "more than can be allocated")
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_criteria(DrawnBatch(make_vacuum(), 20_000, 1))
        assert len(threads) == 4 and not threads[0].is_alive()

    def test_block_numpy_cannot_size_gets_the_sampler_message(self):
        # numpy raises ValueError, not MemoryError, for a block whose byte
        # count overflows, and allocates nothing
        n = 10 ** 20
        message = (f"n = {n}: drawing {n // BLOCKS} x 4 samples needs {64 * n // BLOCKS} "
                   "bytes, more than can be allocated")
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_criteria(DrawnBatch(make_vacuum(), n, 1))

    def test_no_thread_but_the_main_one_at_any_fork(self, tmp_path, monkeypatch):
        # the write's workers are forked before the first block is drawn,
        # and the parent draws each block in line: no helper thread
        _patch_workers(monkeypatch, 2)
        monkeypatch.setattr(sampling, "WRITE_CHUNK", 4000)
        threads = _patch_draws(monkeypatch)
        fork, alive = os.fork, []

        def watched_fork():
            alive.append(threading.enumerate())
            return fork()

        monkeypatch.setattr(os, "fork", watched_fork)
        write_batch(_long_drawn_batch(), tmp_path / "batch.csv")
        assert alive == [[threading.main_thread()]] * 2
        assert len(threads) == 20 and set(threads) == {threading.main_thread()}

    @pytest.mark.parametrize("n_blocks", [1, 7, 100, 610])
    @pytest.mark.parametrize("timing", ["slow-consumer", "slow-helper", "blocks-kept"])
    def test_rows_do_not_depend_on_timing(self, monkeypatch, timing, n_blocks):
        state = GaussianTwoModeState(mean=[1e5, -3.0, 0.25, 7.0],
                                     cov=make_two_mode_squeezed(0.8).cov)
        expected = draw_samples(state, 5003, 43).samples.tobytes()
        if timing == "slow-helper":
            _patch_draws(monkeypatch, delay=0.001)
        blocks = DrawnBatch(state, 5003, 43).blocks(n_blocks)
        if timing == "blocks-kept":  # each block its own array, not a reused buffer
            got = b"".join(block.tobytes() for block in list(blocks))
        else:
            parts = []
            for block in blocks:
                parts.append(block.tobytes())
                if timing == "slow-consumer":
                    time.sleep(0.001)
            got = b"".join(parts)
        assert got == expected
