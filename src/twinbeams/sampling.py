"""Seeded homodyne sampling and statistical estimation of the criteria.

Samples are i.i.d. draws from the 4-variate normal defined by a state's
mean and covariance (legitimate because Gaussian Wigner functions are
true probability densities).  Criteria are estimated by plugging sample
moments into the same closed forms used analytically; standard errors
come from a delete-one-block jackknife.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import criteria
from .states import MAX_MOMENT, GaussianTwoModeState, PhysicalityError, _check

CSV_HEADER = "sample_index,xplus_1,xminus_1,xplus_2,xminus_2"
BLOCKS = 100  # jackknife blocks of every estimate
MIN_SAMPLES = 2 * BLOCKS
WRITE_CHUNK = 65536  # rows formatted per task
READ_RANGE = 1 << 22  # bytes of the data block parsed per task


class BatchFormatError(ValueError):
    """Malformed sample file; the message names the offending line."""


class EstimationError(ValueError):
    """Degenerate batch (e.g. a zero-variance column, or moments that
    overflow double precision)."""


def _check_seed(seed) -> None:
    """The seed rule of both batch types."""
    _check(seed >= 0, "seed must be a non-negative integer, got {}", seed)


class Estimate(NamedTuple):
    value: float
    stderr: float


@dataclass(frozen=True)
class SampleBatch:
    """N x 4 homodyne record in (X+_1, X-_1, X+_2, X-_2) ordering.

    The batch keeps a read-only array that owns its data as it is given
    (nobody can change it under the batch); any other array is copied."""

    samples: np.ndarray
    seed: int
    source_label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 4:
            raise ValueError(f"samples must be N x 4, got shape {samples.shape}")
        if samples.shape[0] < 2:
            raise ValueError("need at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        _check_seed(self.seed)
        if samples.flags.writeable or not samples.flags.owndata:
            samples = samples.copy()
            samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def blocks(self, n_blocks: int) -> list:
        """The rows cut into n_blocks near-equal consecutive blocks."""
        return np.array_split(self.samples, n_blocks)


@dataclass(frozen=True)
class DrawnBatch:
    """n i.i.d. quadrature samples of the state, drawn from the numpy
    PCG64 stream seeded with `seed` one block at a time as `blocks` is
    iterated, so memory is O(n / n_blocks) once each block is dropped.
    Each block continues the stream: identical (state, n, seed) give the
    same rows bit for bit whatever the block count."""

    state: GaussianTwoModeState
    n: int
    seed: int
    source_label: str = ""
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cov = self.state.cov
        if cov.ndim != 2:
            raise ValueError(f"draw_samples takes one state, got a stack of shape {cov.shape[:-2]}")
        if self.n < 2:
            raise ValueError("need at least 2 samples")
        _check_seed(self.seed)
        try:
            object.__setattr__(self, "chol", np.linalg.cholesky(cov))
        except np.linalg.LinAlgError as exc:
            raise PhysicalityError("covariance matrix is not positive definite") from exc

    def blocks(self, n_blocks: int):
        """The rows, normals @ chol.T + mean, in the n_blocks consecutive
        blocks of np.array_split's sizes."""
        rng = np.random.Generator(np.random.PCG64(self.seed))
        size, extra = divmod(self.n, n_blocks)
        for k in range(n_blocks):
            rows = size + (k < extra)
            try:
                block = rng.standard_normal((rows, 4)) @ self.chol.T
            except MemoryError:
                raise ValueError(f"n = {self.n}: drawing {rows} x 4 samples needs "
                                 f"{2 * rows * 4 * 8} bytes, more than can be allocated") from None
            block += self.state.mean  # the bits of `+ mean`, without a third rows x 4 array
            yield block


@dataclass(frozen=True)
class EstimatedCriteria:
    """Plug-in criterion estimates with jackknife standard errors."""

    estimates: dict
    n_samples: int
    seed: int
    source_label: str

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_blocks": BLOCKS,
            "seed": self.seed,
            "source_label": self.source_label,
            "estimates": {
                key: {"value": est.value, "stderr": est.stderr}
                for key, est in self.estimates.items()
            },
        }


def draw_samples(state: GaussianTwoModeState, n: int, seed: int,
                 source_label: str = "") -> SampleBatch:
    """Draw n i.i.d. quadrature samples from the state: the one block of
    DrawnBatch(state, n, seed), so identical (state, n, seed) reproduce
    the batch bit for bit."""
    samples, = DrawnBatch(state, n, seed).blocks(1)
    samples.setflags(write=False)
    return SampleBatch(samples=samples, seed=seed, source_label=source_label)


# ---------------------------------------------------------------------------
# persistence


def write_batch(batch: SampleBatch, path) -> None:
    """CSV with '#' metadata lines, a fixed header, and full-precision
    decimal values (round-trippable IEEE doubles).  Rows are formatted
    WRITE_CHUNK at a time, by one worker per CPU, and written in order."""
    header = f"# seed: {batch.seed}\n# source_label: {batch.source_label}\n{CSV_HEADER}\n"
    with contextlib.closing(_ordered_map(_format_rows, batch.samples,
                                         range(0, batch.n, WRITE_CHUNK))) as chunks, \
            open(path, "wb") as handle:
        handle.write(header.encode("utf-8"))
        handle.writelines(chunks)


def _format_rows(samples: np.ndarray, start: int) -> bytes:
    """CSV rows start .. start + WRITE_CHUNK - 1, sample index first."""
    rows = samples[start:start + WRITE_CHUNK].tolist()
    return "".join([f"{i},{a!r},{b!r},{c!r},{d!r}\n"
                    for i, (a, b, c, d) in enumerate(rows, start)]).encode("utf-8")


def read_batch(path) -> SampleBatch:
    """Parse a sample CSV.  Blank and whitespace-only lines are skipped;
    '#' lines may come before the header only.  The lines up to the
    header are read here; the data block is parsed in byte ranges, by
    one worker per CPU.  When a range fails, a line-by-line scan names
    the first bad line."""
    seed = 0
    source_label = ""
    offset = 0  # bytes up to the end of the last line read
    # newline="" splits lines as text mode does but keeps their ends, so
    # the byte offset of the data block can be counted
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for lineno, raw in enumerate(handle, start=1):
            offset += len(raw.encode("utf-8"))
            line = raw.strip()
            if not line:
                continue
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body.startswith("seed:"):
                try:
                    seed = int(body.split(":", 1)[1].strip())
                    _check_seed(seed)
                except ValueError as exc:
                    raise BatchFormatError(f"line {lineno}: bad seed value") from exc
            elif body.startswith("source_label:"):
                source_label = body.split(":", 1)[1].strip()
        else:
            raise BatchFormatError("missing header row")
    if line != CSV_HEADER:
        raise BatchFormatError(
            f"line {lineno}: expected header {CSV_HEADER!r}, got {line!r}")
    samples = _parse_data(path, offset)
    if samples is None or len(samples) < 2:
        raise BatchFormatError(_first_fault(path, lineno))
    samples.setflags(write=False)
    return SampleBatch(samples=samples, seed=seed, source_label=source_label)


def _parse_data(path, offset: int):
    """Columns 1-4 of the data block that starts at byte `offset`, as a
    fresh N x 4 array; None when a range does not parse or there is none."""
    parts = []
    with contextlib.closing(_ordered_map(_parse_range, path, _ranges(path, offset))) as results:
        for part in results:
            if part is None:
                return None
            parts.append(part)
    return np.concatenate(parts) if parts else None


def _ranges(path, start: int) -> list:
    """Byte ranges (start, end) that cover the file from `start`, each
    about READ_RANGE long and cut just after a newline, so no line is split."""
    ranges = []
    with open(path, "rb") as handle:
        size = handle.seek(0, os.SEEK_END)
        while start < size:
            handle.seek(start + READ_RANGE)
            handle.readline()
            end = min(handle.tell(), size)
            ranges.append((start, end))
            start = end
    return ranges


def _parse_range(path, span: tuple):
    """Columns 1-4 of the rows in one byte range, or None when a row
    does not parse or has other than 5 cells."""
    start, end = span
    with open(path, "rb") as handle:
        handle.seek(start)
        text = io.TextIOWrapper(io.BytesIO(handle.read(end - start)), encoding="utf-8")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a range of blank lines
            data = np.loadtxt(filter(str.strip, text), delimiter=",",
                              comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape[1] != 5:
        return None if len(data) else np.empty((0, 4))
    return data[:, 1:].copy()  # frees the index column


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where that cannot be asked or no
    worker can be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _ordered_map(func, shared, tasks):
    """Yield func(shared, task) for each task, in task order.

    With W = min(CPUs, len(tasks)) >= 2, W forked workers inherit
    `shared`, which is never pickled.  Worker w runs tasks[w::W] and
    sends each result down its own pipe; the parent takes them
    round-robin.  A worker blocks until the parent has taken its last
    result, so the parent and each worker hold one result at a time,
    whatever the number of tasks (a pool's result queue would let
    finished results pile up in the parent).  Every worker is killed and
    joined when the generator ends, raises or is closed.  With W = 1,
    func runs in this process.
    """
    workers = min(_cpu_count(), len(tasks))
    if workers > 1:
        import multiprocessing  # here: a top-level import slows `import twinbeams`

        if multiprocessing.current_process().daemon:  # it may not have children
            workers = 1
    if workers < 2:
        for task in tasks:
            yield func(shared, task)
        return
    # fork, not spawn: the workers inherit `shared` instead of a pickled copy
    context = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for w in range(workers):
            receiver, sender = context.Pipe(duplex=False)
            pipes.append(receiver)
            procs.append(context.Process(target=_serve, daemon=True,
                                         args=(func, shared, tasks[w::workers], sender)))
            procs[-1].start()
            sender.close()
        for k in range(len(tasks)):
            try:
                ok, result = pipes[k % workers].recv()
            except EOFError:
                raise RuntimeError(f"worker {k % workers} ended before sending its result") from None
            if not ok:
                raise result
            yield result
    finally:
        for proc in procs:
            proc.kill()
            proc.join()
        for pipe in pipes:
            pipe.close()


def _serve(func, shared, tasks, pipe) -> None:
    """Body of one worker: send (True, result) per task, or (False, the
    exception) and stop."""
    try:
        for task in tasks:
            pipe.send((True, func(shared, task)))
    except Exception as exc:
        pipe.send((False, exc))


def _first_fault(path, header_lineno: int) -> str:
    """Locate what the ranged parse rejected: the first data line
    that fails on its own (same parser), else a short block."""
    rows = 0
    with open(path, "r", encoding="utf-8") as handle:
        lines = itertools.islice(handle, header_lineno, None)
        for lineno, raw in enumerate(lines, start=header_lineno + 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                return f"line {lineno}: comment after header"
            cells = line.split(",")
            if len(cells) != 5:
                return f"line {lineno}: expected 5 columns, got {len(cells)}"
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError:
                return f"line {lineno}: non-numeric cell"
            rows += 1
    return "batch holds fewer than 2 samples" if rows < 2 else "data block does not parse"


# ---------------------------------------------------------------------------
# estimation


def _covariances(sums: np.ndarray, grams: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Plug-in (population) covariances of a stack of batches, each
    given by its row count and the column sums and Gram matrix of its
    rows taken about one common point."""
    means = sums / counts[:, None]
    covs = grams / counts[:, None, None] - means[:, :, None] * means[:, None, :]
    if np.any(np.diagonal(covs, axis1=1, axis2=2) <= 0.0):
        raise EstimationError("zero-variance column in batch")
    return covs


@np.errstate(over="raise")
def _jackknife(batch, theta_plus: float, theta_minus: float) -> dict:
    """The Estimate of every number of the criteria table and of the
    moments, keyed by name; an overflow raises FloatingPointError."""
    # Each block is centred on the first block's mean (within about
    # sigma / sqrt(n / BLOCKS) of the batch mean) before its sum and Gram
    # matrix are taken, so the raw-moment form in _covariances does not
    # cancel on displaced beams.
    counts, sums, grams = np.empty(BLOCKS), np.empty((BLOCKS, 4)), np.empty((BLOCKS, 4, 4))
    for k, block in enumerate(batch.blocks(BLOCKS)):
        if k == 0:
            centre = block.mean(axis=0)
        centred = block - centre
        counts[k], sums[k], grams[k] = len(block), centred.sum(axis=0), centred.T @ centred

    def with_total(part):
        """Entry 0 the full batch, entry k the batch without block k."""
        total = part.sum(axis=0)
        return np.concatenate([total[None], total - part])

    covs = _covariances(with_total(sums), with_total(grams), with_total(counts))
    dm = criteria.state_moments(covs, theta_plus, theta_minus)
    # every number of the criteria table; its verdicts and flag are bools
    values = {key: column for key, column in criteria.report_scalars(dm).items()
              if column.dtype != bool}
    values.update(fplus_1=dm.plus.f1, fplus_2=dm.plus.f2, cplus=dm.plus.c12,
                  fminus_1=dm.minus.f1, fminus_2=dm.minus.f2, cminus=dm.minus.c12)

    # entry 0 of each column is the full batch, the rest its replicates
    factor = (BLOCKS - 1) / BLOCKS
    estimates = {}
    for key, column in values.items():
        reps = column[1:]
        stderr = math.sqrt(factor * float(np.sum((reps - reps.mean()) ** 2)))
        estimates[key] = Estimate(value=float(column[0]), stderr=stderr)
    return estimates


def estimate_criteria(batch: SampleBatch | DrawnBatch,
                      theta_plus: float = criteria.THETA_PLUS,
                      theta_minus: float = criteria.THETA_MINUS) -> EstimatedCriteria:
    """Point estimates from the full batch at the measurement angles of
    `criteria.classify`; standard errors from a delete-one-block jackknife
    over BLOCKS near-equal blocks, all scored as one covariance stack.

    `batch` is a SampleBatch or a DrawnBatch: only its n, seed,
    source_label and blocks are read, and one block is scored at a time.
    Moments that overflow double precision raise EstimationError."""
    if batch.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for {BLOCKS} blocks")
    try:
        estimates = _jackknife(batch, theta_plus, theta_minus)
    except FloatingPointError:
        raise EstimationError("batch moments overflow double precision; a state's moments "
                              f"are at most {MAX_MOMENT:g} in magnitude") from None
    return EstimatedCriteria(estimates=estimates, n_samples=batch.n, seed=batch.seed,
                             source_label=batch.source_label)
