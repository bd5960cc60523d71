"""Seeded homodyne sampling and statistical estimation of the criteria.

Samples are i.i.d. draws from the 4-variate normal defined by a state's
mean and covariance (legitimate because Gaussian Wigner functions are
true probability densities).  Criteria are estimated by plugging sample
moments into the same closed forms used analytically; standard errors
come from a delete-one-block jackknife.

This module holds the batch protocol (n, seed, source_label, blocks),
the batches in memory (`SampleBatch`) and drawn as read (`DrawnBatch`),
`draw_samples` and the jackknife (`estimate_criteria`).  The sample CSV
lives in `batchfile`: `write_batch` and `read_batch` are its entry
points here and load it on their first call, so a sampled `run` never
compiles it.
"""

from __future__ import annotations

import contextlib
import math
import queue
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import criteria
from .states import MAX_MOMENT, GaussianTwoModeState

if TYPE_CHECKING:
    from .batchfile import FileBatch

BLOCKS = 100  # jackknife blocks of every estimate
MIN_SAMPLES = 2 * BLOCKS
WRITE_CHUNK = 16384  # rows drawn by draw_samples, or formatted by a CSV task, per block at most
# The bound on |entry| of a batch's covariance: a state's, with room for
# sampling noise (the plug-in variance of MIN_SAMPLES rows exceeds twice the
# state's with probability ~1e-15)
BATCH_MOMENT_BOUND = 2 * MAX_MOMENT
_OVERFLOW = ("batch moments overflow double precision; a state's moments are at most "
             f"{MAX_MOMENT:g} in magnitude")


class EstimationError(ValueError):
    """Degenerate batch (e.g. a zero-variance column, or moments that
    overflow double precision)."""


def _check_batch(seed, n=2, source_label="") -> int:
    """The rule of every batch type: n an integer >= 2, seed a non-negative
    integer, and a source_label that a batch file reads back unchanged (a
    str that UTF-8 encodes, with no line feed and no ASCII whitespace at
    either end); returns the seed as a Python int, the value each batch
    keeps."""
    whole = [isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (n, seed)]
    if not whole[0]:
        raise ValueError(f"n must be an integer, got {n}")
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not (whole[1] and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if not (isinstance(source_label, str) and "\n" not in source_label
            and source_label == source_label.strip(" \t\n\r\v\f")):
        raise ValueError("source_label must be a str of one line with no whitespace at "
                         f"either end, got {source_label!r}")
    try:
        source_label.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        raise ValueError(f"source_label must be UTF-8 text, got {source_label!r}") from None
    return int(seed)


def _block_sizes(n: int, n_blocks: int):
    """The row counts of np.array_split's n_blocks near-equal blocks of n
    rows, one at a time: the first n % n_blocks blocks hold one row more."""
    rows, longer = divmod(n, n_blocks)
    for k in range(n_blocks):
        yield rows + (k < longer)


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
        object.__setattr__(self, "seed", _check_batch(self.seed, samples.shape[0],
                                                         self.source_label))
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if samples.flags.writeable or not samples.flags.owndata:
            samples = samples.copy()
            samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def blocks(self, n_blocks: int):
        """The rows cut into n_blocks near-equal consecutive blocks, each
        a copy the caller may change."""
        for part in np.array_split(self.samples, n_blocks):
            yield part.copy()


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
        object.__setattr__(self, "seed", _check_batch(self.seed, self.n, self.source_label))
        try:
            object.__setattr__(self, "chol", np.linalg.cholesky(cov))
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance too near singular for the sampler's "
                             "double-precision Cholesky factor") from exc

    def blocks(self, n_blocks: int):
        """The rows, normals @ chol.T + mean, in the n_blocks consecutive
        blocks of np.array_split's sizes, each a fresh array the caller
        may change.

        One helper thread, started at the first block, owns the seeded
        generator and draws the normals of block k + 1 while the caller
        makes and uses block k, as the jackknife does.  It is asked for
        them only once block k's normals are taken, so it is one block
        ahead, never two: the blocks hold one normals block more than
        drawing in line would, and the rows are those of one thread
        drawing in order.  The thread is a bare `threading.Thread` that
        takes each draw from one queue and puts (failed, value) on
        another; a draw's exception is raised on the caller's thread when
        the normals are taken.  The product and `+ mean` run on the
        caller's thread, under its numpy error state.  The helper is told
        to stop, and joined, when the generator ends, raises or is
        closed."""
        asked, drawn = queue.SimpleQueue(), queue.SimpleQueue()

        def serve():  # each draw asked for, in order, until None
            for draw, shape in iter(asked.get, None):
                try:
                    drawn.put((False, draw(shape)))
                except BaseException as exc:  # raised again by take, on the caller's thread
                    drawn.put((True, exc))

        def take():
            failed, value = drawn.get()
            if failed:
                raise value
            return value

        def submit(draw, shape):
            asked.put((draw, shape))
            return take

        # a daemon: a generator dropped unclosed does not hold up interpreter exit
        helper = threading.Thread(target=serve, daemon=True)
        helper.start()
        try:
            yield from self._draw(n_blocks, submit)
        finally:
            asked.put(None)
            helper.join()

    def _draw(self, n_blocks: int, submit):
        """The blocks of `blocks`, drawn by the caller's choice of thread:
        submit(draw, shape) returns a function that gives draw(shape), and
        it is called for block k + 1's normals only once block k's are
        taken.  `functools.partial` draws each in line, when it is taken."""
        rng = np.random.Generator(np.random.PCG64(self.seed))
        draws = ((rows, submit(rng.standard_normal, (rows, 4)))
                 for rows in _block_sizes(self.n, n_blocks))
        ahead = next(draws, None)
        while ahead is not None:
            rows, drawing = ahead
            try:
                normals = drawing()
                ahead = next(draws, None)  # asked for only now: one block ahead, never two
                block = normals @ self.chol.T
            except MemoryError:
                raise ValueError(f"n = {self.n}: drawing {rows} x 4 samples needs "
                                 f"{2 * rows * 4 * 8} bytes, more than can be "
                                 "allocated") from None
            del drawing, normals  # block k's normals
            block += self.state.mean  # the bits of `+ mean`, without a third rows x 4 array
            yield block
            del block  # so the caller can free it before the next is made


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
            "estimates": {key: est._asdict() for key, est in self.estimates.items()},
        }


def draw_samples(state: GaussianTwoModeState, n: int, seed: int,
                 source_label: str = "") -> SampleBatch:
    """Draw n i.i.d. quadrature samples from the state: the rows of
    DrawnBatch(state, n, seed), so identical (state, n, seed) reproduce
    the batch bit for bit.  They are drawn into the one array in the
    blocks of at most WRITE_CHUNK rows that `write_batch` formats, so
    drawing holds the batch and two blocks (the one being copied in and
    the normals of the next), not two batches.

    The array is allocated once the first block is drawn: that block's
    memory, freed once copied, then lies below the batch in the C heap
    and takes the small arrays a caller makes while it holds the batch
    (the jackknife's), which numpy's small-buffer cache keeps.  Just
    above the batch, they stopped the freed batch from merging with the
    free memory above it, and a process that drew, estimated and read
    16 MiB buffers in turn grew by 11 MB."""
    drawn = DrawnBatch(state, n, seed, source_label)
    samples = None
    for start, block in _numbered(drawn.blocks(-(-drawn.n // WRITE_CHUNK))):
        if samples is None:
            samples = np.empty((drawn.n, 4))
        samples[start:start + len(block)] = block
    samples.setflags(write=False)
    return SampleBatch(samples=samples, seed=seed, source_label=source_label)


# ---------------------------------------------------------------------------
# persistence


def write_batch(batch: SampleBatch | DrawnBatch | FileBatch, path) -> None:
    """Write the batch as a sample CSV (`batchfile.write`)."""
    from . import batchfile  # here: a command that writes or reads no batch never loads it

    batchfile.write(batch, path)


def read_batch(path) -> FileBatch:
    """Open a sample CSV (`batchfile.read`); its rows are parsed as the
    batch's blocks are read."""
    from . import batchfile

    return batchfile.read(path)


def _numbered(blocks):
    """(index of the first row, block) for each block."""
    start = 0
    for block in blocks:
        yield start, block
        start += len(block)


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
    moments, keyed by name; an overflow raises FloatingPointError, and a
    full-batch covariance beyond BATCH_MOMENT_BOUND EstimationError."""
    # Each block is centred on the first block's mean (within about
    # sigma / sqrt(n / BLOCKS) of the batch mean) before its sum and Gram
    # matrix are taken, so the raw-moment form in _covariances does not
    # cancel on displaced beams.
    counts, sums, grams = np.empty(BLOCKS), np.empty((BLOCKS, 4)), np.empty((BLOCKS, 4, 4))
    with contextlib.closing(batch.blocks(BLOCKS)) as blocks:
        for k in range(BLOCKS):
            block = next(blocks)  # not enumerate(), whose reused pair keeps the last block
            if k == 0:
                centre = block.mean(axis=0)
            block -= centre  # the block is ours: centred in place
            counts[k], sums[k], grams[k] = len(block), block.sum(axis=0), block.T @ block
            del block  # freed before the next block is made

    def with_total(part):
        """Entry 0 the full batch, entry k the batch without block k."""
        total = part.sum(axis=0)
        return np.concatenate([total[None], total - part])

    covs = _covariances(with_total(sums), with_total(grams), with_total(counts))
    # A column whose mean is beyond the bound is constant (refused above)
    # or has steps of at least an ulp of the bound, so a variance beyond it
    if not np.abs(covs[0]).max() <= BATCH_MOMENT_BOUND:
        raise EstimationError(_OVERFLOW)
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


def estimate_criteria(batch: SampleBatch | DrawnBatch | FileBatch,
                      theta_plus: float = criteria.THETA_PLUS,
                      theta_minus: float = criteria.THETA_MINUS) -> EstimatedCriteria:
    """Point estimates from the full batch at the measurement angles of
    `criteria.classify`; standard errors from a delete-one-block jackknife
    over BLOCKS near-equal blocks, all scored as one covariance stack.

    `batch` is a SampleBatch, a DrawnBatch or a FileBatch: only its n,
    seed, source_label and blocks are read, and one block is scored at a
    time.  Moments that overflow double precision raise EstimationError."""
    theta_plus, theta_minus = map(criteria.measurement_angle, (theta_plus, theta_minus))
    if batch.n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for {BLOCKS} blocks")
    try:
        estimates = _jackknife(batch, theta_plus, theta_minus)
    except FloatingPointError:
        raise EstimationError(_OVERFLOW) from None
    return EstimatedCriteria(estimates=estimates, n_samples=batch.n, seed=batch.seed,
                             source_label=batch.source_label)
