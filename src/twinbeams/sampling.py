"""Seeded homodyne sampling and statistical estimation of the criteria.

Samples are i.i.d. draws from the 4-variate normal defined by a state's
mean and covariance (legitimate because Gaussian Wigner functions are
true probability densities).  Criteria are estimated by plugging sample
moments into the same closed forms used analytically; standard errors
come from a delete-one-block jackknife.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import math
import os
import pickle
import shutil
import stat
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import criteria
from .states import MAX_MOMENT, GaussianTwoModeState

CSV_HEADER = "sample_index,xplus_1,xminus_1,xplus_2,xminus_2"
BLOCKS = 100  # jackknife blocks of every estimate
MIN_SAMPLES = 2 * BLOCKS
WRITE_CHUNK = 16384  # rows formatted per task, at most
MIN_ROW_BYTES = len("0,0.0,0.0,0.0,0.0\n")  # the shortest CSV row
READ_RANGE = 1 << 22  # bytes of the data block parsed per task


class BatchFormatError(ValueError):
    """Malformed sample file; the message names the offending line."""


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
        makes and uses block k.  It is asked for them only once block
        k's normals are taken, so it is one block ahead, never two: the
        blocks hold one normals block more than drawing in line would,
        and the rows are those of one thread drawing in order.  The
        product and `+ mean` run on the caller's thread, under its numpy
        error state.  The helper is stopped and joined when the
        generator ends, raises or is closed."""
        # here: concurrent.futures imports logging, which slows `import twinbeams`
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.Generator(np.random.PCG64(self.seed))
        helper = ThreadPoolExecutor(max_workers=1)  # its thread starts at the first submit
        try:
            draws = ((rows, helper.submit(rng.standard_normal, (rows, 4)))
                     for rows in _block_sizes(self.n, n_blocks))
            ahead = next(draws, None)
            while ahead is not None:
                rows, drawing = ahead
                try:
                    normals = drawing.result()
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
        finally:
            helper.shutdown(cancel_futures=True)


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
    the normals of the next), not two batches."""
    drawn = DrawnBatch(state, n, seed, source_label)
    samples = np.empty((drawn.n, 4))
    for start, block in _numbered(drawn.blocks(-(-drawn.n // WRITE_CHUNK))):
        samples[start:start + len(block)] = block
    samples.setflags(write=False)
    return SampleBatch(samples=samples, seed=seed, source_label=source_label)


# ---------------------------------------------------------------------------
# persistence


def write_batch(batch: SampleBatch | DrawnBatch | FileBatch, path) -> None:
    """CSV with '#' metadata lines, a fixed header, and each value as repr
    writes it: the shortest decimal that reads back to the same double.
    Rows are formatted a block of at most WRITE_CHUNK at a time as the
    batch yields it, by one worker per CPU, and written in order, so no
    process holds the batch.
    A write that fails, or is interrupted, removes the file it began, so
    no truncated batch is left to be read; a device or a pipe is kept."""
    _check_room(batch.n, path)
    n_chunks = -(-batch.n // WRITE_CHUNK)
    header = f"# seed: {batch.seed}\n# source_label: {batch.source_label}\n{CSV_HEADER}\n"
    with contextlib.closing(batch.blocks(n_chunks)) as blocks, \
            contextlib.closing(_ordered_map(_format_rows, _numbered(blocks), n_chunks)) as chunks, \
            open(path, "wb") as handle:
        try:
            handle.write(header.encode("utf-8"))
            handle.writelines(chunks)
        except BaseException:
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                with contextlib.suppress(OSError):  # the first error is the one to report
                    os.remove(path)
            raise


def _check_room(n: int, path) -> None:
    """Refuse a batch whose CSV cannot fit where it would be written: a
    row takes at least MIN_ROW_BYTES (`0,0.0,0.0,0.0,0.0\n`).  A path
    whose directory cannot be asked is left for `open` to report, by the
    whole path."""
    if os.path.exists(path) and not os.path.isfile(path):
        return  # a device or a pipe
    try:
        free = shutil.disk_usage(os.path.dirname(os.path.abspath(path))).free
    except OSError:
        return
    if MIN_ROW_BYTES * n > free:
        raise ValueError(f"n = {n}: the CSV needs at least {MIN_ROW_BYTES * n} bytes "
                         f"({MIN_ROW_BYTES} a row), more than the disk has free")


def _numbered(blocks):
    """(index of the first row, block) for each block."""
    start = 0
    for block in blocks:
        yield start, block
        start += len(block)


def _format_rows(start: int, rows: np.ndarray) -> bytes:
    """The CSV lines of a block of rows, sample index first, counted from
    `start`, each value as repr writes it."""
    from . import _decimal  # here: a command that writes or reads no batch never loads it

    return _decimal.format_rows(start, rows)


class _Span(NamedTuple):
    """A byte range of the data block: [start, end), the number of its
    first line, and its data rows."""

    start: int
    end: int
    lineno: int
    rows: int


@dataclass(frozen=True)
class FileBatch:
    """The rows of a sample CSV, parsed as `blocks` is iterated: read_batch
    has checked the header and counted the rows, and each block is cut
    from the data block's byte ranges, parsed in order by one worker per
    CPU.  A data-line fault raises BatchFormatError when its rows are read,
    or in read_batch when the file holds fewer than MIN_SAMPLES rows."""

    path: str
    n: int
    seed: int
    source_label: str = ""
    spans: tuple = field(default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_batch(self.seed, self.n, self.source_label))

    @property
    def samples(self) -> np.ndarray:
        """The N x 4 array: the one block."""
        samples, = self.blocks(1)
        return samples

    def blocks(self, n_blocks: int):
        """The rows in the n_blocks consecutive blocks of np.array_split's
        sizes, each a fresh array the caller may change."""
        tasks = [(self.path, span) for span in self.spans]
        with contextlib.closing(_ordered_map(_parse_range, tasks, len(tasks))) as parts:
            rest = np.empty((0, 4))  # parsed rows not yet in a block
            for size in _block_sizes(self.n, n_blocks):
                block, filled = np.empty((size, 4)), 0
                while filled < size:
                    if not len(rest):
                        rest = None  # drop the spent range before the next arrives
                        rest = np.frombuffer(next(parts)).reshape(-1, 4)
                    take = min(size - filled, len(rest))
                    block[filled:filled + take] = rest[:take]
                    rest = rest[take:]
                    filled += take
                yield block
                del block  # so the caller can free it before the next is filled


def read_batch(path) -> FileBatch:
    """Open a sample CSV.  A line ends at LF and is blank when bytes.strip
    empties it; '#' lines may come before the header only, and of them
    only the bodies of `# seed:` and `# source_label:` are decoded.  The
    lines up to the header are read here, and the data rows counted in
    byte ranges by one worker per CPU; the rows themselves are parsed
    when the batch's blocks are read, or here when they are fewer than
    MIN_SAMPLES, so that a bad line outranks both row floors.  Counting
    and parsing read the file twice, so a pipe is refused."""
    seed, source_label = 0, ""
    with open(path, "rb") as handle:
        if not handle.seekable():
            raise BatchFormatError("the batch must be a file that can be read twice, "
                                   "and a pipe cannot be")
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if not line.startswith(b"#"):
                break
            key, _, value = line[1:].strip().partition(b":")
            try:
                if key == b"seed":
                    seed = _check_batch(int(value))
                elif key == b"source_label":
                    source_label = value.strip().decode("utf-8")
            except ValueError as exc:
                raise BatchFormatError(f"line {lineno}: bad {key.decode()} value") from exc
        else:
            raise BatchFormatError("missing header row")
        if line != CSV_HEADER.encode():
            raise BatchFormatError(f"line {lineno}: expected header {CSV_HEADER!r}, "
                                   f"got {line.decode('utf-8', 'replace')!r}")
        ranges = _ranges(handle, handle.tell())
    spans, lineno = [], lineno + 1
    with contextlib.closing(_ordered_map(_count_rows, [(path, *r) for r in ranges],
                                         len(ranges))) as counts:
        for (start, end), count in zip(ranges, counts):
            rows, lines = np.frombuffer(count, dtype=np.int64).tolist()
            spans.append(_Span(start, end, lineno, rows))
            lineno += lines
    n = sum(span.rows for span in spans)
    if n < MIN_SAMPLES:
        for span in spans:
            _parse_range(path, span)  # a bad line outranks both row floors
    if n < 2:
        raise BatchFormatError("batch holds fewer than 2 samples")
    return FileBatch(os.fspath(path), n, seed, source_label, tuple(spans))


def _ranges(handle, start: int) -> list:
    """Byte ranges (start, end) that cover the open file from `start`, each
    about READ_RANGE long and cut just after a newline, so no line is split."""
    ranges = []
    size = handle.seek(0, os.SEEK_END)
    while start < size:
        handle.seek(start + READ_RANGE)
        handle.readline()
        end = min(handle.tell(), size)
        ranges.append((start, end))
        start = end
    return ranges


def _count_rows(path, start: int, end: int) -> bytes:
    """The data rows (the lines that are not blank) and the line ends of
    one byte range, as two int64s.  Only a line that is empty or begins
    with a space or a control byte is stripped to tell."""
    padded = bytearray(end - start + 2)  # each line between two line ends
    padded[0] = padded[-1] = ord("\n")
    with open(path, "rb") as handle:
        handle.seek(start)
        handle.readinto(memoryview(padded)[1:-1])
    codes = np.frombuffer(padded, dtype=np.uint8)
    starts = codes[:-1] == ord("\n")  # a line begins after each
    lines = int(np.count_nonzero(starts))
    doubtful = np.flatnonzero(starts & (codes[1:] <= ord(" "))) + 1
    blank = sum(1 for first in doubtful.tolist()
                if not padded[first:padded.index(b"\n", first)].strip())
    return np.array([lines - blank, lines - 1], dtype=np.int64).tobytes()


def _parse_range(path, span: _Span) -> bytes:
    """Columns 1-4 of the rows of one byte range, as raw float64 bytes.
    Raises BatchFormatError naming the first bad line when a row does not
    parse, has other than 5 cells or a non-finite one.  A range of lines
    as `write_batch` writes them is read by the `_decimal` kernel; one it
    declines is parsed here line by line, with the same bits."""
    if not span.rows:
        return b""
    from . import _decimal  # here: a command that reads or writes no batch never loads it

    with open(path, "rb") as handle:
        handle.seek(span.start)
        rows = _decimal.read_rows(handle, span.end - span.start, span.rows)
        if rows is not None:
            return rows.tobytes()
        handle.seek(span.start)
        lines = handle.read(span.end - span.start).split(b"\n")
    try:
        data = np.loadtxt(filter(bytes.strip, lines), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape != (span.rows, 5) or not np.isfinite(data).all():
        raise BatchFormatError(_first_fault(lines, span.lineno))
    return data[:, 1:].tobytes()


def _first_fault(lines: list, lineno: int) -> str:
    """Locate what the ranged parse rejected: the first of the lines,
    numbered from `lineno`, that fails on its own (same parser)."""
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(b"#"):
            return f"line {lineno}: comment after header"
        cells = line.split(b",")
        if len(cells) != 5:
            return f"line {lineno}: expected 5 columns, got {len(cells)}"
        try:
            row = np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            return f"line {lineno}: non-numeric cell"
        if not np.isfinite(row).all():
            return f"line {lineno}: non-finite cell"
    return "data block does not parse"


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where that cannot be asked or no
    worker can be forked."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if can_fork else 1


def _ordered_map(func, tasks, count: int):
    """Yield func(*task), a bytes-like object, for each of the `count`
    tasks of the iterable, in task order.

    With W = min(CPUs, count) >= 2, W forked workers each serve one
    socket pair.  All W are forked before the first task is taken from
    the iterable, so no worker inherits a task or a thread that making
    the tasks starts (such as DrawnBatch's drawing helper).  The parent
    sends a worker its next task only after taking that worker's last
    result, so the worker is waiting for the task when it arrives and
    neither side can block the other; each holds one task and one result
    at a time, whatever the number of tasks.  Tasks are pickled; a result
    crosses as raw bytes into one buffer of its size.  Every worker is
    killed and joined when the generator ends, raises or is closed.
    With W = 1, func runs in this process.
    """
    workers = min(_cpu_count(), count)
    if workers > 1:
        import multiprocessing  # here: a top-level import slows `import twinbeams`
        import socket

        if multiprocessing.current_process().daemon:  # it may not have children
            workers = 1
    if workers < 2:
        for task in tasks:
            yield func(*task)
        return
    # fork: a worker starts at once and runs func as this process holds it
    context = multiprocessing.get_context("fork")
    procs, socks, busy = [], [], collections.deque()
    try:
        for _ in range(workers):
            ours, theirs = socket.socketpair()
            socks.append(ours)
            with theirs:
                procs.append(context.Process(target=_serve, args=(func, theirs), daemon=True))
                procs[-1].start()
        for k, task in enumerate(tasks):
            if k < workers:
                w = k
            else:
                w = busy.popleft()
                yield _take(socks[w], w)
            _send(socks[w], pickle.dumps(task))
            busy.append(w)
        while busy:
            w = busy.popleft()
            yield _take(socks[w], w)
    finally:
        for proc in procs:
            proc.kill()
            proc.join()
        for sock in socks:
            sock.close()


_FRAME = struct.Struct("<q?")  # payload bytes, and whether it is a pickled exception


def _send(sock, payload, failed: bool = False) -> None:
    sock.sendall(_FRAME.pack(len(payload), failed))
    sock.sendall(payload)


def _receive(sock) -> tuple:
    """(payload, failed) of the next frame; EOFError when the peer has
    closed its end instead."""
    size, failed = _FRAME.unpack(_receive_exactly(sock, _FRAME.size))
    return _receive_exactly(sock, size), failed


def _receive_exactly(sock, size: int) -> bytearray:
    buffer = bytearray(size)
    view, got = memoryview(buffer), 0
    while got < size:
        read = sock.recv_into(view[got:])
        if not read:
            raise EOFError
        got += read
    return buffer


def _take(sock, w: int) -> bytearray:
    """Worker w's next result; raises the exception it sent instead, or
    RuntimeError when it ended without sending."""
    try:
        result, failed = _receive(sock)
    except EOFError:
        raise RuntimeError(f"worker {w} ended before sending its result") from None
    if failed:
        raise pickle.loads(result)
    return result


# glibc's mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# the largest mmap threshold glibc takes (its DEFAULT_MMAP_THRESHOLD_MAX):
# 32 MB on 64-bit
_MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)


def _keep_freed_heap() -> bool:
    """Have glibc keep the memory this process frees, for its next
    allocations: no block under _MMAP_THRESHOLD_MAX is mapped on its own,
    and the heap is trimmed only above that much free at its top.  A
    worker's kernel temporaries then reuse the same pages task after task
    instead of faulting fresh ones in.  True when both thresholds are set;
    False where the C library has no mallopt or refuses a threshold."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(_M_TRIM_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1,
                mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1])


def _serve(func, sock) -> None:
    """Body of one worker: for each task received, send func(*task) back;
    on an exception send it pickled and stop."""
    import tracemalloc

    tracemalloc.stop()  # a parent that traces its allocations has no use for ours
    _keep_freed_heap()  # where it cannot, the worker runs as it would without
    while True:
        try:
            task, _ = _receive(sock)
        except EOFError:
            return
        try:
            result = func(*pickle.loads(task))
        except Exception as exc:
            _send(sock, pickle.dumps(exc), failed=True)
            return
        _send(sock, result)


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
        raise EstimationError("batch moments overflow double precision; a state's moments "
                              f"are at most {MAX_MOMENT:g} in magnitude") from None
    return EstimatedCriteria(estimates=estimates, n_samples=batch.n, seed=batch.seed,
                             source_label=batch.source_label)
