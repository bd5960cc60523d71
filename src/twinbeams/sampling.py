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
import functools
import math
import os
import pickle
import shutil
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
# The bound on |entry| of a batch's covariance: a state's, with room for
# sampling noise (the plug-in variance of MIN_SAMPLES rows exceeds twice the
# state's with probability ~1e-15)
BATCH_MOMENT_BOUND = 2 * MAX_MOMENT
_OVERFLOW = ("batch moments overflow double precision; a state's moments are at most "
             f"{MAX_MOMENT:g} in magnitude")


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
        makes and uses block k, as the jackknife does.  It is asked for
        them only once block k's normals are taken, so it is one block
        ahead, never two: the blocks hold one normals block more than
        drawing in line would, and the rows are those of one thread
        drawing in order.  The product and `+ mean` run on the caller's
        thread, under its numpy error state.  The helper is stopped and
        joined when the generator ends, raises or is closed."""
        # here: concurrent.futures imports logging, which slows `import twinbeams`
        from concurrent.futures import ThreadPoolExecutor

        helper = ThreadPoolExecutor(max_workers=1)  # its thread starts at the first submit
        try:
            yield from self._draw(n_blocks, lambda *call: helper.submit(*call).result)
        finally:
            helper.shutdown(cancel_futures=True)

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
    The parent writes the header, then takes the batch a block of at most
    WRITE_CHUNK rows at a time (a DrawnBatch drawn in line, since the
    parent only waits for its workers meanwhile) and hands each block to
    one worker per CPU.  A worker formats its block and, at its turn,
    once the chunk before is written, writes its chunk itself to the
    file it shares with the parent; so no process holds the batch and no
    formatted byte crosses to the parent.
    A write that fails, or is interrupted, removes the file it began, so
    no truncated batch is left to be read; a device or a pipe is kept.
    A worker's error, in formatting or in writing, is raised here, and
    an OSError of a write names the file."""
    from . import _decimal  # here: a command that writes or reads no batch never loads it
    from .scenario import _output

    _check_room(batch.n, path)
    n_chunks = -(-batch.n // WRITE_CHUNK)
    header = f"# seed: {batch.seed}\n# source_label: {batch.source_label}\n{CSV_HEADER}\n"
    blocks = (batch._draw(n_chunks, functools.partial) if isinstance(batch, DrawnBatch)
              else batch.blocks(n_chunks))
    with _output(path) as write:
        write(header.encode("utf-8"))
        with contextlib.closing(blocks), \
                contextlib.closing(_ordered_map(_decimal.format_rows, _numbered(blocks),
                                                n_chunks, emit=write)) as written:
            for _ in written:  # a worker's error is raised here
                pass  # and every worker is gone before a file it wrote to is removed


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


@dataclass(frozen=True)
class FileBatch:
    """The rows of a sample CSV, parsed as `blocks` is iterated: read_batch
    has checked the header and taken n from the last row's index, and each
    block is cut from the data block's byte ranges `spans`, parsed in order
    by one worker per CPU.  A data-line fault, or rows that do not number
    n, raise BatchFormatError when the rows are read, or in read_batch when
    the file holds fewer than MIN_SAMPLES rows.  `lineno` is the number of
    the data block's first line."""

    path: str
    n: int
    seed: int
    source_label: str = ""
    spans: tuple = field(default=(), repr=False)
    lineno: int = field(default=1, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_batch(self.seed, self.n, self.source_label))

    @property
    def samples(self) -> np.ndarray:
        """The N x 4 array: the one block."""
        samples, = self.blocks(1)
        return samples

    def blocks(self, n_blocks: int):
        """The rows in the n_blocks consecutive blocks of np.array_split's
        sizes, each a fresh array the caller may change.  The parsed rows
        must number n exactly, which is checked before the last block is
        yielded.  A range that does not parse, or a count that is not n,
        is found again by `_diagnose`, which numbers the file's lines."""
        try:
            yield from self._blocks(n_blocks)
            return
        except BatchFormatError as exc:  # a line numbered within its range, or a miscount
            fault = exc
        _diagnose(self.path, self.spans, self.lineno, str(self.n - 1).encode())
        raise fault  # the file changed since read_batch

    def _blocks(self, n_blocks: int):
        tasks = [(self.path, *span) for span in self.spans]
        with contextlib.closing(_ordered_map(_parse_range, tasks, len(tasks))) as parts:
            rest = np.empty((0, 4))  # parsed rows not yet in a block
            for k, size in enumerate(_block_sizes(self.n, n_blocks)):
                block, filled = np.empty((size, 4)), 0
                while filled < size:
                    if not len(rest):
                        rest = None  # drop the spent range before the next arrives
                        rest = next(parts, None)
                        if rest is None:
                            raise BatchFormatError(f"the rows number fewer than {self.n}")
                    take = min(size - filled, len(rest))
                    block[filled:filled + take] = rest[:take]
                    rest = rest[take:]
                    filled += take
                if k == n_blocks - 1 and (len(rest) or any(len(part) for part in parts)):
                    raise BatchFormatError(f"the rows number more than {self.n}")
                yield block
                del block  # so the caller can free it before the next is filled


def read_batch(path) -> FileBatch:
    """Open a sample CSV.  A line ends at LF and is blank when bytes.strip
    empties it; '#' lines may come before the header only, and of them
    only the bodies of `# seed:` and `# source_label:` are decoded.  The
    lines up to the header are read here, and the last line that is not
    blank: rows are numbered from 0, so n is its sample_index + 1.  The
    rows themselves are parsed when the batch's blocks are read, which
    checks that they number n.  A file whose last index is not a whole
    number the data block has room for, or of fewer than MIN_SAMPLES
    rows, is parsed whole here by `_diagnose`, so that a bad line
    outranks both row floors.  The end is read before the rows, so a
    pipe is refused."""
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
        start, end = handle.tell(), handle.seek(0, os.SEEK_END)
        spans = _ranges(handle, start, end)
        index = _last_line(handle, start, end).partition(b",")[0].strip()
    n = _whole(index) + 1
    # a row takes at least 10 bytes, `0,1,2,3,4\n`, the last 9
    if not 0 < n <= (end - start + 1) // 10 or n < MIN_SAMPLES:
        n = _diagnose(path, spans, lineno + 1, index)
    if n < 2:
        raise BatchFormatError("batch holds fewer than 2 samples")
    return FileBatch(os.fspath(path), n, seed, source_label, tuple(spans), lineno + 1)


def _whole(index: bytes) -> int:
    """The sample_index that index spells in at most 19 ASCII digits, or -1."""
    return int(index) if index.isdigit() and len(index) <= 19 else -1


def _ranges(handle, start: int, size: int) -> list:
    """Byte ranges (start, end) that cover the open file of `size` bytes
    from `start`, each about READ_RANGE long and cut just after a newline,
    so no line is split."""
    ranges = []
    while start < size:
        handle.seek(start + READ_RANGE)
        handle.readline()
        end = min(handle.tell(), size)
        ranges.append((start, end))
        start = end
    return ranges


def _last_line(handle, start: int, end: int) -> bytes:
    """The last line of bytes [start, end) of the open file that is not
    blank, stripped; b"" when there is none.  The bytes are read from the
    end back, in steps that double, until that line's start is read."""
    at, step = end, 4096
    while at > start:
        at = max(start, at - step)
        handle.seek(at)
        body = handle.read(end - at).rstrip()  # without the blank lines after it
        cut = body.rfind(b"\n") + 1
        if body and (cut or at == start):
            return body[cut:].strip()
        step *= 2
    return b""


def _parse_range(path, start: int, end: int, lineno: int = 1) -> np.ndarray:
    """Columns 1-4 of the rows of the byte range [start, end), as an N x 4
    array.  Raises BatchFormatError naming the first bad line, numbered
    from `lineno`, when a row does not parse, has other than 5 cells or a
    non-finite one.  A range of lines as `write_batch` writes them is read
    by the `_decimal` kernel; one it declines is parsed here line by line,
    with the same bits."""
    from . import _decimal  # here: a command that reads or writes no batch never loads it

    with open(path, "rb") as handle:
        handle.seek(start)
        rows = _decimal.read_rows(handle, end - start)
        if rows is not None:
            return rows
        handle.seek(start)
        lines = handle.read(end - start).split(b"\n")
    filled = [line for line in lines if line.strip()]
    if not filled:
        return np.empty((0, 4))
    try:
        data = np.loadtxt(filled, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape != (len(filled), 5) or not np.isfinite(data).all():
        raise BatchFormatError(_first_fault(lines, lineno))
    return data[:, 1:]


def _diagnose(path, spans, lineno: int, index: bytes) -> int:
    """The one path that numbers the data block's lines: parse its byte
    ranges here, in order, numbering lines from `lineno`, and raise the
    first bad line's fault; else, unless the last row's sample_index,
    spelled `index`, is the row count less one, raise a fault naming that
    row's line.  Returns the row count."""
    rows = last = 0
    with open(path, "rb") as handle:
        for start, end in spans:
            rows += len(_parse_range(path, start, end, lineno))
            handle.seek(start)
            lines = handle.read(end - start).split(b"\n")
            last = next((lineno + k for k in range(len(lines) - 1, -1, -1) if lines[k].strip()),
                        last)
            lineno += len(lines) - 1
    if _whole(index) != rows - 1:
        raise BatchFormatError(f"line {last}: sample_index {index.decode('utf-8', 'replace')} "
                               f"is not the last of {rows} rows numbered from 0")
    return rows


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


def _identity(value):
    return value


def _ordered_map(func, tasks, count: int, emit=_identity):
    """Yield emit(func(*task)) for each of the `count` tasks of the
    iterable, in task order: each emit runs only once the emit of every
    earlier task has returned, so emit may write to a shared file.

    With W = min(CPUs, count) >= 2, W forked workers each serve one
    socket pair.  All W are forked before the first task is taken from
    the iterable, so no worker inherits a task or a thread that making
    the tasks starts (such as DrawnBatch's drawing helper), and each
    worker first closes the parent's ends of the pairs it inherits, so
    that its own reads EOF once the parent is gone.  A worker runs func
    on its task, then waits for its turn, which the parent gives once it
    has taken the result before; it then runs emit in its own process
    and replies with what emit returned.  The parent sends a worker its
    next task only after taking that worker's last reply, so each side
    holds one task and one result at a time, whatever the number of
    tasks.  A task, a turn and a reply each cross as one pickle, so a
    result is any value that pickles (an array's buffer is written as it
    is, with no copy into bytes).  An exception of func or of emit is
    raised here at its task's turn.  Every worker is killed and joined
    when the generator ends, raises or is closed.  Ctrl-C signals the
    whole process group: SIGINT is held while the workers are forked and
    each worker ignores it, so it raises KeyboardInterrupt here alone, and
    no worker ends before this process has taken it.  With W = 1, func
    and emit run in this process.
    """
    workers = min(_cpu_count(), count)
    if workers > 1:
        import multiprocessing  # here: a top-level import slows `import twinbeams`
        import signal
        import socket

        if multiprocessing.current_process().daemon:  # it may not have children
            workers = 1
    if workers < 2:
        for task in tasks:
            yield emit(func(*task))
        return
    # fork: a worker starts at once and runs func and emit as this process holds them
    context = multiprocessing.get_context("fork")
    procs, chans, busy = [], [], collections.deque()
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for _ in range(workers):
            ours, theirs = socket.socketpair()
            with ours:  # our end stays open until its file is closed
                chans.append(ours.makefile("rwb"))
            with theirs:
                proc = context.Process(target=_serve, args=(func, emit, theirs, chans),
                                       daemon=True)
                proc.start()
                procs.append(proc)  # once started: one that never started has no kill
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        for k, task in enumerate(tasks):
            if k < workers:
                w = k
            else:
                w = busy.popleft()
                yield _turn(chans[w], w)
            _put(chans[w], task)
            busy.append(w)
        while busy:
            w = busy.popleft()
            yield _turn(chans[w], w)
    finally:
        for proc in procs:
            proc.kill()
            proc.join()
        for chan in chans:
            with contextlib.suppress(OSError):  # a task sent in part fails to flush again
                chan.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, held)  # where forking failed


# the errors of a channel whose other end is closed
_ENDED = (EOFError, BrokenPipeError, ConnectionResetError)


def _put(chan, value) -> None:
    """Send value to the other end of a worker's channel, as one pickle."""
    pickle.dump(value, chan, pickle.HIGHEST_PROTOCOL)
    chan.flush()


def _turn(chan, w: int):
    """Give worker w its turn and take its reply, as `_take` does."""
    with contextlib.suppress(*_ENDED):  # a worker that ended is told apart by its reply
        _put(chan, None)
    return _take(chan, w)


def _take(chan, w: int):
    """Worker w's next result; raises the exception it sent instead, or
    RuntimeError when it ended before sending the whole reply."""
    try:
        failed, value = pickle.load(chan)
    except (*_ENDED, pickle.UnpicklingError):  # nothing, or a reply cut short
        raise RuntimeError(f"worker {w} ended before sending its result") from None
    if failed:
        raise value
    return value


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


def _serve(func, emit, sock, inherited) -> None:
    """Body of one worker: for each task received, call func, wait for
    its turn and reply (False, emit(value)); on an exception of either
    reply (True, exception) at its turn and stop.  It ignores SIGINT (the
    parent handles Ctrl-C and kills it), first closes the parent's ends it
    inherits, and stops quietly once the parent is gone."""
    import signal
    import tracemalloc

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # held since the fork, so none came yet
    for chan in inherited:
        chan.close()
    tracemalloc.stop()  # a parent that traces its allocations has no use for ours
    _keep_freed_heap()  # where it cannot, the worker runs as it would without
    chan, failed = sock.makefile("rwb"), False
    with contextlib.suppress(*_ENDED):
        while not failed:
            task = pickle.load(chan)
            failed, value = _call(func, *task)
            pickle.load(chan)  # its turn: every reply before its own is taken
            if not failed:
                failed, value = _call(emit, value)
            _put(chan, (failed, value))


def _call(func, *args) -> tuple:
    """(False, func(*args)), or (True, the exception it raised)."""
    try:
        return False, func(*args)
    except Exception as exc:
        return True, exc


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
