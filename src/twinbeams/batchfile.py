"""The sample CSV: `write` and `read`, the batch a file holds
(`FileBatch`), and the pool of forked workers that formats and parses
its rows.

`sampling.write_batch` and `sampling.read_batch` call `write` and
`read`, and load this module on their first call, so a command that
writes or reads no batch (`run`, `sweep`, a sampled `run`) compiles
neither it nor `_decimal`, the kernel it imports.  The kernel is
imported once, with this module, so a forked worker inherits it
compiled."""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
import pickle
import shutil
from dataclasses import dataclass, field

import numpy as np

from . import _decimal, sampling
from .scenario import _output

CSV_HEADER = "sample_index,xplus_1,xminus_1,xplus_2,xminus_2"
MIN_ROW_BYTES = len("0,0.0,0.0,0.0,0.0\n")  # the shortest CSV row
READ_RANGE = 1 << 22  # bytes of the data block parsed per task


class BatchFormatError(ValueError):
    """Malformed sample file; the message names the offending line."""


def write(batch: sampling.SampleBatch | sampling.DrawnBatch | FileBatch, path) -> None:
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
    _check_room(batch.n, path)
    n_chunks = -(-batch.n // sampling.WRITE_CHUNK)
    header = f"# seed: {batch.seed}\n# source_label: {batch.source_label}\n{CSV_HEADER}\n"
    blocks = (batch._draw(n_chunks, functools.partial) if isinstance(batch, sampling.DrawnBatch)
              else batch.blocks(n_chunks))
    with _output(path) as out:
        out(header.encode("utf-8"))
        with contextlib.closing(blocks), \
                contextlib.closing(_ordered_map(_decimal.format_rows, sampling._numbered(blocks),
                                                n_chunks, emit=out)) as written:
            for _ in written:  # a worker's error is raised here
                pass  # and every worker is gone before a file it wrote to is removed


def _check_room(n: int, path) -> None:
    """Refuse a batch whose CSV cannot fit where it would be written: a
    row takes at least MIN_ROW_BYTES (`0,0.0,0.0,0.0,0.0\n`), on the disk
    of the file the path resolves to (/dev/fd/1: the file of stdout).  A
    path whose directory cannot be asked is left for `open` to report, by
    the whole path."""
    if os.path.exists(path) and not os.path.isfile(path):
        return  # a device or a pipe
    try:
        free = shutil.disk_usage(os.path.dirname(os.path.realpath(path))).free
    except OSError:
        return
    if MIN_ROW_BYTES * n > free:
        raise ValueError(f"n = {n}: the CSV needs at least {MIN_ROW_BYTES * n} bytes "
                         f"({MIN_ROW_BYTES} a row), more than the disk has free")


@dataclass(frozen=True)
class FileBatch:
    """The rows of a sample CSV, parsed as `blocks` is iterated: `read`
    has checked the header and taken n from the last row's index, and each
    block is cut from the data block's byte ranges `spans`, parsed in order
    by one worker per CPU.  A data-line fault, or rows that do not number
    n, raise BatchFormatError when the rows are read, or in `read` when
    the file holds fewer than MIN_SAMPLES rows.  `lineno` is the number of
    the data block's first line."""

    path: str
    n: int
    seed: int
    source_label: str = ""
    spans: tuple = field(default=(), repr=False)
    lineno: int = field(default=1, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "seed",
                           sampling._check_batch(self.seed, self.n, self.source_label))

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
        raise fault  # the file changed since `read`

    def _blocks(self, n_blocks: int):
        tasks = [(self.path, *span) for span in self.spans]
        with contextlib.closing(_ordered_map(_parse_range, tasks, len(tasks))) as parts:
            rest = np.empty((0, 4))  # parsed rows not yet in a block
            for k, size in enumerate(sampling._block_sizes(self.n, n_blocks)):
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


def read(path) -> FileBatch:
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
                    seed = sampling._check_batch(int(value))
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
    if not 0 < n <= (end - start + 1) // 10 or n < sampling.MIN_SAMPLES:
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
    non-finite one.  A range of lines as `write` writes them is read
    by the `_decimal` kernel; one it declines is parsed here line by line,
    with the same bits."""
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
    no worker ends before this process has taken it.  SIGTERM is held
    with it, so that a worker ends by SIGTERM as by default, never by a
    handler of this process.  With W = 1, func
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
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
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
    parent handles Ctrl-C and kills it), ends by SIGTERM as by default,
    first closes the parent's ends it inherits, and stops quietly once the
    parent is gone."""
    import signal
    import tracemalloc

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # held since the fork, so none came yet
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
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
