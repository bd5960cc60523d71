"""`estimate` keeps the CLI's contract on byte mutations of a batch file.

Each mutant of the golden batch (50 rows, under the sample floor) or of a
300-row file written by `write_batch` either exits 0, printing nothing on
stderr and writing a JSON of finite numbers, or exits 2, printing one
stderr line that names the batch and writing no output file."""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeams.batchfile import CSV_HEADER
from twinbeams.cli import main
from twinbeams.sampling import draw_samples, write_batch
from twinbeams.states import make_two_mode_squeezed

GOLDEN_BATCH = Path(__file__).parent / "data" / "golden_batch.csv"
WRITTEN_HEAD = f"# seed: 1\n# source_label: tmsv(0.5)\n{CSV_HEADER}\n"
POOL = [b"\r", b"\n", b"#", b",", b" ", b"\xc2\xa0", b"\xff", b"_", b"x"]
# (operation, offset, bytes); an offset is taken modulo the file's length,
# and most fall in the first lines, where the header and its comments are
MUTATIONS = st.tuples(st.sampled_from(["replace", "insert", "delete", "truncate", "duplicate",
                                       "drop"]),
                      st.one_of(st.integers(0, 120), st.integers(0, 10 ** 6)),
                      st.sampled_from(POOL))


@pytest.fixture(scope="module")
def batches(tmp_path_factory):
    """A scratch directory, and the bytes of each batch that is mutated."""
    workdir = tmp_path_factory.mktemp("mutants")
    written = workdir / "written.csv"
    write_batch(draw_samples(make_two_mode_squeezed(0.5), 300, 1, "tmsv(0.5)"), written)
    sources = {"golden": GOLDEN_BATCH.read_bytes(), "written": written.read_bytes()}
    assert sources["written"].startswith(WRITTEN_HEAD.encode())
    return workdir, sources


def _mutate(data: bytes, operation: str, offset: int, token: bytes) -> bytes:
    if not data:
        return data
    if operation == "truncate":
        return data[:offset % len(data)]
    if operation in ("duplicate", "drop"):
        lines = data.split(b"\n")
        k = offset % len(lines)
        copies = 2 if operation == "duplicate" else 0
        return b"\n".join(lines[:k] + lines[k:k + 1] * copies + lines[k + 1:])
    if operation == "insert":
        offset %= len(data) + 1
        return data[:offset] + token + data[offset:]
    offset %= len(data)
    return data[:offset] + (token if operation == "replace" else b"") + data[offset + 1:]


def _refuse(constant):
    raise ValueError(f"{constant} in the estimates")


@settings(max_examples=200)
@given(source=st.sampled_from(["golden", "written"]),
       mutations=st.lists(MUTATIONS, min_size=1, max_size=3))
# a '#' comment holding 0xff, ignored
@example(source="written", mutations=[("insert", 0, b"\n"), ("insert", 0, b"\xff"),
                                      ("insert", 0, b"#")])
# a line of U+00A0 or of 0x1C alone before the header, rejected by its number
@example(source="written", mutations=[("insert", 0, b"\n"), ("insert", 0, b"\xc2\xa0")])
@example(source="written", mutations=[("insert", 0, b"\n"), ("insert", 0, b"\x1c")])
# lone-CR line ends before the header and after it, rejected by line number
@example(source="written", mutations=[("replace", len("# seed: 1"), b"\r")])
@example(source="written", mutations=[("replace", len(WRITTEN_HEAD) - 1, b"\r")])
# a data line duplicated or dropped: the rows disagree with the last index
@example(source="written", mutations=[("duplicate", 100, b"x")])
@example(source="written", mutations=[("drop", 100, b"x")])
def test_estimate_of_a_mutant_exits_0_or_2_with_one_line(batches, source, mutations):
    _estimate(batches, source, mutations)


@pytest.mark.parametrize("operation", ["duplicate", "drop"])
@pytest.mark.parametrize("line", [3, 100, 301])  # lines 3-302 hold rows 0-299
def test_miscounted_rows_exit_2(batches, operation, line):
    assert _estimate(batches, "written", [(operation, line, b"x")]) == 2


def test_file_cut_at_a_line_end_reads_as_a_smaller_batch(batches):
    # without its last row the file is whole: nothing tells it was longer
    assert _estimate(batches, "written", [("drop", 302, b"x")]) == 0


def _estimate(batches, source, mutations) -> int:
    """Run `estimate` on the mutant and check the contract; its exit code."""
    workdir, sources = batches
    data = sources[source]
    for mutation in mutations:
        data = _mutate(data, *mutation)
    path, out = workdir / "mutant.csv", workdir / "estimates.json"
    path.write_bytes(data)
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(["estimate", "--batch", str(path), "--out", str(out)])
    if code == 0:
        assert stderr.getvalue() == ""
        json.loads(out.read_text(), parse_constant=_refuse)
    else:
        assert code == 2
        [line] = stderr.getvalue().splitlines()
        assert line.startswith(f"error: {path}: ")
        assert not out.exists()
    return code
