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

from twinbeams.cli import main
from twinbeams.sampling import CSV_HEADER, draw_samples, write_batch
from twinbeams.states import make_two_mode_squeezed

GOLDEN_BATCH = Path(__file__).parent / "data" / "golden_batch.csv"
WRITTEN_HEAD = f"# seed: 1\n# source_label: tmsv(0.5)\n{CSV_HEADER}\n"
POOL = [b"\r", b"\n", b"#", b",", b" ", b"\xc2\xa0", b"\xff", b"_", b"x"]
# (operation, offset, bytes); an offset is taken modulo the file's length,
# and most fall in the first lines, where the header and its comments are
MUTATIONS = st.tuples(st.sampled_from(["replace", "insert", "delete", "truncate", "duplicate"]),
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
    if operation == "duplicate":
        lines = data.split(b"\n")
        k = offset % len(lines)
        return b"\n".join(lines[:k + 1] + lines[k:])
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
def test_estimate_of_a_mutant_exits_0_or_2_with_one_line(batches, source, mutations):
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
