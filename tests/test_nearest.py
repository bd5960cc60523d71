"""The sample CSV reader's kernel against numpy's text parser: every range
it takes is read with the bits `np.loadtxt` gives (and so `float`), and
every range outside its grammar, or holding a value whose double is
subnormal or infinite, is declined, to be parsed line by line."""

import io
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeams import _decimal, batchfile


def _read(data: bytes):
    """read_rows over the whole of `data`, one row a line feed."""
    return _decimal.read_rows(io.BytesIO(data), len(data))


def _loadtxt(data: bytes):
    """Columns 1-4 as the line-by-line parse reads them, or None where it
    rejects the lines."""
    try:
        rows = np.loadtxt(filter(bytes.strip, data.split(b"\n")), delimiter=",",
                          comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (data.count(b"\n"), 5) or not np.isfinite(rows).all():
        return None
    return rows[:, 1:]


def _lines(cells) -> bytes:
    """The cells, four a line after a running index, zeros filling the last."""
    cells = list(cells) + ["0"] * (-len(cells) % 4)
    return b"".join(f"{i},{','.join(cells[4 * i:4 * i + 4])}\n".encode()
                    for i in range(len(cells) // 4))


@pytest.fixture(scope="module")
def range_file(tmp_path_factory):
    return tmp_path_factory.mktemp("nearest") / "range.csv"


def _parse_range(path, data: bytes) -> bytes:
    """batchfile._parse_range over the whole of `data`, written to path: the
    kernel's bits, or the line-by-line parse's where the kernel declines."""
    path.write_bytes(data)
    return batchfile._parse_range(path, 0, len(data)).tobytes()


# Eisel-Lemire rounds to 53 bits as if the exponent had no bounds, and
# decides each value that this puts on zero or a normal double: any value
# of a subnormal or infinite double is declined, and so are those within
# half a subnormal spacing below the smallest normal, 2**-1022, which it
# rounds below it (their double is 2**-1022 itself)
_DECIDED = (Fraction(2) ** -1022 - Fraction(2) ** -1076, Fraction(2) ** 1024 - Fraction(2) ** 970)


def _decided(cell: str) -> bool:
    x = abs(Fraction(cell))
    return x == 0 or _DECIDED[0] <= x < _DECIDED[1]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=24))
@example([0, 1 << 63])  # +0.0 and -0.0
@example([1, 2, (1 << 52) - 1, 1 << 52, (1 << 52) + 1])  # subnormals and the smallest normal
@example([_bits(x) for x in [5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-05,
                             2.0 ** 53 + 2, 1e23, 0.1, 2.2250738585072014e-308,
                             # repr is halfway between two 17-digit decimals
                             1529101448434723.25, 2.0 ** 50 + 0.25, -257376964243859.875]])
def test_every_written_double_reads_back(range_file, patterns):
    values = np.array([x for x in map(_double, patterns) if math.isfinite(x)] or [0.0])
    rows = np.concatenate([values, np.zeros(-len(values) % 4)]).reshape(-1, 4)
    data = _decimal.format_rows(0, rows)
    got = _read(data)
    if ((rows != 0) & (np.abs(rows) < np.finfo(np.float64).tiny)).any():  # a subnormal
        assert got is None
    else:
        assert got is not None
        assert got.tobytes() == rows.tobytes()
    assert _parse_range(range_file, data) == rows.tobytes()


@st.composite
def decimals(draw):
    """A decimal of the grammar: a sign, up to 19 significant digits after
    up to three leading zeros, a point anywhere in them, and an exponent of
    1 to 3 digits, or none."""
    digits = "0" * draw(st.integers(0, 3)) + draw(st.from_regex(r"[0-9]{1,19}", fullmatch=True))
    point = draw(st.integers(0, len(digits)))
    text = (digits[:point] or "0") + ("." + digits[point:] if point < len(digits) else "")
    exponent = draw(st.none() | st.integers(-350, 310))
    if exponent is not None:
        text += f"e{exponent:+0{draw(st.integers(2, 4))}d}"
    return draw(st.sampled_from(["", "-"])) + text


@settings(max_examples=300)
@given(st.lists(decimals(), min_size=1, max_size=24))
# halfway between two doubles: the even one
@example(["9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5"])
@example(["2.2250738585072011e-308", "2.2250738585072012e-308", "4.9e-324",  # subnormals
          "2.4703282292062328e-324", "2.4703282292062327e-324", "1e-400", "0e+999",
          "9999999999999999999e-343"])
@example(["1.7976931348623157e+308", "1.7976931348623158e+308", "1e+22", "1e+23", "-0.0",
          "123456789012345678e-20", "0.0001", "00007.5", "70e-1", "1e-03"])
def test_decimals_read_as_float_reads_them(range_file, cells):
    want = np.array([float(cell) for cell in cells] + [0.0] * (-len(cells) % 4))
    data = _lines(cells)
    got = _read(data)
    if all(map(_decided, cells)):
        assert got is not None
        assert got.tobytes() == want.tobytes()
    else:
        assert got is None
    if np.isfinite(want).all():
        assert _parse_range(range_file, data) == want.tobytes()
    else:
        with pytest.raises(batchfile.BatchFormatError, match="non-finite cell$"):
            _parse_range(range_file, data)


WRITTEN = _decimal.format_rows(0, np.array([[1.5, -0.25, 3e-7, 1e+16],
                                             [-7.0, 0.001, 2.5, -8e300]]))
ALPHABET = [b"0", b"9", b".", b"-", b"+", b"e", b"E", b",", b"\n", b"\r", b" ", b"\t", b"_",
            b"x", b"n", b"9" * 30, b"\xff"]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                          st.integers(0, len(WRITTEN)), st.sampled_from(ALPHABET)),
                min_size=1, max_size=3))
@example([("insert", 0, b"9" * 400)])  # an index past any double: declined
@example([("insert", 0, b"9" * 20)])  # an index of 20 digits
@example([("replace", len(WRITTEN) - 1, b"9")])  # no line feed at the end
def test_near_grammar_declined_or_read_as_numpy_reads_it(mutations):
    data = WRITTEN
    for operation, offset, token in mutations:
        offset %= len(data) + 1
        tail = data[offset + (operation != "insert"):]
        data = data[:offset] + (token if operation != "delete" else b"") + tail
    got = _read(data)
    if got is not None:
        want = _loadtxt(data)
        assert want is not None
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("line", [
    b"0,1.5,2.5,3.5,4.5\r",  # CR
    b"0, 1.5,2.5,3.5,4.5",  # a space
    b"0,+1.5,2.5,3.5,4.5",
    b"0,1E5,2.5,3.5,4.5",
    b"0,1e5,2.5,3.5,4.5",  # an exponent without its sign
    b"0,1e+1234,2.5,3.5,4.5",
    b"0,.5,2.5,3.5,4.5",
    b"0,7.,2.5,3.5,4.5",
    b"0,1.5.5,2.5,3.5,4.5",
    b"0,1e+5e+5,2.5,3.5,4.5",
    b"0,-,2.5,3.5,4.5",
    b"0,--1,2.5,3.5,4.5",
    b"0,,2.5,3.5,4.5",
    b"0,nan,2.5,3.5,4.5",
    b"0,1e+400,2.5,3.5,4.5",  # infinite
    b"0,12345678901234567890,2.5,3.5,4.5",  # 20 significant digits
    b"0,1.000000000000000000000000,2.5,3.5,4.5",  # 25 digits
    b"12345678901234567890,1.5,2.5,3.5,4.5",  # an index of 20 digits
    b"-0,1.5,2.5,3.5,4.5",
    b"0.0,1.5,2.5,3.5,4.5",
    b"0,1.5,2.5,3.5",
    b"0,1.5,2.5,3.5,4.5,6.5",
    b"# a note",
    b"",  # a blank line
])
def test_outside_the_grammar_declined(line):
    assert _read(b"0,1,2,3,4\n" + line + b"\n") is None
    assert _read(line + b"\n1,1,2,3,4\n") is None


def test_range_without_final_line_feed_declined():
    assert _read(b"0,1,2,3,4\n1,1,2,3,4") is None


@pytest.mark.parametrize("piece", [128, 200, 1000, 4096, 1 << 18])  # a line < 128 bytes
def test_lines_across_pieces(monkeypatch, piece):
    rng = np.random.default_rng(piece)
    rows = rng.standard_normal((500, 4)) * np.exp(rng.uniform(-60, 60, (500, 1)))
    monkeypatch.setattr(_decimal, "PIECE", piece)
    got = _read(_decimal.format_rows(10 ** 6, rows))
    assert got is not None
    assert got.tobytes() == rows.tobytes()


def test_line_longer_than_a_piece_declined(monkeypatch):
    monkeypatch.setattr(_decimal, "PIECE", 16)
    assert _read(b"0,1.5,2.5,3.5,4.5\n") is None


def test_power_table_is_fast_floats():
    # 5**q scaled into [2**127, 2**128): truncated, rounded up for -27 <= q < 0
    high, low = _decimal._powers()
    for k, q in enumerate(range(_decimal.Q_MIN, _decimal.Q_MAX + 1)):
        scaled = Fraction(5) ** q
        scaled *= Fraction(2) ** (127 - math.floor(math.log2(scaled)))
        while scaled >= 2 ** 128:
            scaled /= 2
        while scaled < 2 ** 127:
            scaled *= 2
        assert int(high[k]) << 64 | int(low[k]) == math.floor(scaled) + (-27 <= q < 0)
