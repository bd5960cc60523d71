"""The sample CSV writer against repr: every finite double, laid out in
rows, is written byte for byte as `format_rows_repr` writes it."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import format_rows_repr
from twinbeams import _decimal


def _rows(values) -> np.ndarray:
    """values as N x 4 rows, padded with zeros."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    return np.concatenate([values, np.zeros(-len(values) % 4)]).reshape(-1, 4)


def _assert_reprs(values, start=0):
    rows = _rows(values)
    got, want = _decimal.format_rows(start, rows), format_rows_repr(start, rows)
    if got != want:
        bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first {bad[:3]}")


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-4, 1e-5, 2.0 ** 53 + 2,
         1.7976931348623157e308, 2.2250738585072014e-308, 2.225073858507201e-308, 1e23,
         0.1, 0.3, 1 / 3, 123456.0, 1e22, 9007199254740993.0, 0.001, 0.00012345,
         # halfway between two 17-digit decimals: the even one
         1529101448434723.25, 2.0 ** 50 + 0.25, -257376964243859.875]


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=24))
@example([0, 1 << 63])  # +0.0 and -0.0
@example([1, 2, (1 << 52) - 1, 1 << 52, (1 << 52) + 1])  # subnormals and the smallest normal
@example([struct.unpack("<Q", struct.pack("<d", x))[0] for x in EDGES])
def test_every_finite_double_is_its_repr(patterns):
    values = [_double(bits) for bits in patterns]
    _assert_reprs([x for x in values if math.isfinite(x)])


@pytest.mark.parametrize("values", [
    EDGES,
    [2.0 ** e for e in range(-1074, 1024)],
    [float(f"1e{e}") for e in range(-323, 309)],
    [float(f"{d}e{e}") for d in range(1, 10) for e in range(-20, 24)],
    [np.nextafter(float(f"1e{e}"), to) for e in range(-322, 309) for to in (0.0, math.inf)],
    [2.0 ** 53 - d for d in range(40)] + [2.0 ** 53 + 2 * d for d in range(40)],
    [1e20, -3e-7] * 4,  # a block with no digit after any point
    [-0.0] * 8,
], ids=["edges", "powers-of-2", "powers-of-10", "one-digit", "decade-neighbours", "near-2**53",
        "no-fraction-digits", "negative-zeros"])
def test_edge_classes_are_their_repr(values):
    _assert_reprs(values)


@pytest.mark.parametrize("kind", ["normal", "scaled-up", "scaled-down", "bit-patterns",
                                  "subnormal", "every-exponent", "integers", "short-decimals"])
def test_bulk_doubles_are_their_repr(kind):
    rng = np.random.default_rng(list(b"shortest") + [len(kind)])
    n = 20000
    values = {
        "normal": lambda: rng.standard_normal(n),
        "scaled-up": lambda: rng.standard_normal(n) * 1e30,
        "scaled-down": lambda: rng.standard_normal(n) * 1e-30,
        "bit-patterns": lambda: rng.integers(0, 2 ** 64 - 1, n, dtype=np.uint64,
                                             endpoint=True).view(np.float64),
        "subnormal": lambda: rng.integers(0, 2 ** 52, n, dtype=np.uint64).view(np.float64),
        "every-exponent": lambda: ((np.arange(n, dtype=np.uint64) % 2047) << 52
                                  | rng.integers(0, 2 ** 52, n, dtype=np.uint64)).view(np.float64),
        "integers": lambda: rng.integers(0, 2 ** 53, n).astype(np.float64),
        "short-decimals": lambda: (np.round(rng.standard_normal(n) * 1e4)
                                   * 10.0 ** rng.integers(-12, 16, n)),
    }[kind]()
    _assert_reprs(values[np.isfinite(values)])


@pytest.mark.parametrize("start", [0, 99_990, 983_040, 10 ** 8 - 5, 10 ** 10, 10 ** 18 - 3])
def test_rows_equal_the_oracle_across_seams(start):
    # sub-batches of SUB_ROWS rows, the last one short, indices that may
    # gain a digit inside the block; a row of -0.0 among them
    rows = np.random.default_rng(start).standard_normal((2 * _decimal.SUB_ROWS + 37, 4))
    rows[_decimal.SUB_ROWS] = -0.0
    rows[7, 2] = 1e-5
    assert _decimal.format_rows(start, rows) == format_rows_repr(start, rows)


# one value of each layout class: each sign, 1, 16 and 17 integer digits,
# zeros after the point, exponent form of 2 and 3 digits, a whole number,
# -0.0 and the smallest subnormal; 13 of them, a prime
CLASSES = [-2.718281828459045, 3.25, 12345678901234567.0, -9876543210987654.0, 0.000123,
           1e-05, -1.5e-100, 1e16, 123456.0, -0.0, 5e-324, 0.1, -0.7071067811865476]


def test_every_layout_class_beside_every_other_in_one_sub_batch():
    # row i holds classes a + j * b (mod 13) in column j, a = i % 13 and
    # b = i // 13: each class in each column, each pair of classes side by
    # side; the index gains a digit at row 2.  A first call on other data
    # leaves its freed temporaries for the second to allocate.
    i = np.arange(_decimal.SUB_ROWS)[:, None]
    rows = np.array(CLASSES)[(i + np.arange(4) * (i // len(CLASSES))) % len(CLASSES)]
    _decimal.format_rows(0, np.random.default_rng(9).standard_normal(rows.shape) * 1e300)
    assert _decimal.format_rows(9_998, rows) == format_rows_repr(9_998, rows)


def test_powers_of_ten_table_is_exact():
    # the one table of both kernels, row q - Q_MIN, with 2**r <= 10**q < 2**(r + 1):
    # fast_float's c is 10**q * 2**(127 - r) truncated, but rounded up for
    # -27 <= q < 0; Schubfach's g, that truncated plus one, is c with one
    # added to its low word where c is truncated, as the writer adds it
    high, low = _decimal._powers()
    for row, q in enumerate(range(_decimal.Q_MIN, _decimal.Q_MAX + 1)):
        power = Fraction(10) ** q
        r = (217706 * q) >> 16
        assert Fraction(2) ** r <= power < Fraction(2) ** (r + 1)
        truncated = math.floor(power * Fraction(2) ** (127 - r))
        assert int(high[row]) << 64 | int(low[row]) == truncated + (-27 <= q < 0)
        g = int(high[row]) << 64 | (int(low[row]) + (q < -27 or q > -1)) % 2 ** 64
        assert g == truncated + 1
        assert 1 << 127 < g < 1 << 128
