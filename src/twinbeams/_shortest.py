"""The sample CSV's rows, each double written as Python's repr writes it.

`sampling._format_rows` is the one caller.  repr gives the shortest
decimal that reads back to the same double and, of those, the one
closest to it.  Here that decimal is found for a whole array at once by
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
in 32-bit limbs of uint64 arrays, and laid out as CPython lays it out:
exponent form when the decimal point would sit more than 16 digits
right or more than 3 zeros left of the first digit (`1e+16`, `1e-05`),
two exponent digits at least, and `.0` after a whole number.

Rows are laid out SUB_ROWS at a time, each as a uint8 template with
a slot for every byte a value of the sub-batch may need and a mask of
the slots kept; one np.compress turns the sub-batch into text.  A
sub-batch of SUB_ROWS rows holds up to about 8.5 MB of temporaries at
once, most of them larger than glibc's default 128 KB mmap threshold; a
CSV worker reuses their memory from one sub-batch to the next because it
keeps the heap it frees (`sampling._keep_freed_heap`).
"""

from __future__ import annotations

import functools

import numpy as np

K_MIN, K_MAX = -324, 292  # the decimal scales 10**k of all finite doubles
# rows laid out at a time: enough that each array operation of a sub-batch
# outweighs its own call cost, few enough that its temporaries stay in
# cache.  CLI `sample` of 1e6 rows on 2 workers, medians of 8: 1.51 s at
# 1024 rows, 1.28 s at 2048, 1.32 s at 4096, 1.40 s at 8192 (and 1.25 s at
# 4096 against 1.30 s at 2048 over 12 more).  It pays only where freed
# temporaries are reused: at 4096 rows with glibc's default thresholds,
# which give the memory back to the system and fault it in again on every
# sub-batch, it took 1.49 s
SUB_ROWS = 4096
_M32 = np.uint64(0xFFFFFFFF)
_P10 = np.array([10 ** j for j in range(20)], dtype=np.uint64)
_FIRST = np.tri(21, 20, -1, dtype=bool)  # row c keeps the first c of 20 slots
# an index keeps slot j of its `width` when it is at least the j-th of the
# last `width` floors: its units always
_INDEX_FLOORS = np.array([10 ** j for j in range(19, 0, -1)] + [0], dtype=np.uint64)


@functools.cache
def _powers() -> tuple:
    """For k = K_MIN..K_MAX, g = floor(10**-k * 2**(127 - r)) + 1 with
    r = floor(log2(10**-k)), so 2**127 < g < 2**128: the four 32-bit
    limbs of g, least first, as a 4 x 617 uint64 array, and r."""
    limbs, exps = [], []
    for k in range(K_MIN, K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 1
            g = p << 127 - r if r <= 127 else p >> r - 127
        else:
            r = -p.bit_length()  # p is no power of 2
            g = (1 << 127 - r) // p
        g += 1
        if not 1 << 127 < g < 1 << 128:
            raise ArithmeticError(f"10**{-k} scales out of [2**127, 2**128)")
        limbs.append([g >> 32 * i & 0xFFFFFFFF for i in range(4)])
        exps.append(r)
    return np.array(limbs, dtype=np.uint64).T.copy(), np.array(exps, dtype=np.int64)


def _shifted(g: list, s: np.ndarray) -> list:
    """The five 32-bit limbs of g * 2**s, 1 <= s <= 5, least first."""
    back = 32 - s
    return [(g[0] << s) & _M32,
            *(((g[i] << s) & _M32) | (g[i - 1] >> back) for i in range(1, 4)),
            g[3] >> back]


def _round_to_odd(limbs: list) -> np.ndarray:
    """floor(X / 2**128) for X in five limbs, the top one unbounded, with
    its lowest bit set when the fraction is at least 2**-63 (so an
    odd result stands for a value that is not a whole number)."""
    return limbs[4] | ((limbs[3] > 0) | (limbs[2] > 1))


def _decimal(x: np.ndarray) -> tuple:
    """(digits, count, point): the decimal that repr gives each finite
    double of x is 0.d1d2...dn * 10**point, with d1d2...dn the `count`
    digits of `digits`, free of trailing zeros; 0, 1 and 1 for a zero."""
    table, exps = _powers()
    bits = x.view(np.uint64)
    frac = bits & np.uint64((1 << 52) - 1)
    biased = ((bits >> 52) & 0x7FF).astype(np.int64)
    c = np.where(biased == 0, frac, frac | (1 << 52))  # x = c * 2**q
    q = np.maximum(biased, 1) - 1075
    # a power of 2 above the subnormals has a closer lower neighbour
    closer_below = (frac == 0) & (biased > 1)
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) for those
    k = (q * 661971961083 - np.where(closer_below, 274743187321, 0)) >> 41
    row = k - K_MIN
    h = (q + exps[row] + 1).astype(np.uint64)  # 1 <= h <= 4
    g = [table[i][row] for i in range(4)]

    # vb = 4x / 10**k, rounded to odd: P = g * (4c << h) over 2**128, with P
    # in five limbs, the top one holding all above bit 128
    cp = (c << 2) << h
    c0, c1 = cp & _M32, cp >> 32  # c1 < 2**27
    lo = [gi * c0 for gi in g]
    hi = [gi * c1 for gi in g]
    p = [lo[0] & _M32]
    carry = lo[0] >> 32
    for i in range(1, 4):
        column = (lo[i] & _M32) + carry + hi[i - 1]
        p.append(column & _M32)
        carry = (lo[i] >> 32) + (column >> 32)
    p.append(carry + hi[3])

    # the ends of the interval that reads back to x, the same way: P + g * 2**(h+1)
    # and P - g * 2**(h+1), or P - g * 2**h for a power of 2
    one = np.uint64(1)
    upper, lower = _shifted(g, h + one), _shifted(g, h + one - closer_below)
    above, below = [], []
    carry, borrow = np.uint64(0), np.uint64(0)
    for i in range(4):
        total = p[i] + upper[i] + carry
        above.append(total & _M32)
        carry = total >> 32
        diff = (p[i] | np.uint64(1 << 32)) - lower[i] - borrow
        below.append(diff & _M32)
        borrow = (diff >> 32) ^ one
    above.append(p[4] + upper[4] + carry)
    below.append(p[4] - lower[4] - borrow)
    vb, vbr, vbl = _round_to_odd(p), _round_to_odd(above), _round_to_odd(below)

    # bounds of the interval count when c is even (reading rounds half to even)
    odd = c & one
    vbl += odd
    vbr -= odd
    s = vb >> 2  # floor(x / 10**k)
    # at most one multiple of 10**(k+1) lies in the interval: that one, if it does
    s10 = (s // 10) * 10
    u10_in, w10_in = vbl <= s10 << 2, (s10 + 10) << 2 <= vbr
    # else s or s + 1, whichever lies in it; if both, the nearer, the even one on a tie
    u_in, w_in = vbl <= s << 2, (s + 1) << 2 <= vbr
    mid = (s << 2) + 2
    up = np.where(u_in == w_in, (vb > mid) | ((vb == mid) & ((s & one) == one)), w_in)
    digits = np.where(u10_in != w10_in, s10 + w10_in * np.uint64(10), s + up)
    zero = (bits << 1) == 0
    digits[zero] = 0

    # the count of digits: 16 or 17 for a normal double, fewer for a subnormal
    count = 16 + (digits >= _P10[16])
    tiny = np.flatnonzero(biased == 0)
    count[tiny] = np.maximum(np.searchsorted(_P10, digits[tiny], side="right"), 1)
    point = k + count
    point[zero] = 1
    # strip trailing zeros, where there are any
    todo = np.flatnonzero((digits == (digits // 10) * 10) & ~zero)
    while todo.size:
        digits[todo] //= 10
        count[todo] -= 1
        todo = todo[digits[todo] % 10 == 0]
    return digits, count, point


def format_rows(start: int, rows: np.ndarray) -> bytes:
    """The CSV lines of an N x 4 block of finite doubles, each line the
    sample index, counted from `start`, then the row's four values."""
    width = len(str(start + len(rows) - 1))  # of the widest index
    return b"".join([_layout(start + first, rows[first:first + SUB_ROWS], width)
                     for first in range(0, len(rows), SUB_ROWS)])


def _layout(start: int, rows: np.ndarray, width: int) -> bytes:
    """The CSV lines of a sub-batch of rows, the index right-aligned in
    `width` slots before its masked leading zeros are dropped.

    Each value's slots are, in order: '-'; the digits before the point;
    '.'; the zeros after the point before the first digit (`0.001`);
    the digits after them; 'e', the exponent's sign and its digits; then
    ',' or '\n'.  Each of these regions is as wide as the widest value
    of the sub-batch needs, and the slots a value does not use are
    masked out."""
    m = len(rows)
    x = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    digits, n, point = _decimal(x)
    sci = (point <= -4) | (point > 16)
    before = np.where(sci, 1, np.clip(point, 0, n))  # of the n digits
    after = n - before
    scale = _P10[after]
    whole = digits // scale
    frac = (digits - whole * scale) * _P10[17 - after]  # left-aligned in 17 digits
    whole *= _P10[np.where(sci, 0, np.maximum(point - n, 0))]
    int_digits = np.where(sci, 1, np.maximum(point, 1)).astype(np.int8)
    zeros = np.where(sci, 0, np.maximum(-point, 0)).astype(np.int8)
    frac_digits = np.where(sci, after, np.maximum(after, 1)).astype(np.int8)
    power = point - 1
    exp_digits = np.where(sci, 2 + (np.abs(power) >= 100), 0).astype(np.int8)

    # region widths and offsets of one value's slots
    signed, ints = int(x.view(np.int64).min() < 0), int(int_digits.max())
    nzeros, nfrac, nexp = int(zeros.max()), int(frac_digits.max()), int(exp_digits.max())
    dot = signed + ints
    first = dot + 1 + nzeros  # of the digits after the point
    e = first + nfrac
    field = e + (2 + nexp if nexp else 0) + 1

    template = np.empty((m, width + 1 + 4 * field), dtype=np.uint8)
    keep = np.empty(template.shape, dtype=bool)
    index = np.arange(start, start + m, dtype=np.uint64)
    _digits_into(template, index, width, width)
    keep[:, :width] = index[:, None] >= _INDEX_FLOORS[-width:]
    template[:, width] = ord(",")
    keep[:, width] = True

    shape, strides = (m, 4, field), (template.shape[1], field, 1)  # views of the value slots
    fields = np.ndarray(shape, np.uint8, template, width + 1, strides)
    kept = np.ndarray(shape, bool, keep, width + 1, strides)
    flat = (m, 4)  # one entry a value
    if signed:
        fields[..., 0] = ord("-")
        kept[..., 0] = (x.view(np.int64) < 0).reshape(flat)
    _digits_into(fields, whole.reshape(flat), ints, dot)
    kept[..., signed:dot] = _last(int_digits.reshape(flat), ints)
    fields[..., dot] = ord(".")
    kept[..., dot] = (frac_digits > 0).reshape(flat)
    fields[..., dot + 1:first] = ord("0")
    kept[..., dot + 1:first] = _first(zeros.reshape(flat), nzeros)
    frac //= _P10[17 - nfrac]  # its nfrac digits, 8 at a time from the right
    for end in range(first + nfrac, first + 7, -8):
        group = frac - (frac // _P10[8]) * _P10[8]
        frac //= _P10[8]
        np.ndarray(flat, "<u8", template, width + 1 + end - 8,
                   (template.shape[1], field))[...] = _ascii8(group).reshape(flat)
    _digits_into(fields, frac.reshape(flat), nfrac % 8, first + nfrac % 8)
    kept[..., first:e] = _first(frac_digits.reshape(flat), nfrac)
    if nexp:
        fields[..., e] = ord("e")
        fields[..., e + 1] = np.where(power < 0, ord("-"), ord("+")).reshape(flat)
        kept[..., e] = kept[..., e + 1] = sci.reshape(flat)
        _digits_into(fields, np.abs(power).astype(np.uint64).reshape(flat), nexp, e + 2 + nexp)
        kept[..., e + 2:e + 2 + nexp] = _last(exp_digits.reshape(flat), nexp)
    fields[..., -1] = ord(",")
    fields[:, -1, -1] = ord("\n")
    kept[..., -1] = True
    return np.compress(keep.reshape(-1), template.reshape(-1)).tobytes()


def _first(count: np.ndarray, width: int) -> np.ndarray:
    """Masks of `width` slots keeping the first `count` of each."""
    return np.take(_FIRST[:, :width], count, axis=0)


def _last(count: np.ndarray, width: int) -> np.ndarray:
    """Masks of `width` slots keeping the last `count` of each."""
    return np.take(_FIRST[:, :width], width - count, axis=0) ^ True


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10**8 as ASCII, packed in a uint64
    whose lowest byte holds the first digit: split into 4-digit, then
    2-digit, then 1-digit lanes by multiply-and-shift division."""
    high = x // 10000
    lanes = high | ((x - high * 10000) << 32)
    high = ((lanes * 10486) >> 20) & 0x0000007F0000007F  # / 100 in each 32-bit lane
    lanes = high | ((lanes - high * 100) << 16)
    high = ((lanes * 103) >> 10) & 0x000F000F000F000F  # / 10 in each 16-bit lane
    return (high | ((lanes - high * 10) << 8)) + 0x3030303030303030


def _digits_into(slots: np.ndarray, values: np.ndarray, count: int, end: int) -> None:
    """Write the `count` lowest decimal digits of values, as ASCII, into
    slots[..., end - count:end]."""
    for j in range(1, count + 1):
        shorter = values // 10
        np.subtract(values + ord("0"), shorter * 10, out=slots[..., end - j], casting="unsafe")
        values = shorter
