"""The sample CSV's data lines read back as numpy's text parser reads them.

`sampling._parse_range` is the one caller.  A byte range of whole lines
is read PIECE bytes at a time, each piece cut after its last line feed,
and each piece is checked and converted as whole arrays.  A line is
taken when it is an index cell `D{1,19}` and four value cells
`-?D+(\\.D+)?(e[+-]D{1,3})?` (D a decimal digit), all comma-separated and
ending at LF, each value with at most 19 significant digits and at most
24 digits before its exponent.  Any other line, a blank one included,
makes the whole range decline (None): the caller then parses it line by
line, which is the one source of every message and of the grammar.

Each value is rounded to the nearest double, ties to even, by
Eisel-Lemire (D. Lemire, "Number parsing at a gigabyte per second",
Software: Practice and Experience 51(8), 2021) on uint64 arrays, with its
table of 128-bit powers of five.  For a decimal significand below 10**19
its 128-bit product always decides the result (N. Mushtak and D. Lemire,
"Fast number parsing without fallback", SPE 53(7), 2023).  A result that
is subnormal or overflows is left to float(), which reads as numpy's
parser does; an infinite one declines.
"""

from __future__ import annotations

import functools

import numpy as np

# bytes converted at a time: a piece's temporaries stay in cache, and its
# ~100 array operations outweigh their own cost (a 4 MB range of a written
# batch took 45 ms in 256 KB pieces, 69 ms in 64 KB pieces and 79 ms in one
# piece, medians of 15).  In a CSV worker, which keeps the heap it frees,
# CLI `estimate` of 1e6 rows took 0.894 s at 512 KB, 0.936 s at 256 KB and
# 0.924 s at 1 MB, where its peak RSS grew by 9 MB (medians of 10).  A line
# of the grammar is far shorter, so a piece without a line feed declines
PIECE = 1 << 19
Q_MIN, Q_MAX = -342, 308  # the powers of ten 10**q of the table
# bytes kept before a piece, so the 8 bytes that end at any cell can be read
_PAD = 8
_M32 = np.uint64(0xFFFFFFFF)
# (width, base, mask) of the steps that join pairs of digit lanes: eight
# 8-bit lanes of one digit into four 16-bit lanes of two, into two 32-bit
# lanes of four, into one of eight
_LANES = [(np.uint64(8), np.uint64(10), np.uint64(0x00FF00FF00FF00FF)),
          (np.uint64(16), np.uint64(100), np.uint64(0x0000FFFF0000FFFF)),
          (np.uint64(32), np.uint64(10000), np.uint64(0x00000000FFFFFFFF))]
_ALL = (1 << 64) - 1
# _TOP[c]: the last c bytes of a word (the c bytes just before its end)
_TOP = np.array([0] + [_ALL << 8 * (8 - c) & _ALL for c in range(1, 9)], dtype=np.uint64)
_ZEROS_TOP = _TOP & np.uint64(0x3030303030303030)  # an ASCII '0' in each of those bytes
# _ABOVE[j]: the bytes of a word above its byte j
_ABOVE = np.array([_ALL << 8 * (j + 1) & _ALL for j in range(8)], dtype=np.uint64)


@functools.cache
def _powers() -> tuple:
    """5**q for q = Q_MIN..Q_MAX, scaled by a power of two into
    [2**127, 2**128), as its high and low uint64 words: truncated, but
    rounded up for -27 <= q < 0.  This is the table of fast_float, for
    which the Mushtak-Lemire bound holds."""
    high, low = [], []
    for q in range(Q_MIN, Q_MAX + 1):
        p = 5 ** abs(q)
        if q >= 0:
            c = (p << 128) >> p.bit_length()
        else:
            c = (1 << 127 + p.bit_length()) // p + (q >= -27)
        high.append(c >> 64)
        low.append(c & _ALL)
    return np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64)


def read_rows(handle, size: int, rows: int):
    """The `rows` data rows of the next `size` bytes of the binary file
    handle, columns 1-4 as an N x 4 float64 array; None when a line is
    not of the grammar or a value is not finite."""
    out = np.empty((rows, 4))
    buffer = bytearray(_PAD + PIECE)
    view = memoryview(buffer)
    done = carried = 0  # rows converted; bytes of a line begun in the last piece
    while size:
        got = handle.readinto(view[_PAD + carried:_PAD + min(PIECE, carried + size)])
        if not got:
            return None
        size -= got
        filled = _PAD + carried + got
        cut = buffer.rfind(b"\n", _PAD, filled) + 1
        if not cut:
            return None
        block = _piece(buffer, cut - _PAD)
        if block is None or done + len(block) > rows:
            return None
        out[done:done + len(block)] = block
        done += len(block)
        carried = filled - cut
        buffer[_PAD:_PAD + carried] = buffer[cut:filled]
    return out if done == rows and not carried else None


def _piece(buffer, size: int):
    """The rows of the whole lines buffer[_PAD:_PAD + size], as above."""
    codes = np.frombuffer(buffer, np.uint8, size, _PAD)
    # words[p]: the 8 bytes of the piece before its byte p, as a uint64 whose
    # lowest byte comes first
    words = np.ndarray((size + 1,), "<u8", buffer, 0, (1,))
    others = np.flatnonzero(codes - np.uint8(ord("0")) > np.uint8(9))  # every byte not a digit
    marks = codes[others]
    is_end = (marks == ord(",")) | (marks == ord("\n"))
    ends = np.compress(is_end, others)  # a mask index is slower on so irregular a mask
    rows = len(ends) // 5
    if (len(ends) != 5 * rows or np.count_nonzero(marks == ord("\n")) != rows
            or not (codes[ends[4::5]] == ord("\n")).all()):
        return None
    index_width = ends[::5] - np.concatenate(([0], ends[4:-1:5] + 1))
    if not ((index_width >= 1) & (index_width <= 19)).all():
        return None
    grid = ends.reshape(rows, 5)
    start, end = (grid[:, :4] + 1).reshape(-1), grid[:, 1:].reshape(-1)  # of each value

    # the '.' and the 'e' of each value, -1 where it has none
    cell = np.cumsum(is_end, dtype=np.int32)  # of each byte that is neither a digit nor an end
    found = []
    for mark in b".e":
        chosen = marks == mark
        at = np.full((rows, 5), -1)
        at.reshape(-1)[np.compress(chosen, cell)] = np.compress(chosen, others)
        if np.count_nonzero(at[:, 1:] >= 0) != np.count_nonzero(chosen):  # two in a cell
            return None
        found.append(at[:, 1:].reshape(-1))
    dot, exp = found
    has_dot, with_exp = dot >= 0, np.flatnonzero(exp >= 0)
    neg = codes[start] == ord("-")
    exps = exp[with_exp]
    signs = codes[exps + 1]
    exp_neg = signs == ord("-")
    # every byte that is not a digit is one placed: a separator, a leading
    # '-', a '.', an 'e' and the sign after it
    placed = len(ends) + np.count_nonzero(neg) + np.count_nonzero(has_dot) + 2 * len(exps)
    if len(others) != placed or not (exp_neg | (signs == ord("+"))).all():
        return None

    first = start + neg  # of the significand
    stop = end.copy()  # of the significand
    stop[with_exp] = exps
    dot = np.where(has_dot, dot, stop)
    whole = dot - first  # digits before the point
    digits = stop - first - has_dot
    after = digits - whole  # digits after the point
    exp_digits = end[with_exp] - exps - 2
    if not (((whole >= 1) & (after >= has_dot) & (digits <= 24)).all()
            and ((exp_digits >= 1) & (exp_digits <= 3)).all()):
        return None

    # the significand, 8 digits at a time from its end
    groups = []
    for k in range(3):
        last = digits - 8 * k  # digits up to the group's end
        group_end = np.maximum(first + last + (last > whole), 1)
        groups.append(_group(words, group_end, np.minimum(np.maximum(last, 0), 8), dot))
    if (groups[2] >= np.uint64(1000)).any():  # 10**19 or more
        return None
    w = groups[0]
    w += groups[1] * np.uint64(10 ** 8)
    w += groups[2] * np.uint64(10 ** 16)
    q = -after
    if len(exps):
        value = _group(words, end[with_exp], exp_digits).astype(np.int64)
        q[with_exp] += np.where(exp_neg, -value, value)

    bits, near = _eisel_lemire(w, q)
    bits |= neg.astype(np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    for k in np.flatnonzero(~near).tolist():  # subnormal or overflowing
        values[k] = float(buffer[_PAD + start[k]:_PAD + end[k]])
    if not np.isfinite(values).all():
        return None
    return values.reshape(rows, 4)


def _group(words, end, count, dot=None):
    """The value of the `count` (at most 8) digits that end before byte
    `end` of the piece, skipping the '.' at byte `dot` if it is among
    them."""
    word = words[end]
    if dot is not None:
        split = np.flatnonzero((dot >= end - 8) & (dot < end))
        if len(split):
            above = _ABOVE[dot[split] - end[split] + 8]  # the bytes after the dot
            word[split] = (word[split] & above) | (words[end[split] - 1] & ~above)
    word &= _TOP[count]
    word -= _ZEROS_TOP[count]  # one digit a byte, the bytes before the group zero
    for width, base, mask in _LANES:
        later = word >> width
        word *= base
        word += later
        word &= mask
    return word


def _product(a, b) -> tuple:
    """The high and low 64 bits of each a * b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> np.uint64(32), b & _M32, b >> np.uint64(32)
    low = a0 * b0
    cross = a0 * b1
    mid = low >> np.uint64(32)
    mid += cross & _M32
    high = cross >> np.uint64(32)
    cross = a1 * b0
    mid += cross & _M32
    high += cross >> np.uint64(32)
    high += a1 * b1
    high += mid >> np.uint64(32)
    low &= _M32
    low |= mid << np.uint64(32)
    return high, low


def _eisel_lemire(w, q) -> tuple:
    """(bits, near): the double nearest w * 10**q, ties to even, for each
    w < 10**19; where `near` is False (a subnormal or infinite result)
    the bits are to be found another way."""
    high_t, low_t = _powers()
    row = np.minimum(np.maximum(q, Q_MIN), Q_MAX) - Q_MIN
    zero = w == 0
    # shift w to a top bit of 1, by the exponent of the double nearest it,
    # which may be rounded up to the next power of two
    lz = np.uint64(1023 + 63) - (np.maximum(w, np.uint64(1)).astype(np.float64)
                                 .view(np.uint64) >> np.uint64(52))
    w = w << lz
    short = (w >> np.uint64(63)) ^ np.uint64(1)
    w <<= short
    lz += short
    high, low = _product(w, high_t[row])
    # the second word counts only when the first leaves the bits below
    # the mantissa and its rounding bit all ones
    fix = np.flatnonzero((high & np.uint64(0x1FF)) == np.uint64(0x1FF))
    if len(fix):
        second = _product(w[fix], low_t[row[fix]])[0]
        summed = low[fix] + second
        high[fix] += (summed < second).astype(np.uint64)
        low[fix] = summed
    upper = high >> np.uint64(63)
    shift = upper + np.uint64(9)
    mantissa = high >> shift
    # a q outside the table (clipped in `row`) gives a power2 outside
    # 1..2046 all the same: w * 10**q is below 2**-1074 or above 2**1024
    power2 = ((217706 * q) >> 16) + (63 + 1023)
    power2 += upper.astype(np.int64)
    power2 -= lz.astype(np.int64)
    # exactly halfway between two doubles: round down to the even one
    tie = np.flatnonzero(low <= np.uint64(1))
    tie = tie[(q[tie] >= -4) & (q[tie] <= 23) & ((mantissa[tie] & np.uint64(3)) == np.uint64(1))
              & ((mantissa[tie] << shift[tie]) == high[tie])]
    mantissa[tie] -= np.uint64(1)
    mantissa += mantissa & np.uint64(1)
    mantissa >>= np.uint64(1)
    carry = mantissa >> np.uint64(53)  # rounded up to 2**53
    power2 += carry.astype(np.int64)
    mantissa &= np.uint64((1 << 52) - 1)
    near = (power2 > 0) & (power2 < 2047)
    near |= zero
    mantissa |= power2.astype(np.uint64) << np.uint64(52)
    mantissa[zero] = 0
    return mantissa, near
