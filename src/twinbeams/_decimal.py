"""The sample CSV's rows as text: each double written as Python's repr
writes it, and read back as numpy's text parser reads it.

`batchfile.write` is the one writer and `batchfile._parse_range` the
one reader.  Both directions scale by one table of 128-bit powers of
ten and multiply by it with one 64 x 64 -> 128-bit product, on whole
uint64 arrays.

Writing.  repr gives the shortest decimal that reads back to the same
double and, of those, the one closest to it.  Here that decimal is found
for a whole array at once by Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020), and laid out as CPython lays it out: exponent
form when the decimal point would sit more than 16 digits right or more
than 3 zeros left of the first digit (`1e+16`, `1e-05`), two exponent
digits at least, and `.0` after a whole number.

Rows are laid out SUB_ROWS at a time, each as a uint8 template, zeroed,
with a slot for every byte a value of the sub-batch may need.  A slot
that a value leaves unused keeps byte 0, which no text holds, so one
bytes.translate that deletes byte 0 turns the sub-batch into text.  A
sub-batch of SUB_ROWS rows holds up to about 4.5 MB of temporaries at
once, most of them larger than glibc's default 128 KB mmap threshold; a
CSV worker reuses their memory from one sub-batch to the next because it
keeps the heap it frees (`batchfile._keep_freed_heap`).

Reading.  A byte range of whole lines is read PIECE bytes at a time,
each piece cut after its last line feed, and each piece is checked and
converted as whole arrays.  A line is taken when it is an index cell
`D{1,19}` and four value cells `-?D+(\\.D+)?(e[+-]D{1,3})?` (D a decimal
digit), all comma-separated and ending at LF, each value with at most 19
significant digits and at most 24 digits before its exponent.  Any other
line, a blank one included, makes the whole range decline (None): the
caller then parses it line by line, which is the one source of every
message and of the grammar.

One scan of a piece finds its marks, the bytes that are not digits.  A
value's '.' and exponent are read off the marks before its end: the last
is its '.', or its exponent's sign, whose 'e' is the mark before it and
may follow the '.'.  A count declines the piece unless every mark is so
placed, a separator or a leading '-'.  The significand is read 8 digits
a word from its end, out of the 32 bytes before it: the digits before
its '.' from the words a byte earlier, as if the '.' were not there.

Each value is rounded to the nearest double, ties to even, by
Eisel-Lemire (D. Lemire, "Number parsing at a gigabyte per second",
Software: Practice and Experience 51(8), 2021).  For a decimal
significand below 10**19 its 128-bit product always decides the result
(N. Mushtak and D. Lemire, "Fast number parsing without fallback", SPE
53(7), 2023).  A value that this does not round to zero or a normal
double (one whose double is subnormal or infinite, or that lies within
half a subnormal spacing below the smallest normal) makes the range
decline too, to be read line by line.
"""

from __future__ import annotations

import functools

import numpy as np

Q_MIN, Q_MAX = -342, 324  # the powers of ten 10**q of the table
# rows laid out at a time: enough that each array operation of a sub-batch
# outweighs its own call cost, few enough that its temporaries stay in
# cache.  CLI `sample` of 1e6 rows on 2 workers, medians of 10 alternating
# runs: 1.008 s at 2048 rows, 0.997 s at 4096, 1.103 s at 8192
SUB_ROWS = 4096
# bytes converted at a time: a piece's temporaries stay in cache, and its
# ~100 array operations outweigh their own cost.  In CSV workers, which
# keep the heap they free, CLI `estimate` of 1e6 rows took 0.741 s and
# 1.29 s of CPU at 512 KB, 0.808 s and 1.41 s at 256 KB, 0.801 s and 1.42 s
# at 1 MB, with a peak RSS of 38.4, 34.7 and 45.1 MB (2 vCPUs, medians of 10
# alternating runs).  A line of the grammar is far shorter, so a piece
# without a line feed declines
PIECE = 1 << 19
# bytes kept before a piece, so the 32 bytes that end at any cell can be read
_PAD = 32
_M32 = np.uint64(0xFFFFFFFF)
_P10 = np.array([10 ** j for j in range(20)], dtype=np.uint64)
# _PREFIX[j]: '.' and j - 1 zeros, in the first j bytes of a 4-byte word
_PREFIX = np.array([int.from_bytes(b".000"[:j], "little") for j in range(5)], dtype=np.uint32)
# _KEEP[k][c]: the bytes of word k of a fraction of c digits that hold them
_KEEP = np.array([[(1 << 8 * min(max(c - 8 * k, 0), 8)) - 1 for c in range(18)]
                  for k in range(2)], dtype=np.uint64)
_ALL = (1 << 64) - 1
# _LAST[c]: the last c bytes of a word, all 8 from c = 8 on; none for c = 0
# or a negative c, whose index wraps to the zeros at the table's end
_LAST = np.array([_ALL << 8 * (8 - min(c, 8)) & _ALL for c in range(25)] + [0] * 16,
                 dtype=np.uint64)
_LAST_DIGITS = _LAST & np.uint64(0x0F0F0F0F0F0F0F0F)  # an ASCII digit's value in each
# (scale, width, lanes) of the steps that join digit lanes in pairs: eight
# 8-bit lanes of a digit, four 16-bit of two, two 32-bit of four, one of
# eight.  Each lane plus `scale` times the one before goes a lane down
_JOIN = [(np.uint64(10 << 8 | 1), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
         (np.uint64(100 << 16 | 1), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
         (np.uint64(10000 << 32 | 1), np.uint64(32), None)]


@functools.cache
def _powers() -> tuple:
    """10**q for q = Q_MIN..Q_MAX, scaled by a power of two into
    [2**127, 2**128), as its high and low uint64 words: truncated, but
    rounded up for -27 <= q < 0.  This is the table of fast_float, for
    which the Mushtak-Lemire bound holds.  Schubfach's g is the scaled
    power truncated plus one: the entry, plus one in the low word where
    it is truncated (no low word is all ones, so nothing carries)."""
    high, low = [], []
    for q in range(Q_MIN, Q_MAX + 1):
        p = 5 ** abs(q)  # 10**q = 5**q * 2**q scales as 5**q does
        if q >= 0:
            c = (p << 128) >> p.bit_length()
        else:
            c = (1 << 127 + p.bit_length()) // p + (q >= -27)
        high.append(c >> 64)
        low.append(c & _ALL)
    return np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64)


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


@functools.cache
def _g_low() -> np.ndarray:
    """The low words of Schubfach's g: `_powers`'s, plus one where truncated."""
    q = np.arange(Q_MIN, Q_MAX + 1)
    return _powers()[1] + ((q < -27) | (q > -1))


def _schubfach(x: np.ndarray) -> tuple:
    """(digits, count, point): the decimal that repr gives each finite
    double of x is 0.d1d2...dn * 10**point, with d1d2...dn the `count`
    digits of `digits`, free of trailing zeros; 0, 1 and 1 for a zero."""
    high_t, low_g = _powers()[0], _g_low()
    bits = x.view(np.uint64)
    frac = bits & np.uint64((1 << 52) - 1)
    biased = (x.view(np.int64) >> 52) & 0x7FF
    tiny = np.flatnonzero(biased == 0)  # the subnormals and the zeros
    zero = tiny[frac[tiny] == 0]
    c = frac | np.uint64(1 << 52)  # x = c * 2**e
    c[tiny] = frac[tiny]
    e = biased - 1075
    e[tiny] = -1074
    # a power of 2 above the subnormals has a closer lower neighbour
    closer = np.flatnonzero((frac == 0) & (biased > 1))
    # k = floor(log10(2**e)), or floor(log10(3/4 * 2**e)) for those
    k = (e * 661971961083) >> 41
    k[closer] = (e[closer] * 661971961083 - 274743187321) >> 41
    # g = floor(10**-k * 2**(127 - r)) + 1 in words g1, g0, with
    # r = floor(log2(10**-k))
    row = -k - Q_MIN
    g1, g0 = high_t[row], low_g[row]
    h = (e + ((217706 * -k) >> 16) + 1).view(np.uint64)  # 1 <= h <= 4

    # vb = 4x / 10**k, rounded to odd: P = g * (4c << h) over 2**128, with P
    # in three words w2, w1, w0; rounded to odd, floor(P / 2**128) gets its
    # lowest bit set when the fraction is at least 2**-63 (so an odd result
    # stands for a value that is not a whole number)
    cp = (c << 2) << h  # below 2**59
    w1, w0 = _product(g0, cp)
    w2, cross = _product(g1, cp)
    w1 += cross
    w2 += w1 < cross
    vb = w2 | (w1 > 1)

    # the ends of the interval that reads back to x, the same way: P + g * 2**(h+1)
    # and P - g * 2**(h+1), or P - g * 2**h for a power of 2, g * 2**s in three words
    one = np.uint64(1)
    sh = h + one
    u2, u1, u0 = g1 >> (64 - sh), (g1 << sh) | (g0 >> (64 - sh)), g0 << sh
    l2, l1, l0 = u2, u1, u0
    if len(closer):  # g * 2**h: the upper end's words halved
        l2, l1, l0 = u2.copy(), u1.copy(), u0.copy()
        l0[closer] = (u0[closer] >> one) | (u1[closer] << np.uint64(63))
        l1[closer] = (u1[closer] >> one) | (u2[closer] << np.uint64(63))
        l2[closer] >>= one
    carry = (w0 + u0) < u0
    above = w1 + u1 + carry
    vbr = (w2 + u2 + ((above < u1) | ((above == u1) & carry))) | (above > 1)
    borrow = w0 < l0
    below = w1 - l1 - borrow
    vbl = (w2 - l2 - ((w1 < l1) | ((w1 == l1) & borrow))) | (below > 1)

    # bounds of the interval count when c is even (reading rounds half to even)
    odd = c & one
    vbl += odd
    vbr -= odd
    s = vb >> 2  # floor(x / 10**k)
    # at most one multiple of 10**(k+1) lies in the interval: that one, if it does
    s10 = (s // 10) * 10
    s4, s10_4 = s << 2, s10 << 2
    u10_in, w10_in = vbl <= s10_4, s10_4 + np.uint64(40) <= vbr
    # else s or s + 1, whichever lies in it; if both, the nearer, the even one on a tie
    u_in, w_in = vbl <= s4, s4 + np.uint64(4) <= vbr
    mid = s4 + np.uint64(2)
    # chosen without np.where, whose masks here are neither rare nor regular (the
    # uint64 wrap-arounds cancel): up = w_in unless both or neither lie in it
    up = w_in ^ ((u_in == w_in) & (w_in ^ ((vb > mid) | ((vb == mid) & ((s & one) == one)))))
    digits = s + up
    digits += (u10_in != w10_in) * (s10 + w10_in * np.uint64(10) - digits)
    digits[zero] = 1  # a zero's one digit, 0, once trailing zeros are stripped

    # the count of digits: 16 or 17 for a normal double, fewer for a subnormal
    count = 16 + (digits >= _P10[16])
    count[tiny] = np.searchsorted(_P10, digits[tiny], side="right")
    point = k + count
    point[zero] = 1
    # strip trailing zeros, where there are any
    todo = np.flatnonzero(digits == (digits // 10) * 10)
    while todo.size:
        digits[todo] //= 10
        count[todo] -= 1
        todo = todo[digits[todo] % 10 == 0]
    digits[zero] = 0
    return digits, count, point


def format_rows(start: int, rows: np.ndarray) -> bytes:
    """The CSV lines of an N x 4 block of finite doubles, each line the
    sample index, counted from `start`, then the row's four values."""
    width = len(str(start + len(rows) - 1))  # of the widest index
    return b"".join([_layout(start + first, rows[first:first + SUB_ROWS], width)
                     for first in range(0, len(rows), SUB_ROWS)])


def _layout(start: int, rows: np.ndarray, width: int) -> bytes:
    """The CSV lines of a sub-batch of rows, the index right-aligned in
    `width` slots.  Each value's slots are, in order: '-'; the digits
    before the point; '.' and the zeros after it (`0.001`); the digits
    after those, as two 8-digit words and a 17th digit; 'e', the
    exponent's sign and its digits; then ',' or '\n'.  Each region is as
    wide as the widest value of the sub-batch needs."""
    m = len(rows)
    x = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    digits, n, point = _schubfach(x)
    which = np.flatnonzero((point <= -4) | (point > 16))  # the few values in exponent form
    # of the n digits, those before the point; one for a value in exponent form
    before = np.minimum(np.maximum(point, 0), n)
    before[which] = 1
    after = n - before
    scale = _P10[after]
    whole = digits // scale
    frac = (digits - whole * scale) * _P10[17 - after]  # left-aligned in 17 digits
    shift = np.maximum(point - n, 0)
    shift[which] = 0
    whole *= _P10[shift]
    prefix = np.maximum(1 - point, 1)  # row of _PREFIX: '.' and the zeros after it
    kept = np.maximum(after, 1)  # digits after the point
    kept[which] = after[which]
    prefix[which] = after[which] > 0
    power = point[which] - 1

    # region widths and offsets of one value's slots
    signed, ints = int(x.view(np.int64).min() < 0), len(str(int(whole.max())))
    npre, nfrac = int(prefix.max()), int(kept.max())
    words = (min(nfrac, 16) + 7) // 8
    nexp = 2 + int(np.abs(power).max() >= 100) if len(which) else 0
    dot = signed + ints
    first = dot + npre  # of the digits after the point
    e = first + 8 * words + (nfrac > 16)
    field = e + (2 + nexp if nexp else 0) + 1

    template = np.zeros((m, width + 1 + 4 * field), dtype=np.uint8)
    _digits_into(template, np.arange(start, start + m, dtype=np.uint64), width, width, 1)
    template[:, width] = ord(",")
    shape, strides = (m, 4, field), (template.shape[1], field, 1)  # views of the value slots
    fields = np.ndarray(shape, np.uint8, template, width + 1, strides)
    flat = (m, 4)  # one entry a value
    if signed:
        np.multiply(x.view(np.int64).reshape(flat) < 0, np.uint8(ord("-")), out=fields[..., 0])
    _digits_into(fields, whole.reshape(flat), ints, dot, 1)
    if npre:  # its bytes past the region spill into the fraction's first word, written next
        np.ndarray(flat, "<u4", template, width + 1 + dot, strides[:2])[...] = \
            _PREFIX[prefix].reshape(flat)
    head = frac // np.uint64(10)  # the first 16 digits after the point
    high = head // _P10[8]
    for k in range(words):
        group = high if k == 0 else head - high * _P10[8]
        np.ndarray(flat, "<u8", template, width + 1 + first + 8 * k, strides[:2])[...] = \
            (_ascii8(group) & np.take(_KEEP[k], kept)).reshape(flat)
    if nfrac > 16:  # the 17th digit, nonzero where a value has one
        last = (frac - head * np.uint64(10)).reshape(flat)
        np.add(last, (last != 0) * np.uint64(ord("0")), out=fields[..., e - 1], casting="unsafe")
    if nexp:
        exponent = np.empty((len(which), 2 + nexp), dtype=np.uint8)
        exponent[:, 0], exponent[:, 1] = ord("e"), np.where(power < 0, ord("-"), ord("+"))
        _digits_into(exponent, np.abs(power).astype(np.uint64), nexp, 2 + nexp, 2)
        fields[which // 4, which % 4, e:e + 2 + nexp] = exponent  # at (row, column)
    fields[..., -1] = ord(",")
    fields[:, -1, -1] = ord("\n")
    return template.tobytes().translate(None, b"\x00")


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


def _digits_into(slots: np.ndarray, values: np.ndarray, count: int, end: int, keep: int) -> None:
    """Write the `count` lowest decimal digits of values, as ASCII, into
    slots[..., end - count:end]; above the lowest `keep`, a digit above a
    value's highest is a 0 byte."""
    for j in range(1, count + 1):
        shorter = values // 10
        zero = ord("0") if j <= keep else (values != 0) * np.uint64(ord("0"))
        np.subtract(values + zero, shorter * 10, out=slots[..., end - j], casting="unsafe")
        values = shorter


def read_rows(handle, size: int):
    """The data rows of the next `size` bytes of the binary file handle,
    one a line, columns 1-4 as an N x 4 float64 array; None when a line is
    not of the grammar or a value is not a normal double or zero."""
    blocks = []
    buffer = bytearray(_PAD + PIECE)
    view = memoryview(buffer)
    carried = 0  # bytes of a line begun in the last piece
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
        if block is None:
            return None
        blocks.append(block)
        carried = filled - cut
        buffer[_PAD:_PAD + carried] = buffer[cut:filled]
    if carried or not blocks:
        return None
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _piece(buffer, size: int):
    """The rows of the whole lines buffer[_PAD:_PAD + size], as above."""
    codes = np.frombuffer(buffer, np.uint8, size, _PAD)
    wide = np.ndarray((size + 1,), "V32", buffer, 0, (1,))  # wide[p]: the 32 bytes before byte p
    others = np.flatnonzero(codes - np.uint8(ord("0")) > np.uint8(9))  # every byte not a digit
    marks = codes[others]
    seps = np.flatnonzero((marks == ord(",")) | (marks == ord("\n")))  # of `others`
    ends = others[seps]
    rows = len(ends) // 5
    if (len(ends) != 5 * rows or np.count_nonzero(marks == ord("\n")) != rows
            or not (codes[ends[4::5]] == ord("\n")).all()):
        return None
    index_width = ends[::5] - np.concatenate(([0], ends[4:-1:5] + 1))
    if not ((index_width >= 1) & (index_width <= 19)).all():
        return None
    grid = ends.reshape(rows, 5)
    start, stop = (grid[:, :4] + 1).reshape(-1), grid[:, 1:].reshape(-1)  # of each value

    last = (seps.reshape(rows, 5)[:, 1:] - 1).reshape(-1)  # of `others`: the mark before an end
    mark, dot = marks[last], others[last]  # the '.' where has_dot
    has_dot = mark == ord(".")
    with_exp = np.flatnonzero((mark == ord("+")) | (mark == ord("-")))
    with_exp = with_exp[codes[dot[with_exp] - 1] == ord("e")]
    exp_neg, exp_end = mark[with_exp] == ord("-"), stop[with_exp]
    stop[with_exp] = dot[with_exp] - 1  # the significand ends at the 'e'
    before = last[with_exp] - 2  # the mark before the 'e'
    has_dot[with_exp] = marks[before] == ord(".")
    dot[with_exp] = others[before]
    neg = codes[start] == ord("-")
    # every byte that is not a digit is one placed: a separator, a leading
    # '-', a '.', an 'e' and the sign after it
    placed = len(ends) + np.count_nonzero(neg) + np.count_nonzero(has_dot) + 2 * len(with_exp)
    if len(others) != placed:
        return None

    after = (stop - dot - 1) * has_dot  # digits after the point
    digits = stop - (start + neg) - has_dot
    exp_digits = exp_end - stop[with_exp] - 2
    if not (((digits - after >= 1) & (after >= has_dot) & (digits <= 24)).all()
            and ((exp_digits >= 1) & (exp_digits <= 3)).all()):
        return None

    # group k of the significand's digits ends before byte base - 8k, base one past the
    # significand, or one further without a '.' (read as if it had one there)
    base = stop + 1 - has_dot
    window = wide[base]
    held, earlier = _words(window), _words(window, 1)
    groups = [_group(held[:, 2 - k], digits - 8 * k, earlier[:, 2 - k], after - 8 * k)
              for k in range(3)]
    if (groups[2] >= np.uint64(1000)).any():  # 10**19 or more
        return None
    w = groups[0]
    w += groups[1] * np.uint64(10 ** 8)
    w += groups[2] * np.uint64(10 ** 16)
    q = -after
    if len(with_exp):
        value = _group(_words(wide[exp_end])[:, 2], exp_digits).astype(np.int64)
        q[with_exp] += np.where(exp_neg, -value, value)

    bits, near = _eisel_lemire(w, q)
    if not near.all():
        return None
    bits |= neg.astype(np.uint64) << np.uint64(63)
    return bits.view(np.float64).reshape(rows, 4)


def _words(window, lag: int = 0) -> np.ndarray:
    """Of each row wide[p]: the uint64 words, lowest byte first, that end
    `lag` (0 or 1) bytes before bytes p - 16, p - 8 and p of the piece."""
    return np.ndarray((len(window), 3), "<u8", window.view(np.uint8), 8 - lag, (32, 8))


def _group(word, count, earlier=None, after=None):
    """The value of the digits in the last `count` bytes of each word (all
    8 from 8 on, none below 1): where the words `earlier` are given, the
    last `after` of those bytes from `word` and the others from `earlier`."""
    if earlier is not None:
        word = word ^ earlier
        word &= _LAST[after]
        word ^= earlier
    word = word & _LAST_DIGITS[count]  # one digit a byte, the bytes before the group zero
    for scale, width, lanes in _JOIN:
        word *= scale
        word >>= width
        if lanes is not None:
            word &= lanes
    return word


def _eisel_lemire(w, q) -> tuple:
    """(bits, near): the double nearest w * 10**q, ties to even, for each
    w < 10**19; where `near` is False (a subnormal or infinite result)
    the bits are not decided."""
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
