"""The text of every CSV table the CLI writes: each float at `%.17g`, each
flag as `true`/`false`.

`format_rows` gives the same bytes as one `'%.17g' % x` per value.  A small
table is formatted that way, one `%` template per row.  A large one is
formatted in bulk, where most values skip CPython's per-value dtoa: for
1e-4 <= |x| < 1e16, the range `%.17g` writes without an exponent, let
p = 16 - floor(log10 |x|).  Dekker's product (Numer. Math. 18, 224, 1971)
gives |x| 10^p = H + L exactly, H >= 1e16 > 2^53 is an even integer, so
N = H + rint(L) is the 17-digit integer, rounded half to even, whose digits
`%.17g` prints.  An N outside [1e16, 1e17) (a log10 off by one) and every
value outside that range (|x| < 1e-4, |x| >= 1e16, nan, inf) go through
`%` one by one.  The digits are written four at a time from a table of
4-byte chunks, with NUL bytes for the zeros `%.17g` strips, and the NULs
are deleted from the whole table at once.  A cell is a sign chunk, as many
4-digit integer groups as the table's largest integer part needs (none
when every |x| < 1, one up to 9999, at most four), a point chunk, five
fraction groups and a separator; a value written through `%` fills all
but the separator with its text (at most 24 bytes) and NULs.
"""

from __future__ import annotations

import functools

import numpy as np

# Tables of at least this many float cells are formatted in bulk.  The two
# paths cost the same at 200-240 cells, about 100-120 us (sweep, iq and
# synth shaped tables whose integer parts need one group; 2-CPU Xeon
# container, Python 3.11, numpy 2.4).
BULK_MIN_CELLS = 240

_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves


def _split(values):
    scaled = values * _SPLITTER
    high = scaled - (scaled - values)
    return high, values - high


# Offsets into the chunk table (_chunk_table): every 4-digit group
# 0000-9999 with leading zeros as NUL (at 0), zero-padded (at _PADDED) and
# with trailing zeros as NUL (at _TRAILING); the sign, by sign bit; the
# point, by (integer part nonzero) * 2 + (fraction nonzero), where a zero
# integer part prints as 0 and a zero fraction prints no point; a flag's
# word, by its value; and a separator, by (last column) * 2 + (a float or a
# true flag), "e" of "false" being the separator's first byte.
_PADDED, _TRAILING, _SIGN, _POINT, _WORD, _SEPARATOR = (
    10_000, 20_000, 30_000, 30_002, 30_006, 30_008
)


@functools.cache
def _chunk_table():
    """The 4-byte chunks a cell is written with, read-only (120 KiB, built
    with uint8 arithmetic by the first bulk table of the process)."""
    digits = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    digits = (digits % np.uint16(10)).astype(np.uint8)
    text = digits + np.uint8(48)
    after_first = np.logical_or.accumulate(digits != 0, axis=1)
    before_last = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    others = ["", "-", "0", "0.", "", ".", "fals", "true", "e,", ",", "e\n", "\n"]
    table = np.concatenate([
        np.where(after_first, text, np.uint8(0)).view(np.uint32),
        text.view(np.uint32),
        np.where(before_last, text, np.uint8(0)).view(np.uint32),
        np.array(others, "S4").view(np.uint32)[:, None],
    ]).ravel()
    table.flags.writeable = False
    return table


_CELL_FIXED = 8  # chunks per float besides its integer groups: sign, point, 5 fractions, separator

# Indexed by p in [1, 20]: 10^p, split for Dekker's product, and the int64
# factors that cut N into its integer part and the first 8 and the last 12
# digits of its fraction, left-aligned in 20 digits.
_P = range(21)
_POW = np.array([float(10**p) for p in _P])
_POW_HIGH, _POW_LOW = _split(_POW)
_INT_DIV = np.array([10 ** min(p, 18) for p in _P], dtype=np.int64)
_HEAD_MUL = np.array([10 ** max(8 - p, 0) for p in _P], dtype=np.int64)
_HEAD_DIV = np.array([10 ** max(p - 8, 0) for p in _P], dtype=np.int64)
_TAIL_MUL = np.array([10 ** (20 - max(p, 8)) for p in _P], dtype=np.int64)


def format_rows(columns, flags=()):
    """The CSV body of equal-length columns, one line per row, each ending
    in a newline: the float columns at `%.17g`, then the bool columns as
    `true`/`false`.  Byte-identical to `'%.17g' % x` per value."""
    floats = [np.asarray(column, dtype=np.float64) for column in columns]
    flags = [np.asarray(flag, dtype=bool) for flag in flags]
    if not floats or floats[0].size * len(floats) < BULK_MIN_CELLS:
        template = ",".join(["%.17g"] * len(floats) + ["%s"] * len(flags)) + "\n"
        texts = (map(("false", "true").__getitem__, flag.tolist()) for flag in flags)
        return "".join(map(template.__mod__, zip(*(f.tolist() for f in floats), *texts)))
    return _format_bulk(np.array(floats).T, np.array(flags).T if flags else None)


def _percent_texts(values):
    """`'%.17g' % x` for each float of a list: the bulk path's fallback."""
    return ["%.17g" % value for value in values]


def _quotient(values, divisor):
    """values // divisor and values % divisor for a scalar divisor: numpy's
    floor division by a scalar is several times faster than its divmod."""
    quotient = values // divisor
    return quotient, values - quotient * divisor


def _format_bulk(values, flags):
    """format_rows for a (rows, columns) float array and a (rows, flags) bool array or None."""
    rows, width = values.shape
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e16)
    magnitude = np.where(fast, magnitude, 0.5)  # integer part 0 in any layout
    p = 16 - np.floor(np.log10(magnitude)).astype(np.intp)
    np.minimum(np.maximum(p, 1, out=p), 20, out=p)  # clip, without np.clip's overhead

    # Dekker's product: magnitude * 10^p = high + low exactly.
    high = magnitude * _POW[p]
    mag_high, mag_low = _split(magnitude)
    pow_high, pow_low = _POW_HIGH[p], _POW_LOW[p]
    low = (mag_high * pow_high - high) + mag_high * pow_low + mag_low * pow_high
    low += mag_low * pow_low
    digits = high.astype(np.int64) + np.rint(low).astype(np.int64)
    zero = values == 0.0
    digits[zero] = 0
    slow = ~(zero | (fast & (digits >= 10**16) & (digits < 10**17)))

    # N = integer 10^p + fraction, the fraction left-aligned in 20 digits
    # being head 10^12 + tail; each is then cut into 4-digit groups.
    divisor = _INT_DIV[p]
    integer = digits // divisor
    fraction = (digits - integer * divisor) * _HEAD_MUL[p]
    divisor = _HEAD_DIV[p]
    head = fraction // divisor
    tail = (fraction - head * divisor) * _TAIL_MUL[p]
    f0, f1 = _quotient(head, 10**4)
    f2, rest = _quotient(tail, 10**8)
    f3, f4 = _quotient(rest, 10**4)
    top = int(integer.max())  # a log10 off by one may add a group it does not need
    groups = sum(top >= 10 ** (4 * n) for n in range(4))
    cell = groups + _CELL_FIXED

    # Each cell as chunks: an integer group is zero-padded after a nonzero
    # group, a fraction group before one; otherwise its zeros are NUL.
    chunks = _chunk_table()
    flag_chunks = 0 if flags is None else 2 * flags.shape[1]
    table = np.empty((rows, width * cell + flag_chunks), np.uint32)
    cells = table[:, : width * cell].reshape(rows, width, cell)
    cells[..., 0] = chunks[_SIGN + np.signbit(values)]
    above = integer  # the integer part above the groups written so far
    for k in range(groups, 1, -1):  # the groups after the first, last first
        above, group = _quotient(above, 10**4)
        cells[..., k] = chunks[group + _PADDED * (above != 0)]
    if groups:
        cells[..., 1] = chunks[above]
    point = groups + 1
    tail_nz = tail != 0
    cells[..., point] = chunks[_POINT + 2 * (integer != 0) + ((head != 0) | tail_nz)]
    cells[..., point + 1] = chunks[f0 + np.where((f1 != 0) | tail_nz, _PADDED, _TRAILING)]
    cells[..., point + 2] = chunks[f1 + np.where(tail_nz, _PADDED, _TRAILING)]
    cells[..., point + 3] = chunks[f2 + np.where(rest != 0, _PADDED, _TRAILING)]
    cells[..., point + 4] = chunks[f3 + np.where(f4 != 0, _PADDED, _TRAILING)]
    cells[..., point + 5] = chunks[f4 + _TRAILING]
    cells[..., -1] = chunks[_SEPARATOR + 1]
    if flags is None:
        cells[:, -1, -1] = chunks[_SEPARATOR + 3]
    else:
        words = table[:, width * cell :].reshape(rows, flags.shape[1], 2)
        words[..., 0] = chunks[_WORD + flags]
        words[..., 1] = chunks[_SEPARATOR + flags]
        words[:, -1, 1] = chunks[_SEPARATOR + 2 + flags[:, -1]]
    if slow.any():
        text = np.array(_percent_texts(values[slow].tolist()), f"S{4 * (cell - 1)}")
        cells[slow, :-1] = text.view(np.uint32).reshape(text.size, cell - 1)
    return table.tobytes().translate(None, b"\0").decode("ascii")
