"""CSV rows in numpy: float64 columns with the bytes of "%.17g", others through str.

Every value of a block becomes a fixed-width field of bytes, NUL where
unused.  Each column goes straight into its slot of one (rows, width) uint8
row buffer, every field copied as one fixed-size byte item (`_v`), and the
CSV text is that buffer with its NULs deleted.  The digits of a float come
from an exact decimal conversion (`format_floats`), checked value by value
against "%.17g" % v in the tests.  The CLI's `_Artifacts.csv` writes its
tables through `block_bytes` and imports this module on its first table.

Costs on a 2-core Xeon VM, for an 8192-row block of `radiation.csv` (three
`Lookup` columns and one float column, a 67-byte row buffer): 165-270 ns a
row, of which `format_floats` takes 75-125 ns (exponent and digits 40-60 ns
a value) and the NUL-deleting `translate` about 1 ns a buffer byte.
"""

from __future__ import annotations

import functools

import numpy as np

#: Width of a formatted field: "%.17g" of a float64 has at most 24 bytes.
FIELD = 24

#: Shorter float columns are formatted by Python: format_floats costs about
#: 0.14 ms a call plus 0.1 us a value, Python 0.6 us a value (2-core Xeon VM);
#: the two cross at 250 to 300 values.  No byte depends on this choice.
NUMPY_MIN = 200

#: 10^0 .. 10^22, the powers of ten that are exact doubles, each also split
#: into two 26-bit halves for Dekker's product.
_POW10 = np.array([float(10**k) for k in range(23)])


def _split(a):
    """Veltkamp's split: a == hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


@functools.cache
def _quads():
    """"0000".."9999" as four ASCII bytes each (one uint32), then the same
    10^4 groups with their trailing zeros as NUL ("1200" -> "12\\0\\0").
    Built on first use: a process that writes only short tables never needs it."""
    r = np.arange(10**4, dtype=np.uint16)
    quads = np.stack([r // 1000, r // 100 % 10, r // 10 % 10, r % 10], axis=1).astype(np.uint8) + np.uint8(ord("0"))
    shown = np.stack([r > 0, r % 1000 > 0, r % 100 > 0, r % 10 > 0], axis=1)
    return np.concatenate([quads, quads * shown]).view(np.uint32).ravel()


def _decimal17(a):
    """(ok, X, N) for the a > 0 where ok: X is the decimal exponent of a and
    N = a * 10^(16 - X) rounded half-even to an integer, 10^16 <= N < 10^17:
    the digits and exponent "%.17e" prints.

    a * 10^(16 - X) is formed exactly as hi + lo (Dekker 1971), so ok needs
    1e-6 <= a < 1e17: 10^(16 - X) must be an exact double.  With X right, hi
    is an even integer above 2^53 and hi + rint(lo) is the correctly rounded N.
    """
    ok = (a >= 1e-6) & (a < 1e17)
    a = np.where(ok, a, 1.0)
    X = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)  # off by one near 10^k

    def scaled(a, X):
        """p + lo == a * 10^(16 - X) exactly, and the exponent that would put
        it in [1e16, 1e17) if X is off by one."""
        k = 16 - X
        p = a * _POW10.take(k)
        ah, al = _split(a)
        bh, bl = _POW10_HI.take(k), _POW10_LO.take(k)
        lo = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        # p - 10^k is exact near 10^k (Sterbenz): these are the signs of p + lo - 10^k
        return p, lo, X + ((p - 1e17) + lo >= 0) - ((p - 1e16) + lo < 0)

    hi, lo, E = scaled(a, X)
    fix = np.flatnonzero(E - X)
    if len(fix):
        X[fix] = np.clip(E[fix], -6, 16)
        hi[fix], lo[fix], E = scaled(a[fix], X[fix])
        ok[fix] &= E == X[fix]  # else the exponent is outside -6..16
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # N == 10^17 would need a double within 5e-18 (relative) below a power of
    # ten from 1e-5 to 1e17, and there is none; were there, Python formats it.
    ok &= N < 10**17
    return ok, X, N


def _digits(N):
    """(n, 18) ASCII bytes: "0" and the 17 digits of each N, its trailing zeros as NUL.

    N < 10^17 splits into two uint32 halves, and each half into 4-digit groups
    looked up in `_quads()`; the leading digit N // 10^16 is never 0.
    """
    words = np.empty((len(N), 5), np.uint32)  # 2 spare bytes, "0" and the leading digit, 4 groups
    high = N // 10**8
    x = (N - high * 10**8).astype(np.uint32)  # the low 8 digits
    quads = _quads()
    trailing = np.full(len(N), 10**4, np.uint32)  # offset into quads while all lower digits are 0
    for k in range(4, 0, -1):
        if k == 2:
            x = high.astype(np.uint32)  # the leading digit and 8 more
        q = x // 10**4
        r = x - q * 10**4
        words[:, k] = quads.take(r + trailing)
        trailing *= r == 0
        x = q
    text = words.view(np.uint8)[:, 2:]
    text[:, 0] = ord("0")
    text[:, 1] = x.astype(np.uint8) + ord("0")
    return text


def _v(a):
    """The rows of an (n, w) uint8 array whose last axis is contiguous, as n
    items of w bytes: a copy between such views moves whole rows at a time."""
    return a.view(f"V{a.shape[1]}")[:, 0]


def format_floats(x, out=None):
    """The "%.17g" bytes of each float64, NUL where unused, as the rows of
    `out`: (n, FIELD) uint8 with a contiguous last axis, such as a slot of a
    row buffer; a new array if None.  Returns `out`.

    Exact conversion (`_decimal17`) for 1e-6 <= |x| < 1e17; every other value
    (0, inf, NaN, subnormals, tiny and huge) is formatted by Python.  The
    values are sorted by decimal exponent X, so each X lays out its digits
    with slices: fixed notation for -4 <= X < 17, otherwise d.ddde-0X; a
    trailing-zero digit is NUL, so it and a bare "." drop out of the row.
    The sorted rows are then scattered into `out` as items.
    """
    if out is None:
        out = np.empty((len(x), FIELD), np.uint8)
    ok, X, N = _decimal17(np.abs(x))
    order = np.argsort(X.astype(np.int8), kind="stable")  # a radix sort on int8
    digits = _digits(N[order])
    fields = np.zeros((len(x), FIELD), np.uint8)
    fields[:, 0] = (x[order] < 0) * np.uint8(ord("-"))
    counts = np.bincount(X + 6, minlength=23)
    ends = np.cumsum(counts)
    for e, a, b in zip(range(-6, 17), ends - counts, ends):
        if a == b:
            continue
        f, d = fields[a:b], digits[a:b]  # digit i is d[:, i + 1]
        if e >= 0:  # | "0" gives back the zeros of the integer part
            np.bitwise_or(d[:, 1 : e + 2], ord("0"), out=f[:, 1 : e + 2])
            if e < 16:
                f[:, e + 2] = (d[:, e + 2] > 0) * np.uint8(ord("."))
                _v(f[:, e + 3 : 19])[:] = _v(d[:, e + 2 :])
        elif e >= -4:
            _v(f[:, 1 : 2 - e])[:] = np.void(b"0." + b"0" * (-1 - e))
            _v(f[:, 2 - e : 19 - e])[:] = _v(d[:, 1:])
        else:
            f[:, 1] = d[:, 1]
            f[:, 2] = (d[:, 2] > 0) * np.uint8(ord("."))
            _v(f[:, 3:19])[:] = _v(d[:, 2:])
            _v(f[:, 19:23])[:] = np.void(b"e-%02d" % -e)
    items = _v(out)
    items[order] = _v(fields)
    rest = np.flatnonzero(~ok)
    items[rest] = _v(_bytes_rows(["%.17g" % v for v in x[rest].tolist()], FIELD))
    return out


def _bytes_rows(strings, width=None):
    """(n, width) uint8: each string's UTF-8 bytes, NUL-padded."""
    rows = np.array([s.encode() for s in strings], dtype=bytes if width is None else f"S{width}")
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


def field_bytes(column):
    """(n, w) uint8 field bytes of a column: "%.17g" for float64, str otherwise."""
    if column.dtype != np.float64:
        return _bytes_rows(map(str, column.tolist()))
    if len(column) < NUMPY_MIN:
        return _bytes_rows(["%.17g" % v for v in column.tolist()], FIELD)
    return format_floats(column)


class Lookup:
    """A CSV column whose row i is values[index[i]]: each distinct value is
    formatted once, cut to the bytes any value uses, and every row takes
    its item."""

    def __init__(self, values, index):
        fields = field_bytes(np.asarray(values))
        used = np.flatnonzero(fields.any(axis=0))
        span = slice(used[0], used[-1] + 1) if len(used) else slice(0, 1)
        self.items = _v(np.ascontiguousarray(fields[:, span]))
        self.index = index

    def __len__(self):
        return len(self.index)


def _cell(column, rows):
    """`rows` of a column as field items, or as float64 still to be formatted
    into its slot (NUMPY_MIN or more values)."""
    if isinstance(column, Lookup):
        return column.items.take(column.index[rows])
    column = column[rows]
    if column.dtype == np.float64 and len(column) >= NUMPY_MIN:
        return column
    return _v(field_bytes(column))


def block_bytes(columns, rows: slice) -> bytes:
    """CSV text of `rows` of the columns (numpy arrays or `Lookup`s), one line per row."""
    cells = [_cell(c, rows) for c in columns]
    widths = [FIELD if c.dtype == np.float64 else c.itemsize for c in cells]
    line = np.empty((len(cells[0]), sum(widths) + len(widths)), np.uint8)
    at = 0
    for cell, w in zip(cells, widths):
        if cell.dtype == np.float64:
            format_floats(cell, out=line[:, at : at + w])
        else:
            _v(line[:, at : at + w])[:] = cell
        line[:, at + w] = ord(",")
        at += w + 1
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")
