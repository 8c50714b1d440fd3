"""CSV rows in numpy: float64 columns with the bytes of "%.17g", others through str.

Every value of a block becomes a fixed-width row of field bytes, NUL where
unused; a block's fields and separators are laid side by side in one uint8
array, and the CSV text is that array with its NULs deleted.  The digits of
a float come from an exact decimal conversion (`format_floats`), checked
value by value against "%.17g" % v in the tests.  The CLI's `_Artifacts.csv`
writes its tables through `block_bytes` and imports this module on its
first table.
"""

from __future__ import annotations

import numpy as np

#: Width of a formatted field: "%.17g" of a float64 has at most 24 bytes.
FIELD = 24

#: Shorter float columns are formatted by Python: format_floats costs about
#: 0.17 ms a call plus 0.2 us a value, Python 1 us a value (2-core Xeon VM).
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


def _pair_table():
    """"00".."99" as two ASCII bytes each (one uint16), then the same 100 pairs
    with their trailing zeros as NUL ("10" -> "1\\0", "00" -> "\\0\\0")."""
    r = np.arange(100)
    pairs = np.stack([r // 10, r % 10], axis=1) + ord("0")
    pairs = np.concatenate([pairs, pairs * np.stack([r > 0, r % 10 > 0], axis=1)])
    return pairs.astype(np.uint8).view(np.uint16).ravel()


_PAIRS = _pair_table()


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
        p = a * _POW10[16 - X]
        ah, al = _split(a)
        bh, bl = _POW10_HI[16 - X], _POW10_LO[16 - X]
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
    """(n, 18) ASCII bytes: "0" and the 17 digits of each N, its trailing zeros as NUL."""
    pairs = np.empty((len(N), 9), np.uint16)
    trailing = np.full(len(N), 100)  # row offset into _PAIRS while all lower digits are 0
    for k in range(8, -1, -1):
        q = N // 100 if k else 0
        r = N - q * 100
        pairs[:, k] = _PAIRS[r + trailing]
        trailing *= r == 0
        N = q
    return pairs.view(np.uint8)


def format_floats(x):
    """(n, FIELD) uint8: the "%.17g" bytes of each float64, NUL where unused.

    Exact conversion (`_decimal17`) for 1e-6 <= |x| < 1e17; every other value
    (0, inf, NaN, subnormals, tiny and huge) is formatted by Python.  The
    values are sorted by decimal exponent X, so each X lays out its digits
    with slices: fixed notation for -4 <= X < 17, otherwise d.ddde-0X; a
    trailing-zero digit is NUL, so it and a bare "." drop out of the row.
    """
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
                f[:, e + 3 : 19] = d[:, e + 2 :]
        elif e >= -4:
            f[:, 1 : 2 - e] = ord("0")
            f[:, 2] = ord(".")
            f[:, 2 - e : 19 - e] = d[:, 1:]
        else:
            f[:, 1] = d[:, 1]
            f[:, 2] = (d[:, 2] > 0) * np.uint8(ord("."))
            f[:, 3:19] = d[:, 2:]
            f[:, 19:23] = np.frombuffer(b"e-%02d" % -e, np.uint8)
    out = np.empty_like(fields)
    out[order] = fields
    rest = np.flatnonzero(~ok)
    out[rest] = _bytes_rows(["%.17g" % v for v in x[rest].tolist()], FIELD)
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
    formatted once and every row gathers its bytes."""

    def __init__(self, values, index):
        self.fields = field_bytes(np.asarray(values))
        self.index = index

    def __len__(self):
        return len(self.index)


def block_bytes(columns, rows: slice) -> bytes:
    """CSV text of `rows` of the columns (numpy arrays or `Lookup`s), one line per row."""
    fields = [c.fields[c.index[rows]] if isinstance(c, Lookup) else field_bytes(c[rows]) for c in columns]
    line = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)), np.uint8)
    at = 0
    for f in fields:
        line[:, at : at + f.shape[1]] = f
        at += f.shape[1] + 1
        line[:, at - 1] = ord(",")
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")
