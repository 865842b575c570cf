"""CSV text of float and integer columns, byte for byte as csv.writer writes it.

A float is written as its repr and an integer as its str, with CRLF line
ends. write_csv formats whole columns with numpy instead of one Python call
per value: the imaging grid of srmusic music has 3N floats, N = 16M.
A float's 17 digits are a lead digit and four quads of 4 digits, each read
from a table of the text of 0..9999 (digit tables as in Adams, "Ryu", PLDI
2018). A quad whose later quads are all zero is read from a second table in
which its trailing zeros are NUL, and every NUL is dropped from the text.
"""

from __future__ import annotations

import numpy as np

CSV_CHUNK_ROWS = 4096  # rows formatted at once, which bounds the memory taken
REPR_WIDTH = 24  # the longest repr of a double, as in -2.2250738585072014e-308

# Python's repr of a float is the shortest decimal that reads back as the
# same double, and among those the nearest (Steele & White; Gay 1990). It is
# positional, without an exponent, when its leading digit is at 10^-4 to 10^15.
_POW10 = np.array([float(10**k) for k in range(21)])  # each one exact
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# The distances _shortest_mantissa compares are exact doubles, so only exact
# ties decide wrongly; any decision this close to its threshold is left to repr.
_REPR_MARGIN = 1e-9


def _shortest_mantissa(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, e10, exact): repr(a) has the digits of c in [10^16, 10^17), times 10^(e10-16).

    a is positive. With k = 16 - floor(log10 a), V = a*10^k is formed exactly
    as hi + lo (Dekker's product of a and the exact double 10^k) and rounded
    to 17, 16 and 15 significant digits. A candidate reads back as a when it
    lies within the half-ulp h of a, scaled by 10^k (so V/2^53 >= h > V/2^54,
    above 1/2); that interval is symmetric unless a is a power of two. It
    holds at most one 15-digit candidate (their spacing 100 exceeds 2h), so c
    is the nearest 15-digit candidate if that reads back, else the nearest
    16-digit one if that does, else the nearest 17-digit one, which always
    does. Each quantity compared is an exact double: V is a multiple of
    2^(e2+k-53) >= 2^-46, so V - 100 * (c17 // 100) < 100 fits in 53 bits.
    exact is False, and the element must be formatted by repr, outside
    1e-4 <= a < 1e16, for a power of two, for c outside [10^16, 10^17), and
    where a 16- or 17-digit tie or a comparison with h lies within
    _REPR_MARGIN (a 15-digit tie is 50 from V, too far to read back).
    """
    ok = (a >= 1e-4) & (a < 1e16)
    a = np.where(ok, a, 1.0)
    mant, e2 = np.frexp(a)
    k = np.clip(16 - np.floor(np.log10(a)), 1, 20).astype(np.intp)
    p = _POW10[k]
    t = _VELTKAMP * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    whole = np.rint(lo)
    frac = lo - whole  # V = c17 + frac exactly, |frac| <= 1/2
    c17 = hi.astype(np.int64) + whole.astype(np.int64)
    rem100 = c17 % 100
    rem10 = rem100 % 10
    t15 = rem100 + frac  # V - 100 * (c17 // 100)
    t16 = rem10 + frac  # V - 10 * (c17 // 10)
    d15 = np.minimum(np.abs(t15), 100.0 - t15)
    d16 = np.minimum(np.abs(t16), 10.0 - t16)
    h = np.ldexp(p, e2 - 54)
    c = np.where(
        d15 < h,
        c17 - rem100 + 100 * (t15 > 50.0),
        np.where(d16 < h, c17 - rem10 + 10 * (t16 > 5.0), c17),
    )
    margin = _REPR_MARGIN * h
    exact = ok & (mant != 0.5) & (c >= 10**16) & (c < 10**17)
    exact &= (np.abs(np.abs(frac) - 0.5) > _REPR_MARGIN) & (np.abs(t16 - 5.0) > _REPR_MARGIN)
    exact &= (np.abs(d15 - h) > margin) & (np.abs(d16 - h) > margin)
    return c, 16 - k, exact


def _quad_table() -> np.ndarray:
    """The ASCII text of 0..9999 as uint32 words, then of the same with trailing zeros NUL.

    Entry q + 10^4 holds the digits of q up to its last nonzero one, so
    entry 10^4 (q = 0) is four NULs.
    """
    q = np.arange(10**4, dtype=np.uint16)[:, None]  # 16 bits keep the temporaries small
    scale = np.array([1000, 100, 10, 1], dtype=np.uint16)
    text = (q // scale % 10).astype(np.uint8) + ord("0")
    trimmed = np.where(q % (10 * scale) == 0, 0, text)
    return np.concatenate([text, trimmed]).view(np.uint32).ravel()


_QUADS = _quad_table()
_ROW = np.dtype((np.void, REPR_WIDTH))  # one row of text, moved as one item


def _repr_into(x: np.ndarray, out: np.ndarray) -> None:
    """Write repr(float(v)) of each element of x into the rows of out, NUL padded.

    out is a uint8 array of shape (len(x), REPR_WIDTH). c splits once by
    10^8 into two uint32 halves, and each half by 10^4 into quads; with the
    lead digit, the 17 digits fill bytes 7 to 23 of a row. A quad whose
    later quads are all zero is read from the half of _QUADS with trailing
    zeros NUL. Rows are grouped by decimal exponent and each group is laid
    out in place: "0." and zeros go before the digits, or the digits before
    the point move one byte left. The zeros that repr keeps there and right
    after the point, as in 100.0, are restored by OR with '0', which leaves
    a digit as it is. Elements that _shortest_mantissa cannot certify get
    repr itself.
    """
    n = len(x)
    c, e10, exact = _shortest_mantissa(np.abs(x))
    e10 = e10.astype(np.int8)
    order = np.argsort(e10, kind="stable")
    c, e10 = c[order], e10[order]
    top = (c // 10**8).astype(np.uint32)  # the lead digit and 8 digits
    bottom = (c - top.astype(np.int64) * 10**8).astype(np.uint32)
    lead = top // 10**8
    top -= lead * np.uint32(10**8)
    words = np.empty((n, REPR_WIDTH // 4), dtype=np.uint32)
    words[:, :2] = 0
    trim = np.full(n, 10**4, dtype=np.uint32)  # _QUADS offset while the later quads are 0
    for j, half in ((5, bottom), (3, top)):
        high = half // 10**4
        low = half - high * np.uint32(10**4)
        words[:, j] = _QUADS.take(low + trim)
        trim *= low == 0
        words[:, j - 1] = _QUADS.take(high + trim)
        trim *= high == 0
    text = words.view(np.uint8)
    text[:, 7] = lead + ord("0")
    bounds = np.searchsorted(e10, np.arange(-4, 17))
    for e, lo, hi in zip(range(-4, 16), bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        group = text[lo:hi]
        if e < 0:
            group[:, 6 + e:7] = ord("0")  # "0." and -e-1 zeros
        else:
            np.bitwise_or(group[:, 7:8 + e], ord("0"), out=group[:, 6:7 + e])
            group[:, 8 + e] |= ord("0")
        group[:, 7 + e] = ord(".")
    out.view(_ROW)[order] = text.view(_ROW)
    out[:, 0] = np.where(x < 0, ord("-"), 0)
    slow = np.flatnonzero(~exact)
    if len(slow):
        reprs = np.array([repr(v) for v in x[slow].tolist()], dtype=f"S{REPR_WIDTH}")
        out[slow] = reprs.view(np.uint8).reshape(len(slow), REPR_WIDTH)


def write_csv(path, header: str, columns: list[np.ndarray]) -> None:
    """Write columns as CSV rows with CRLF line ends, as csv.writer writes them.

    A float column holds repr of its values, an integer column str. The
    header names one field per column, and the columns have one length.
    """
    if len(header.split(",")) != len(columns):
        raise ValueError(f"header {header!r} does not name {len(columns)} columns")
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    fields = [
        col.astype("S") if col.dtype.kind in "iu" else np.asarray(col, dtype=float)
        for col in columns
    ]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for lo in range(0, len(fields[0]), CSV_CHUNK_ROWS):
            fh.write(_csv_rows([f[lo:lo + CSV_CHUNK_ROWS] for f in fields]))


def _csv_rows(fields: list[np.ndarray]) -> bytes:
    """CSV text of rows from bytes ("S") and float fields.

    Each field fills a fixed-width, NUL-padded block of one uint8 array,
    followed by its separator; the NULs are dropped once, at the end.
    """
    n = len(fields[0])
    widths = [f.itemsize if f.dtype.kind == "S" else REPR_WIDTH for f in fields]
    rows = np.zeros((n, sum(widths) + len(fields) + 1), dtype=np.uint8)
    start = 0
    for field, width in zip(fields, widths):
        block = rows[:, start:start + width]
        if field.dtype.kind == "S":
            block[:] = field.view(np.uint8).reshape(n, width)
        else:
            _repr_into(field, block)
        rows[:, start + width] = ord(",")
        start += width + 1
    rows[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return rows[rows != 0].tobytes()
