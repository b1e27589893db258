"""The CSV codec: `blocks` writes every table skymine prints or stores, and
`read` parses every table it reads back.

`blocks` writes each cell as CPython's `%` does, BLOCK_ROWS rows at a time,
so a wide table holds one block of text, never its whole result. A
structured array whose cells are all `%d` on integer fields, `%.Nf`
(N = 1..9) on float fields or `%s` on fixed-width text (`U`) fields is
written by whole-column array passes, with no Python object per row. A
number becomes a decimal integer (a float scaled by 10^N and rounded), cut
into 4-digit pieces whose ASCII bytes come from a table; a text cell is its
UCS-4 code units, one piece per character. A block with a NaN, an infinity,
a float with |x|·10^N >= 2^52, or a text cell that is not ASCII or holds a
NUL before its last character, and every other table (tuples, or other
specs or fields), goes through `%` row by row. The array path is exact because
Dekker's error-free product gives |x|·10^N as p + e with no rounding, so
rint(p), moved by the sign of e where p is exactly halfway, is the
half-even rounded integer that `%` prints; below 2^52 that integer and its
digits are exact.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ValidationError

BLOCK_ROWS = 8192

_CELL = re.compile(r"%[ds]|%\.([1-9])f")

# a piece is 4 decimal digits
_PIECE = 10 ** 4


def _piece_table() -> np.ndarray:
    """Entry f * _PIECE + i: the 4 ASCII digits of i, most significant in the
    lowest byte of a little-endian uint32, with each leading zero a 0 byte
    unless it is one of the last f digits (f = 0..4)."""
    i = np.arange(_PIECE)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    shown = (i >= place) | (np.arange(5)[:, None, None] > np.arange(3, -1, -1))
    return np.where(shown, ord("0") + i // place % 10, 0).astype(np.uint8).view("<u4").ravel()


_PIECES = _piece_table()


def blocks(header: str | None, fmt: str, rows):
    """The header (when given), then the rows as strings of up to BLOCK_ROWS
    lines each, without the final newline. `rows` is a structured array or a
    sequence of tuples."""
    if header is not None:
        yield header
    fields = _array_fields(fmt, rows)
    for lo in range(0, len(rows), BLOCK_ROWS):
        block = rows[lo:lo + BLOCK_ROWS]
        text = _array_block(block, fields) if fields else None
        yield _percent_block(fmt, block) if text is None else text


def _percent_block(fmt: str, block) -> str:
    """The rows of `block` formatted by `%` one row at a time."""
    rows = block.tolist() if isinstance(block, np.ndarray) else block
    return "\n".join([fmt % row for row in rows])


def _array_fields(fmt: str, rows):
    """[(field name, N)] when `rows` is a structured array whose cells under
    `fmt` are each `%d` on an integer field or `%s` on a `U` field (N None),
    or `%.Nf` on a float field of at most 64 bits; else None."""
    names = rows.dtype.names if isinstance(rows, np.ndarray) else None
    specs = fmt.split(",")
    if not names or len(names) != len(specs):
        return None
    fields = []
    for name, spec in zip(names, specs):
        cell, field = _CELL.fullmatch(spec), rows.dtype[name]
        if cell is None:
            return None
        places = None if cell[1] is None else int(cell[1])
        if spec == "%s":
            fits = field.kind == "U"
        elif places is None:
            fits = field.kind in "iu"
        else:
            fits = field.kind == "f" and field.itemsize <= 8
        if not fits:
            return None
        fields.append((name, places))
    return fields


def _scaled(x: np.ndarray, places: int) -> np.ndarray | None:
    """|x| * 10^places rounded half to even to a uint64, exactly as `%` rounds
    it; None unless every |x| * 10^places is below 2^52 (NaN is not)."""
    a, scale = np.abs(x), 10.0 ** places
    with np.errstate(over="ignore"):
        p = a * scale
    if not (p < 2.0 ** 52).all():
        return None
    r = np.rint(p)
    # only where p is halfway between integers can e move the rounding, so
    # e is computed there alone; e == 0 is a true tie, which rint has rounded
    # to even, and where e has the sign of p - r the exact product lies past
    # the tie, away from r, so r moves by 2 (p - r) = +-1
    tie = np.flatnonzero(np.abs(p - r) == 0.5)
    if len(tie):
        a, p = a[tie], p[tie]
        # Dekker's product: a = hi + lo in halves of at most 26 bits, and
        # 10^places has at most 21 significant bits, so p + e == a * 10^places
        # exactly
        c = 134217729.0 * a  # 2^27 + 1
        hi = c - (c - a)
        e = (hi * scale - p) + (a - hi) * scale
        half = p - r[tie]
        r[tie] += np.where(np.sign(e) == np.sign(half), 2.0 * half, 0.0)
    return r.astype(np.uint64)


def _array_block(block: np.ndarray, fields) -> str | None:
    """The rows of `block` as `%` writes them, formatted column by column, or
    None if a float cell is out of `_scaled`'s range or a text cell is not
    ASCII or holds a NUL before its last character.

    Each number becomes a uint64 of its digits: an integer's magnitude, or a
    float's scaled value with its integer part moved up one place, so that
    the 0 left below it can become the point. The cell takes whole 4-byte
    pieces, right-aligned, with room before its digits for the separator and
    a sign. A `U<n>` cell takes one piece for the separator and then its n
    code units, NUL past its end. The pieces of a block are the rows of one
    uint32 array; its transpose holds each text line in order, with 0 bytes
    for padding.
    """
    # (digits, places always shown, negative rows or None, place of the point),
    # or (code units, None, None, None) for text
    cells = []
    for name, places in fields:
        col = block[name]
        if col.dtype.kind == "U":
            codes = np.frombuffer(col.astype(col.dtype.newbyteorder("<")).tobytes(), "<u4")
            codes = codes.reshape(len(col), -1)
            if (codes > 127).any() or ((codes[:, :-1] == 0) & (codes[:, 1:] != 0)).any():
                return None
            cells.append((codes.T, None, None, None))
        elif places is None:
            u = col.astype(np.uint64)
            neg = col < 0 if col.dtype.kind == "i" else None
            if neg is not None:
                np.negative(u, out=u, where=neg)
            cells.append((u, 1, neg, None))
        else:
            x = col.astype(np.float64)
            m = _scaled(x, places)
            if m is None:
                return None
            u = m + m // np.uint64(10 ** places) * np.uint64(9 * 10 ** places)
            cells.append((u, places + 2, np.signbit(x), places))
    widths = [len(u) + 1 if shown is None
              else -(-(max(len(str(int(u.max()))), shown) + 1 + (neg is not None)) // 4)
              for u, shown, neg, _ in cells]
    out = np.empty((sum(widths), len(block)), "<u4")
    first = 0
    for (u, shown, neg, point), width in zip(cells, widths):
        if shown is None:
            out[first] = 0
            out[first + 1:first + width] = u
        else:
            rest = u
            for k in range(width):  # the k-th piece from the right
                above = rest // np.uint64(_PIECE)
                index = (rest - above * np.uint64(_PIECE)).astype(np.intp)
                # the piece's places always shown, or all 4 below a higher
                # digit (no uint64 reaches 10^20)
                forced = min(max(shown - 4 * k, 0), 4)
                index += forced * _PIECE
                if forced < 4 and 4 * k + 4 < 20:
                    index += (u >= np.uint64(10 ** (4 * k + 4))) * ((4 - forced) * _PIECE)
                _PIECES.take(index, out=out[first + width - 1 - k])
                rest = above
        out[first] |= ord(",") if first else ord("\n")
        if neg is not None:
            out[first] |= neg * np.uint32(ord("-") << 8)
        if point is not None:
            out[first + width - 1 - point // 4] ^= (ord("0") ^ ord(".")) << 8 * (3 - point % 4)
        first += width
    return out.T.tobytes().translate(None, b"\0")[1:].decode("ascii")


def text(header: str, fmt: str, rows) -> str:
    """The whole table as CSV text, newline-terminated."""
    return "\n".join(blocks(header, fmt, rows)) + "\n"


def _bad_cell(body, names, dtype, row: int, col: int, parsed: bool) -> ValidationError:
    field, cell = dtype[names[col]], body[row].split(",")[col]
    info = np.iinfo(field) if field.kind in "iu" else None
    what = (f"an integer in [{info.min}, {info.max}]" if info
            else f"a number in {field} range" if parsed else "a number")
    return ValidationError(f"record {row}: {names[col]} {cell!r} is not {what}")


def read(csv_text: str, dtype: np.dtype, names=None) -> np.ndarray:
    """Parse CSV whose header is `names` (default: every field of `dtype`)
    into an array of `dtype`; fields not in the CSV are zero. numpy's C
    reader parses integers exactly, floats as float64 as float() does; each
    must then fit its field. Errors name the first bad record's ordinal (0
    is the first row after the header)."""
    names = tuple(dtype.names if names is None else names)
    lines = csv_text.strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != names:
        raise ValidationError(f"expected header {','.join(names)}")
    body = lines[1:]
    # loadtxt skips empty lines, which would renumber the records after one;
    # a blank in its place is a record of one column, as str.split makes it.
    rows = [line or " " for line in body] if "" in body else body
    wide = [(name, {"u": "<u8", "i": "<i8"}.get(dtype[name].kind, "<f8")) for name in names]
    try:
        values = np.loadtxt(rows, wide, delimiter=",", comments=None, quotechar=None,
                            ndmin=1) if body else np.zeros(0, wide)
    except ValueError as exc:  # "... at row R[, column C]"
        row, col = re.search(r"at row (\d+)(?:, column (\d+))?", str(exc)).groups()
        if col is None:  # a column count error counts lines from 1
            raise ValidationError(f"record {int(row) - 1}: wrong column count") from None
        raise _bad_cell(body, names, dtype, int(row), int(col) - 1, False) from None
    out = np.zeros(len(body), dtype)
    with np.errstate(over="ignore"):
        for name in names:
            out[name] = values[name]
    # an integer must keep its value, and a float may be infinite only if it was
    kept = [out[n] == values[n] if dtype[n].kind in "iu"
            else np.isinf(out[n]) == np.isinf(values[n]) for n in names]
    bad = [(int(np.argmin(k)), col) for col, k in enumerate(kept) if not k.all()]
    if bad:
        raise _bad_cell(body, names, dtype, *min(bad), True)
    return out
