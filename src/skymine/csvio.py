"""The CSV codec: `blocks` writes every table skymine prints or stores, and
`read` parses every table it reads back.

Cells are Python scalars (`ndarray.tolist()` makes them), on which `%d`,
`%.6f` and `%.9f` give the bytes of f-strings on the numpy values (float32,
2^64-1, nan, inf and -0.0 included). Rows are formatted BLOCK_ROWS at a time,
so a wide query holds one block of Python objects, not its whole result.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ValidationError

BLOCK_ROWS = 8192


def blocks(header: str | None, fmt: str, rows):
    """The header (when given), then the rows as strings of up to BLOCK_ROWS
    lines each, without the final newline. `rows` is a structured array or a
    sequence of tuples; a None cell is written empty."""
    if header is not None:
        yield header
    for lo in range(0, len(rows), BLOCK_ROWS):
        block = rows[lo:lo + BLOCK_ROWS]
        block = block.tolist() if isinstance(block, np.ndarray) else block
        try:
            yield "\n".join([fmt % row for row in block])
        except TypeError:  # a None cell: format cell by cell
            specs = fmt.split(",")
            yield "\n".join([",".join(["" if v is None else s % v
                                       for s, v in zip(specs, row, strict=True)])
                             for row in block])


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
