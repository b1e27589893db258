"""The CSV codec: `blocks` writes every table skymine prints or stores, and
`read` parses every table it reads back.

Cells are Python scalars (`ndarray.tolist()` makes them), on which `%d`,
`%.6f` and `%.9f` give the bytes of f-strings on the numpy values (float32,
2^64-1, nan, inf and -0.0 included). Rows are formatted BLOCK_ROWS at a time,
so a wide query holds one block of Python objects, not its whole result.
"""

from __future__ import annotations

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


def _parses(cell: str, dtype) -> bool:
    try:
        np.array([cell], dtype=dtype)
        return True
    except (ValueError, OverflowError):
        return False


def _parse_column(name: str, dtype: np.dtype, cells) -> np.ndarray:
    """One column of text cells as the field's values: integers exactly and
    within the field's range, floats as float64 as float() parses them
    (assigning them to the field casts them to its width)."""
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        parse, lo, hi = (np.uint64 if dtype.kind == "u" else np.int64), info.min, info.max
        what = f"an integer in [{lo}, {hi}]"
    else:
        parse, lo, hi, what = np.float64, -np.inf, np.inf, "a number"
    try:
        values = np.array(cells, dtype=parse)
        bad = np.flatnonzero((values < lo) | (values > hi))
    except (ValueError, OverflowError):
        bad = [next(i for i, cell in enumerate(cells) if not _parses(cell, parse))]
    if len(bad):
        raise ValidationError(f"record {bad[0]}: {name} {cells[bad[0]]!r} is not {what}")
    return values


def read(csv_text: str, dtype: np.dtype, names=None) -> np.ndarray:
    """Parse CSV whose header is `names` (default: every field of `dtype`)
    into an array of `dtype`; fields not in the CSV are zero. Errors name the
    ordinal of the first bad record (0 is the first row after the header)."""
    names = tuple(dtype.names if names is None else names)
    lines = csv_text.strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != names:
        raise ValidationError(f"expected header {','.join(names)}")
    rows = [line.split(",") for line in lines[1:]]
    for ordinal, vals in enumerate(rows):
        if len(vals) != len(names):
            raise ValidationError(f"record {ordinal}: wrong column count")
    out = np.zeros(len(rows), dtype=dtype)
    columns = zip(*rows) if rows else [()] * len(names)
    for name, cells in zip(names, columns):
        out[name] = _parse_column(name, dtype[name], cells)
    return out
