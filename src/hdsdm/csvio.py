"""The one CSV dialect of the package's files: the data and point-cloud files
it reads, and every table the CLI writes and reads back.

The dialect is ``csv``'s default: comma-separated, header and string cells
quoted as ``csv`` quotes them, lines ending in CRLF. Floats are written
``%.17g``, so they read back bit for bit, and integers ``%d``. A row fault
found while reading is a ValidationError reading ``<file>: line N: <fault>``,
N the physical line of the file, blank lines counted.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .exceptions import ValidationError

__all__ = ["read_rows", "to_floats", "write_table"]

FLOAT_FMT = "%.17g"
# the rows a writer holds as Python objects at once: a whole draw table would
# hold one float object per draw and coefficient
ROWS_PER_WRITE = 64


def read_rows(path) -> tuple[list[list[str]], list[int]]:
    """The non-blank rows of a file and the physical line of each, as two lists."""
    rows, lines = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    return rows, lines


def _fault(row: list[str], names, take, width_of: str, response) -> str | None:
    """The first fault of one row: its field count, then its ``response``
    cell, then each cell of ``take`` in order."""
    if len(row) != len(names):
        return f"{len(row)} fields, but {width_of} has {len(names)}"
    if response is not None and row[response] not in ("0", "1"):
        return f"response {names[response]}={row[response]!r} is not binary 0/1"
    for i in take:
        try:
            number = float(row[i])
        except ValueError:
            return f"cannot parse {names[i]}={row[i]!r} as a number"
        if not math.isfinite(number):  # float() accepts "nan" and "inf"
            return f"{names[i]}={row[i]!r} is not a finite number"
    return None


def to_floats(path, rows, lines, names, take, width_of="the header",
              response=None) -> list[np.ndarray]:
    """Columns ``take`` (indices into ``names``) of ``rows`` as float arrays.

    Every row has one field per name, the cells of column ``response`` (an
    index, if given) are ``0`` or ``1``, and every cell of a ``take`` column
    is a finite number. The columns are converted whole; only when that
    fails are the rows examined in file order, and the first faulty one is a
    ValidationError naming ``path`` and its line from ``lines``. With no
    faulty row, the values are returned.
    """
    if set(map(len, rows)) == {len(names)}:
        table = list(zip(*rows))
        try:
            if response is None or set(table[response]) <= {"0", "1"}:
                # numpy parses each string with Python's float, as _fault does
                cols = [np.array(table[i], dtype=float) for i in take]
                if all(np.isfinite(c).all() for c in cols):
                    return cols
        except ValueError:
            pass
    for row, line in zip(rows, lines):
        fault = _fault(row, names, take, width_of, response)
        if fault:
            raise ValidationError(f"{path}: line {line}: {fault}")
    # no row is faulty: there are none, or numpy rejected a cell float() reads
    return [np.array([float(row[i]) for row in rows]) for i in take]


def _quote(cell: str) -> str:
    """``cell`` as ``csv.writer`` writes it in its default dialect."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_table(path, header: list[str], *columns) -> None:
    """Write ``columns`` under ``header``, one row per entry.

    Each column is a 1-D sequence (a list, tuple or array) of strings,
    integers or floats, written quoted, ``%d`` and ``%.17g``; a 2-D array
    gives one column per column of its own. Each row is formatted with one
    ``%`` string, ``ROWS_PER_WRITE`` rows at a time.
    """
    cols = [col for c in columns for col in np.atleast_2d(np.transpose(c))]
    fmt = ",".join("%s" if c.dtype.kind == "U" else "%d" if c.dtype.kind in "iu"
                   else FLOAT_FMT for c in cols) + "\r\n"
    cols = [np.array([_quote(s) for s in c.tolist()]) if c.dtype.kind == "U" else c
            for c in cols]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for start in range(0, len(cols[0]) if cols else 0, ROWS_PER_WRITE):
            cells = [c[start:start + ROWS_PER_WRITE].tolist() for c in cols]
            fh.writelines(fmt % row for row in zip(*cells))
