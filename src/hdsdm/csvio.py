"""The one CSV dialect of the package's files: the data and point-cloud files
it reads, and every table the CLI writes and reads back.

The dialect is ``csv``'s default: comma-separated, header and string cells
quoted as ``csv`` quotes them, lines ending in CRLF. Floats are written
``%.17g``, so they read back bit for bit, and integers ``%d``. A row fault
found while reading is a ValidationError reading ``<file>: line N: <fault>``,
N the physical line of the file, blank lines counted.

A table is read one way, by ``read_columns``: first ``np.loadtxt`` parses
every row in one C pass, where a cell of a column that is not read is only
counted; on any fault, a row it cannot parse or a cell the located path
would reject, the file is read again on the located path, ``read_rows``
then ``to_floats``, which names the first faulty line or returns the
values. Both paths parse a number as Python's ``float`` does,
correctly rounded, so they give the same values bit for bit.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from .exceptions import ValidationError

__all__ = ["first_row", "read_columns", "read_rows", "to_floats", "write_table"]

FLOAT_FMT = "%.17g"
# the rows a writer holds as Python objects at once: a whole draw table would
# hold one float object per draw and coefficient
ROWS_PER_WRITE = 64


def first_row(path) -> list[str]:
    """The first non-blank row of a file as ``csv`` reads it, [] if it has none."""
    with open(path, newline="") as fh:
        return next(filter(None, csv.reader(fh)), [])


def read_columns(path, names, take, below_first=True, width_of="the header",
                 response=None) -> list[np.ndarray]:
    """Columns ``take`` (indices into ``names``) of the rows of a file below
    its first non-blank row, or of all its rows if ``below_first`` is false,
    as ``to_floats`` gives them from ``read_rows``: the values, or the
    ValidationError of the first faulty row.

    The rows are read in one ``np.loadtxt`` pass: the ``response`` column as
    a string of at most two characters, so that ``1.0``, `` 1``, ``+1`` and
    ``01`` stay apart from ``1``, every other ``take`` column as a float,
    and each column outside ``take`` as a one-character string, so that any
    cell there parses and only counts toward the row's width. Its values
    are taken when every row has one field per name, every ``take`` cell is
    finite and every response cell is ``0`` or ``1``. Any other file is read
    again by ``read_rows`` and ``to_floats``.
    """
    dtype = [(f"f{i}", "U2" if i == response else "f8" if i in take else "U1")
             for i in range(len(names))]
    with open(path, newline="") as fh:
        if below_first:
            next(filter(None, csv.reader(fh)), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on a file without rows
            try:
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                   quotechar='"', ndmin=1)
            except (ValueError, UserWarning):
                table = None
    if table is not None and (response is None or _binary(table[f"f{response}"], path)):
        cols = [(table[f"f{i}"] == "1").astype(float) if i == response
                else np.ascontiguousarray(table[f"f{i}"]) for i in take]
        if all(np.isfinite(c).all() for c in cols):
            return cols
    rows, lines = read_rows(path)
    if below_first:
        rows, lines = rows[1:], lines[1:]
    return to_floats(path, rows, lines, names, take, width_of, response)


def _binary(cells: np.ndarray, path) -> bool:
    """Whether every response cell the C pass read is ``0`` or ``1``. A string
    cell drops trailing NULs, so ``1\\0`` reads as ``1``: a file that holds a
    NUL is not taken. A float cell with a NUL does not parse."""
    if not np.isin(cells, ("0", "1")).all():
        return False
    with open(path, "rb") as fh:
        return b"\0" not in fh.read()


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
    is a finite number. The rows are examined in file order, and the first
    faulty one is a ValidationError naming ``path`` and its line from
    ``lines``. With no faulty row, the values are returned.
    """
    for row, line in zip(rows, lines):
        fault = _fault(row, names, take, width_of, response)
        if fault:
            raise ValidationError(f"{path}: line {line}: {fault}")
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
