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
correctly rounded, so they give the same values bit for bit. A line that
``csv`` cannot read is a fault of the same form: a byte that does not
decode, wherever the file is read as text (``first_row``, the C pass, which
then hands the file to the located path, and ``read_rows``), and a cell over
``csv``'s field limit, which only ``csv``'s reader has. ``read_rows`` meets
such a line before ``to_floats`` checks any row, so it is the one named even
when a row above it has a fault of its own.

A table is written one way, by ``write_table``: one ``%`` format per row,
``ROWS_PER_WRITE`` rows at a time. A table of at least ``PARALLEL_CELLS``
cells is cut into W contiguous row blocks of at least half as many cells
each, W from ``runtime._workers`` under the OpenBLAS pin that ``fit`` uses
(one block per usable CPU), and formatted by ``runtime._run_tasks``: this
process streams block 0 into the file while W - 1 ``fork``ed workers each
write one later block into an anonymous temporary file, which this process
then appends in block order, a bounded chunk at a time. Each row is
formatted by the same ``%`` string wherever it runs, so the file holds the
bytes of the single loop, which a smaller table, one usable CPU, a running
thread or a platform without ``fork`` keeps.
"""

from __future__ import annotations

import contextlib
import csv
import math
import shutil
import tempfile
import warnings

import numpy as np

from .exceptions import ValidationError
from .runtime import _one_blas_thread, _run_tasks, _workers

__all__ = ["first_row", "read_columns", "read_rows", "to_floats", "write_table"]

FLOAT_FMT = "%.17g"
# the rows a writer holds as Python objects at once: a whole draw table would
# hold one float object per draw and coefficient
ROWS_PER_WRITE = 64
# the fewest cells of a table formatted in blocks, each of at least half as
# many: 50,000 cells take about 45 ms to format, and starting a forked worker
# from a 150 MB process takes about 7-10 ms (2-core x86-64)
PARALLEL_CELLS = 100_000


def _rows(path, fh):
    """The non-blank rows of the open file ``fh`` as ``csv`` reads them, each
    with its physical line. A line that cannot be read, for a byte that does
    not decode or a cell over ``csv``'s field limit, is a ValidationError
    naming ``path`` and that line."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            if row:
                yield row, reader.line_num
    except csv.Error as err:  # the reader counted the line it failed on
        raise ValidationError(f"{path}: line {reader.line_num}: {err}") from None
    except UnicodeDecodeError as err:  # raised before the reader counts its line
        raise _undecodable(path, err) from None


def _undecodable(path, err: UnicodeDecodeError) -> ValidationError:
    """The fault of a file that does not decode as ``err.encoding``, at the
    physical line of its first undecodable byte: the line breaks before it
    (CRLF, LF or a bare CR, as ``csv`` reads them) plus one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode(err.encoding)
    except UnicodeDecodeError as whole:  # its offset is in the file, err's in a chunk
        err = whole
    head = data[:err.start]
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return ValidationError(f"{path}: line {line}: cannot decode byte "
                           f"0x{err.object[err.start]:02x} as {err.encoding} ({err.reason})")


def first_row(path) -> list[str]:
    """The first non-blank row of a file as ``csv`` reads it, [] if it has none."""
    with open(path, newline="") as fh:
        return next(_rows(path, fh), ([], 0))[0]


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
            next(_rows(path, fh), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on a file without rows
            try:
                table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                   quotechar='"', ndmin=1)
            except (ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
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
    """The non-blank rows of a file and the physical line of each, as two
    lists; a line that cannot be read is the ValidationError of ``_rows``."""
    with open(path, newline="") as fh:
        found = list(_rows(path, fh))
    return [row for row, _ in found], [line for _, line in found]


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


def _write_rows(fh, fmt: str, cols, start: int, stop: int) -> None:
    """Rows ``start`` to ``stop`` of ``cols`` into ``fh``, each formatted by
    ``fmt``, ``ROWS_PER_WRITE`` rows at a time."""
    for first in range(start, stop, ROWS_PER_WRITE):
        cells = [c[first:min(first + ROWS_PER_WRITE, stop)].tolist() for c in cols]
        fh.writelines(fmt % row for row in zip(*cells))


def write_table(path, header: list[str], *columns) -> None:
    """Write ``columns`` under ``header``, one row per entry.

    Each column is a 1-D sequence (a list, tuple or array) of strings,
    integers or floats, written quoted, ``%d`` and ``%.17g``; a 2-D array
    gives one column per column of its own. Each row is formatted with one
    ``%`` string, ``ROWS_PER_WRITE`` rows at a time. A table of at least
    ``PARALLEL_CELLS`` cells is formatted in contiguous row blocks, one per
    worker, as the module docstring says; the bytes are those of one loop.
    """
    cols = [col for c in columns for col in np.atleast_2d(np.transpose(c))]
    fmt = ",".join("%s" if c.dtype.kind == "U" else "%d" if c.dtype.kind in "iu"
                   else FLOAT_FMT for c in cols) + "\r\n"
    cols = [np.array([_quote(s) for s in c.tolist()]) if c.dtype.kind == "U" else c
            for c in cols]
    n = len(cols[0]) if cols else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        if n * len(cols) < PARALLEL_CELLS:
            _write_rows(fh, fmt, cols, 0, n)
            return
        with _one_blas_thread() as pinned, contextlib.ExitStack() as parts:
            workers = _workers(2 * n * len(cols) // PARALLEL_CELLS, pinned)
            ends = [n * i // workers for i in range(workers + 1)]
            # block i > 0 goes to an unnamed file that vanishes when closed
            out = [fh] + [parts.enter_context(tempfile.TemporaryFile("w+", newline=""))
                          for _ in range(1, workers)]
            fh.flush()  # a forked worker holds a copy of what is buffered

            def block(i: int) -> None:
                _write_rows(out[i], fmt, cols, ends[i], ends[i + 1])
                out[i].flush()

            _run_tasks(block, workers, workers)
            for part in out[1:]:
                part.seek(0)
                shutil.copyfileobj(part, fh)
