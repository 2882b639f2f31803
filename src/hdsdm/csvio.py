"""The one CSV dialect of the package's files: the data and point-cloud files
it reads, and every table the CLI writes and reads back.

The dialect is ``csv``'s default: comma-separated, header and string cells
quoted as ``csv`` quotes them, lines ending in CRLF. Floats are written
``%.17g``, so they read back bit for bit, and integers ``%d``. A row fault
found while reading is a ValidationError reading ``<file>: line N: <fault>``,
N the physical line of the file, blank lines counted.

A table is read one way, by ``read_columns``: first ``np.loadtxt`` parses
every row in one C pass into a table of one field per column: a float for
each column that is read, the response cell through a converter that maps
``0`` and ``1`` to 0.0 and 1.0 and rejects any other text, and a
one-character string for each column that is not read, so that its cells
parse in C and only count toward the row's width; a line that such a cell
would hide, one holding a NUL or longer than ``csv``'s field limit, fails
the pass. The values are taken when every row has one field per name and
every value read is finite. On any other outcome the file is read again by
``located``, which checks each row as ``csv`` yields it and raises at the
first faulty one, so every fault is named in file order. Both paths parse a
number as Python's ``float`` does, correctly rounded, so they give the same
values bit for bit. A line that ``csv`` cannot read is a fault of the same
form: a NUL, named ``line contains NUL`` on every version as Python 3.10's
``csv`` names it; a byte that does not decode, which ``located`` and
``first_row`` read as an escaped character; and a cell over ``csv``'s field
limit.

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
import re
import shutil
import tempfile
import warnings

import numpy as np

from .exceptions import ValidationError
from .runtime import _one_blas_thread, _run_tasks, _workers

__all__ = ["first_row", "located", "read_columns", "write_table"]

FLOAT_FMT = "%.17g"
# the rows a writer holds as Python objects at once: a whole draw table would
# hold one float object per draw and coefficient
ROWS_PER_WRITE = 64
# the fewest cells of a table formatted in blocks, each of at least half as
# many: 50,000 cells take about 45 ms to format, and starting a forked worker
# from a 150 MB process takes about 7-10 ms (2-core x86-64)
PARALLEL_CELLS = 100_000
# the characters that the "surrogateescape" error handler reads a byte as
ESCAPED = re.compile("[\udc80-\udcff]")


def _rows(path, fh):
    """The non-blank rows of the open file ``fh`` as ``csv`` reads them, each
    with its physical line. A line that cannot be read, for a NUL, a byte
    that does not decode (an escaped character) or a cell over ``csv``'s
    field limit, is a ValidationError naming ``path`` and that line."""
    def lines():
        for line_num, line in enumerate(fh, 1):
            if "\0" in line:  # Python 3.10's csv says so itself; later ones read the line
                raise ValidationError(f"{path}: line {line_num}: line contains NUL")
            yield line

    reader = csv.reader(lines())
    try:
        for row in reader:
            if any(map(ESCAPED.search, row)):
                raise _undecodable(path, fh.encoding)
            if row:
                yield row, reader.line_num
    except csv.Error as err:  # the reader counted the line it failed on
        raise ValidationError(f"{path}: line {reader.line_num}: {err}") from None


def _undecodable(path, encoding: str) -> ValidationError:
    """The fault of a file that does not decode as ``encoding``, at the
    physical line of its first undecodable byte: the line breaks before it
    (CRLF, LF or a bare CR, as ``csv`` reads them) plus one."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode(encoding)
    except UnicodeDecodeError as err:
        head = data[:err.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ValidationError(f"{path}: line {line}: cannot decode byte "
                               f"0x{data[err.start]:02x} as {err.encoding} ({err.reason})")
    raise AssertionError(f"{path} decodes as {encoding}")


def first_row(path) -> list[str]:
    """The first non-blank row of a file as ``csv`` reads it, [] if it has none."""
    with open(path, newline="", errors="surrogateescape") as fh:
        return next(_rows(path, fh), ([], 0))[0]


def _plain_lines(fh):
    """The lines of ``fh``; one holding a NUL or over the field limit is a ValueError."""
    limit = csv.field_size_limit()
    for line in fh:
        if "\0" in line or len(line) > limit:
            raise ValueError("a line that located reads")
        yield line


def read_columns(path, names, take, below_first=True, width_of="the header",
                 response=None) -> list[np.ndarray]:
    """Columns ``take`` (indices into ``names``) of the rows of a file below
    its first non-blank row, or of all its rows if ``below_first`` is false,
    as ``located`` gives them: the values, or the ValidationError of the
    first faulty row.

    The rows are read in one ``np.loadtxt`` pass, as the module docstring
    says: each ``take`` column as a float, the ``response`` column through a
    converter that reads only ``0`` and ``1`` (so ``1.0``, `` 1``, ``+1`` and
    ``01`` are not taken), and each other column as a one-character string.
    Its values are taken when every row has one field per name and every
    value read is finite. Any other file is read again by ``located``.
    """
    unread = [i for i in range(len(names)) if i not in take]
    dtype = [(f"f{i}", "U1" if i in unread else "f8") for i in range(len(names))]
    binary = {} if response is None else {response: {"0": 0.0, "1": 1.0}.__getitem__}
    try:
        with open(path, newline="") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on a file without rows
            if below_first:
                next(_rows(path, fh), None)
            # a one-character cell drops a NUL and cuts a cell over the field limit
            table = np.loadtxt(_plain_lines(fh) if unread else fh, dtype=dtype, delimiter=",",
                               comments=None, quotechar='"', ndmin=1, converters=binary)
    except (ValueError, UserWarning):  # a ValidationError or UnicodeDecodeError too
        pass
    else:
        cols = [np.ascontiguousarray(table[f"f{i}"]) for i in take]
        if all(np.isfinite(c).all() for c in cols):
            return cols
    return located(path, names, take, below_first, width_of, response)


def located(path, names, take, below_first=True, width_of="the header",
            response=None) -> list[np.ndarray]:
    """Columns ``take`` of a file as ``read_columns`` gives them, read one row
    at a time as ``csv`` yields it.

    Every row has one field per name, the cells of column ``response`` (an
    index, if given) are ``0`` or ``1``, and every cell of a ``take`` column
    is a finite number. The first row that is not so, or that ``csv`` cannot
    read, is a ValidationError naming ``path`` and its physical line: its
    field count is checked first, then its ``response`` cell, then each cell
    of ``take`` in order. With no faulty row, the values are returned.
    """
    def fault(message: str) -> ValidationError:
        return ValidationError(f"{path}: line {line}: {message}")

    cols = [[] for _ in take]
    with open(path, newline="", errors="surrogateescape") as fh:
        rows = _rows(path, fh)
        if below_first:
            next(rows, None)
        for row, line in rows:
            if len(row) != len(names):
                raise fault(f"{len(row)} fields, but {width_of} has {len(names)}")
            if response is not None and row[response] not in ("0", "1"):
                raise fault(f"response {names[response]}={row[response]!r} is not binary 0/1")
            for col, i in zip(cols, take):
                try:
                    col.append(float(row[i]))
                except ValueError:
                    raise fault(f"cannot parse {names[i]}={row[i]!r} as a number") from None
                if not math.isfinite(col[-1]):  # float() accepts "nan" and "inf"
                    raise fault(f"{names[i]}={row[i]!r} is not a finite number")
    return [np.array(col, dtype=float) for col in cols]


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
