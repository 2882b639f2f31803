"""The table reader: one ``np.loadtxt`` pass, and the located re-read on any
fault, which must give what ``read_rows`` and ``to_floats`` give."""

import csv
import os
import re
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from hdsdm import csvio, runtime
from hdsdm.exceptions import ValidationError

HEADER = ["present", "sst", "note", "year"]
TAKE = [0, 1, 3]  # "note" is not read


def outcome(read):
    """What a read gives: the columns' bytes, or the error's type and message."""
    try:
        return "values", [(c.dtype.str, c.shape, c.tobytes()) for c in read()]
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err).__name__, str(err)


def located(path, names, take, below_first=True, width_of="the header", response=None):
    rows, lines = csvio.read_rows(path)
    if below_first:
        rows, lines = rows[1:], lines[1:]
    return csvio.to_floats(path, rows, lines, names, take, width_of, response)


def both(path, names=HEADER, take=TAKE, **kw):
    """The outcome of ``read_columns`` and of the located path, which must agree."""
    new = outcome(lambda: csvio.read_columns(path, names, take, **kw))
    old = outcome(lambda: located(path, names, take, **kw))
    assert new == old
    return new


@pytest.fixture
def counted(monkeypatch):
    """The number of located re-reads: 0 when the C pass gave the values."""
    calls = []
    read_rows = csvio.read_rows
    monkeypatch.setattr(csvio, "read_rows", lambda path: calls.append(path) or read_rows(path))
    return calls


def body(*rows, sep="\n"):
    return sep.join([",".join(HEADER), *rows]) + sep


@hyp_settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.data())
def test_written_floats_read_back_bit_for_bit(tmp_path_factory, n, width, data):
    values = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: float("%.17g" % v))
    table = np.array(data.draw(st.lists(st.lists(values, min_size=width, max_size=width),
                                        min_size=n, max_size=n)))
    path = tmp_path_factory.mktemp("t") / "t.csv"
    names = [f"c{i}" for i in range(width)]
    csvio.write_table(path, names, table)
    kind, cols = both(path, names, range(width))
    assert kind == "values"
    assert b"".join(c for _, _, c in cols) == np.ascontiguousarray(table.T).tobytes()


@pytest.mark.parametrize("row, line, fault", [
    ("1.0,0.5,1,2000", 3, "response present='1.0' is not binary 0/1"),
    (" 1,0.5,1,2000", 3, "response present=' 1' is not binary 0/1"),
    ("+1,0.5,1,2000", 3, "response present='+1' is not binary 0/1"),
    ("01,0.5,1,2000", 3, "response present='01' is not binary 0/1"),
    ("2,0.5,1,2000", 3, "response present='2' is not binary 0/1"),
    ("1\0,0.5,1,2000", 3, "response present='1\\x00' is not binary 0/1"),
    ("#1,0.5,1,2000", 3, "response present='#1' is not binary 0/1"),
    ("#,0.5,1,2000", 3, "response present='#' is not binary 0/1"),
    ("1,0.5,1,2000,7", 3, "5 fields, but the header has 4"),
    ("1,0.5,2000", 3, "3 fields, but the header has 4"),
    ("1,nan,1,2000", 3, "sst='nan' is not a finite number"),
    ("1,inf,1,2000", 3, "sst='inf' is not a finite number"),
    ("1,0.5,1,1e400", 3, "year='1e400' is not a finite number"),
    ("1,1d3,1,2000", 3, "cannot parse sst='1d3' as a number"),
    ("1,0x10,1,2000", 3, "cannot parse sst='0x10' as a number"),
    (" ", 3, "1 fields, but the header has 4"),
    ("1,0.5,\udcff,2000", 3, "cannot decode byte 0xff as utf-8 (invalid start byte)"),
    ("1,0.5," + "x" * 200_001 + ",2000,7", 3, "field larger than field limit (131072)"),
], ids=["1.0", "space_1", "plus_1", "01", "2", "nul", "hash", "hash_alone", "long", "short",
        "nan", "inf", "1e400", "1d3", "0x10", "blank_space", "not_utf8", "field_limit"])
def test_the_c_pass_never_accepts_what_the_located_path_rejects(tmp_path, row, line, fault):
    # a row holding "\udcff" is written with the byte 0xff, which is not UTF-8
    path = tmp_path / "t.csv"
    path.write_bytes(body("0,0.25,1,2001", row, "1,0.75,2,2002").encode("utf-8",
                                                                       "surrogateescape"))
    kind, message = both(path, response=0)
    assert (kind, message) == ("ValidationError", f"{path}: line {line}: {fault}")


@pytest.mark.parametrize("text, y, sst", [
    ("\n\n" + body("0,0.5,1,2000", "", "", "1,0.2,2,2001"), [0, 1], [0.5, 0.2]),
    (body("0,0.5,1,2000", "1,0.2,2,2001", sep="\r\n"), [0, 1], [0.5, 0.2]),
    (body("0,0.5,1,2000", "1,0.2,2,2001", sep="\n"), [0, 1], [0.5, 0.2]),
    (body('"0","0.5",1,2000', '1," 0.2 ",2,2001'), [0, 1], [0.5, 0.2]),
], ids=["blank_lines", "crlf", "lf", "quoted"])
def test_sound_files_take_the_c_pass(tmp_path, counted, text, y, sst):
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    kind, cols = both(path, response=0)
    assert kind == "values"
    counted.clear()
    y_read, sst_read, _ = csvio.read_columns(path, HEADER, TAKE, response=0)
    assert not counted
    np.testing.assert_array_equal(y_read, y)
    np.testing.assert_array_equal(sst_read, sst)


def test_a_repeated_header_name_reads_the_column_given(tmp_path, counted):
    # the callers resolve a name to its last column; the reader reads by index
    path = tmp_path / "t.csv"
    path.write_text("y,x,x\n0,1.5,2.5\n1,3.5,4.5\n")
    index = {c: i for i, c in enumerate(["y", "x", "x"])}
    kind, _ = both(path, ["y", "x", "x"], [0, index["x"]], response=0)
    assert kind == "values"
    counted.clear()
    _, x = csvio.read_columns(path, ["y", "x", "x"], [0, index["x"]], response=0)
    assert not counted
    np.testing.assert_array_equal(x, [2.5, 4.5])


def test_a_text_column_that_is_not_read_takes_the_c_pass(tmp_path, counted):
    # its cells are only counted: text, empty, or quoted over a comma or a line break
    path = tmp_path / "t.csv"
    path.write_text(body("0,0.5,cod,2000", "1,0.2,,2001", '0,0.3,"a,b",2002',
                         '1,0.4,"two\nlines",2003', '0,0.1,a"b,2004'))
    kind, _ = both(path, response=0)
    assert kind == "values"
    counted.clear()
    y, sst, year = csvio.read_columns(path, HEADER, TAKE, response=0)
    assert not counted
    np.testing.assert_array_equal(y, [0, 1, 0, 1, 0])
    np.testing.assert_array_equal(year, [2000.0, 2001.0, 2002.0, 2003.0, 2004.0])


@pytest.mark.parametrize("text", ["", "\n\n", "present,sst,note,year\n", "x,y\n\n"],
                         ids=["empty", "blank", "header_only", "header_and_blank"])
def test_a_file_without_rows_gives_empty_columns(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    kind, cols = both(path, response=0)
    assert kind == "values" and all(shape == (0,) for _, shape, _ in cols)


def test_rows_without_a_header_are_all_read(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n0.5,1\n0.25,2\n")
    kind, cols = both(path, ["x", "y"], [0, 1], below_first=False, width_of="a point")
    assert kind == "values" and cols[0][1] == (2,)
    path.write_text("0.5,1\n0.25\n")
    assert both(path, ["x", "y"], [0, 1], below_first=False, width_of="a point") == \
        ("ValidationError", f"{path}: line 2: 1 fields, but a point has 2")


CELLS = ["0", "1", "0.5", "-2", " 1", "1.0", "nan", "inf", "1e400", "1d3", "x", "", '"1"',
         '"0.5"', '"', "#", "\0", "\t", "\xa0", "1_0", '"a,b"', '"a\nb"', '"a\r\nb"', 'a"b',
         '"a""b"', '"1"x', '""', "\r", "\n"]


@hyp_settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(CELLS), min_size=2, max_size=4), max_size=5),
       st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from([None, 0, 1]), st.booleans(),
       st.data())
def test_any_file_reads_as_the_located_path_reads_it(tmp_path_factory, rows, sep, response,
                                                     below_first, data):
    # rows mostly of the header's width, with any cell, blank lines and endings
    names = ["a", "b", "c"]
    take = sorted(data.draw(st.sets(st.sampled_from(range(3)), min_size=1)) |
                  ({response} if response is not None else set()))
    text = sep.join(["a,b,c"] * below_first + [",".join(r) for r in rows])
    text += data.draw(st.sampled_from(["", sep, sep * 2]))
    path = tmp_path_factory.mktemp("t") / "t.csv"
    path.write_text(text, newline="")
    both(path, names, take, below_first=below_first, response=response)


def test_faults_name_the_file_and_line_as_before(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n\n1,2\n\n3,x\n")
    with pytest.raises(ValidationError,
                       match=rf"^{re.escape(str(path))}: line 5: cannot parse b='x' as a number$"):
        csvio.read_columns(path, ["a", "b"], [0, 1])


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("rows_above", [0, 1, 5_000], ids=["header", "first_row", "late"])
def test_a_byte_that_does_not_decode_is_named_at_its_physical_line(tmp_path, sep, rows_above):
    # "\udcff" is written as the byte 0xff; 5,000 rows above put it past the
    # reader's first chunk of text
    if rows_above:
        lines = ["a,b", *["0.5,1"] * rows_above, "", "0.25,\udcff2"]
    else:
        lines = ["a,\udcffb", "", "0.25,2"]
    path = tmp_path / "t.csv"
    path.write_bytes(sep.join(lines).encode("utf-8", "surrogateescape"))
    where = len(lines) if rows_above else 1
    message = f"{path}: line {where}: cannot decode byte 0xff as utf-8 (invalid start byte)"
    reads = [lambda: csvio.read_columns(path, ["a", "b"], [0, 1]),
             lambda: csvio.read_rows(path)]
    if rows_above == 0:  # the byte is in the header, which is all that first_row reads
        reads.append(lambda: csvio.first_row(path))
    for read in reads:
        assert outcome(lambda: [np.asarray(read())]) == ("ValidationError", message)


def table_columns(n):
    """Columns of every kind a writer takes, over ``n`` rows: text that needs
    quoting, integers, floats with the awkward values, and a 2-D block."""
    rng = np.random.default_rng(n)
    floats = rng.standard_normal((n, 30)) * 10.0 ** rng.integers(-300, 300, (n, 30))
    floats[::7, 3] = np.nan
    floats[::11, 4] = -np.inf
    text = [("a,b", 'q"x', "two\nlines", "plain", "")[i % 5] for i in range(n)]
    return [text, np.arange(n) - n // 2, floats, rng.random(n)]


def write(path, columns):
    csvio.write_table(path, ["text", "int"] + [f"f{i}" for i in range(31)], *columns)
    return path.read_bytes()


@pytest.fixture
def pools(monkeypatch):
    """The worker counts ``write_table`` ran its blocks on."""
    seen = []
    run = csvio._run_tasks
    monkeypatch.setattr(csvio, "_run_tasks",
                        lambda task, n, workers: seen.append(workers) or run(task, n, workers))
    return seen


def serially(path, columns):
    """What the single loop writes: a running thread keeps every block here."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        return write(path, columns)
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.mark.parametrize("workers", [2, 3])
def test_a_large_table_is_the_same_bytes_from_workers_as_from_one_process(
        tmp_path, monkeypatch, pools, workers):
    columns = table_columns(3_301)  # 3,301 rows x 33 cells, split unevenly
    one = serially(tmp_path / "one.csv", columns)
    assert pools == [1]
    monkeypatch.setattr(csvio, "_workers", lambda tasks, pinned: workers)
    assert write(tmp_path / "many.csv", columns) == one
    assert pools == [1, workers]
    with open(tmp_path / "many.csv", newline="") as fh:
        assert sum(1 for _ in csv.reader(fh)) == 3_302
    assert sorted(p.name for p in tmp_path.iterdir()) == ["many.csv", "one.csv"]


def test_the_workers_are_those_of_the_machine(tmp_path, pools):
    columns = table_columns(3_031)  # 100,023 cells: the smallest table cut in two
    assert write(tmp_path / "all.csv", columns) == serially(tmp_path / "one.csv", columns)
    pinned = bool(runtime._loaded_openblas())
    assert pools == [runtime._workers(2, pinned), 1]


def test_a_table_below_the_threshold_starts_no_worker(tmp_path, monkeypatch, pools):
    columns = table_columns(3_030)  # 99,990 cells
    monkeypatch.setattr(csvio, "_workers", lambda tasks, pinned: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a worker was forked"))
    write(tmp_path / "t.csv", columns)
    assert pools == []
    assert 3_030 * 33 < csvio.PARALLEL_CELLS <= 3_031 * 33


def test_a_workers_exception_reaches_the_caller_and_leaves_no_part_file(tmp_path,
                                                                        monkeypatch):
    parent = os.getpid()
    write_rows = csvio._write_rows

    def failing(fh, fmt, cols, start, stop):
        if os.getpid() != parent:
            raise ValueError(f"block from row {start} failed")
        write_rows(fh, fmt, cols, start, stop)

    monkeypatch.setattr(csvio, "_write_rows", failing)
    monkeypatch.setattr(csvio, "_workers", lambda tasks, pinned: 2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    (tmp_path / "out").mkdir()
    with pytest.raises(ValueError, match="^block from row 1550 failed$"):
        write(tmp_path / "out" / "t.csv", table_columns(3_100))
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["t.csv"]
    assert not any((tmp_path / "tmp").iterdir())
