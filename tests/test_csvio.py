"""The table reader: one ``np.loadtxt`` pass, and the located re-read on any
fault, which must give what ``read_rows`` and ``to_floats`` give."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from hdsdm import csvio
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
], ids=["1.0", "space_1", "plus_1", "01", "2", "nul", "hash", "hash_alone", "long", "short",
        "nan", "inf", "1e400", "1d3", "0x10", "blank_space"])
def test_the_c_pass_never_accepts_what_the_located_path_rejects(tmp_path, row, line, fault):
    path = tmp_path / "t.csv"
    path.write_text(body("0,0.25,1,2001", row, "1,0.75,2,2002"), newline="")
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
