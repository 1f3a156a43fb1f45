"""Text tables written through ``_store.write_rows``."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from usertopics._store import write_rows

# fields of every type the writers pass, and texts that need quoting
FIELDS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(alphabet=st.sampled_from('ab ,"\n\r\t#é'), max_size=5),
)


def test_comments_quoting_line_ends_and_utf8(tmp_path):
    path = tmp_path / "t.txt"
    rows = [("name", "n"), ("a,b", 1), ('say "hi"', 2.5), ("bücher.de", "")]
    assert write_rows(path, rows, comments=("k: 2", "größe")) == path
    assert path.read_bytes() == (
        b"# k: 2\n# gr\xc3\xb6\xc3\x9fe\n"
        b'name,n\n"a,b",1\n"say ""hi""",2.5\nb\xc3\xbccher.de,\n'
    )


def test_space_delimiter_writes_float_reprs(tmp_path):
    path = tmp_path / "t.txt"
    write_rows(str(path), [(0.1, -2e-07, 3.0), ("a b", "c")], delimiter=" ")
    assert path.read_bytes() == b'0.1 -2e-07 3.0\n"a b" c\n'


def test_rows_that_fail_part_way_leave_the_old_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"old\n")

    def rows():
        yield ("new", 1)
        raise RuntimeError("cut short")

    with pytest.raises(RuntimeError, match="cut short"):
        write_rows(path, rows(), comments=("header",))
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]


@given(rows=st.lists(st.lists(FIELDS, max_size=4), max_size=5),
       delimiter=st.sampled_from([",", " "]))
def test_fields_as_csv_writer_writes_them(tmp_path_factory, rows, delimiter):
    """Byte for byte what csv.writer writes when no field holds a CR; with
    one, csv.reader still reads every field back."""
    path = tmp_path_factory.mktemp("rows") / "t.txt"
    write_rows(path, rows, delimiter=delimiter)
    if not any(isinstance(f, str) and "\r" in f for row in rows for f in row):
        expected = io.StringIO()
        csv.writer(expected, delimiter=delimiter, lineterminator="\n").writerows(rows)
        assert path.read_bytes() == expected.getvalue().encode()
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh, delimiter=delimiter)) == [
            ["" if f is None else float.__repr__(f) if isinstance(f, float) else str(f)
             for f in row] for row in rows]


def test_lone_cr_is_quoted_and_reads_back(tmp_path):
    path = tmp_path / "assignments.csv"
    rows = [("user_id", "cluster"), ("a\rb", 0), ("c\r", 1), ("", "")]
    write_rows(path, rows + [("",)])
    assert path.read_bytes() == b'user_id,cluster\n"a\rb",0\n"c\r",1\n,\n""\n'
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [list(map(str, row)) for row in rows] + [[""]]
