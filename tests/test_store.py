"""Text tables written through ``_store.write_rows``."""

import pytest

from usertopics._store import write_rows


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
