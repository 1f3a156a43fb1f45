"""Columnar session ingest against the row-by-row oracles in oracles.py."""

import csv
import io
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from usertopics import ingest, synth
from usertopics.ingest import (
    PROFILE_METRICS,
    SESSION_COLUMNS,
    ParseError,
    SessionTable,
    build_profile_matrix,
    parse_sessions,
    write_sessions_csv,
)
from usertopics.matrix import matrices_equal

from helpers import make_session
from oracles import parse_sessions_rows, profile_oracle, write_sessions_rows

GOOD_ROW = ("u1", "2014-09-01T10:00:00Z", "120.5", "ap1", "News.Example.com", "isp", "5", "web",
            "1024")

# values that are bad, odd or borderline in at least one column
TOKENS = (
    "", " ", "nan", "inf", "-inf", "-1", "-0", "-0.0", "0", "3.5", " 7 ", "1e400", "1_000",
    "99999999999999999999999", "2014-02-30T00:00:00", "2014-09-01 10:00:00",
    "2014-09-01T10:00:00+08:00", "http://X.example.com:8080/p?q=1", "a b.com", "\ufeffb.com",
    "x.y.co.uk", "HTTPS://", "u2", " u1 ",
)

field_values = st.one_of(st.sampled_from(TOKENS), st.sampled_from(GOOD_ROW))


@st.composite
def session_rows(draw):
    """A good row with some fields replaced, dropped or added."""
    row = list(GOOD_ROW)
    # few users and domains, so that cells collect several sessions
    row[0] = draw(st.sampled_from(["u1", " u2 ", "u3"]))
    row[4] = draw(st.sampled_from(["a.com", "B.com", "www.c.co.uk", "sub.a.com"]))
    # sums of these durations differ by order unless each cell sums exactly
    row[2] = draw(st.sampled_from(["0.1", "0.2", "0.3", "1e16", "1", "120.5"]))
    row[8] = str(draw(st.integers(min_value=0, max_value=5000)))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        row[draw(st.integers(min_value=0, max_value=8))] = draw(field_values)
    width = draw(st.sampled_from([9] * 8 + [0, 1, 8, 10]))
    return (row + ["extra"])[:width]


@st.composite
def session_logs(draw):
    """Text of a session log: header, rows, blank lines, mixed quoting."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SESSION_COLUMNS)
    for row in draw(st.lists(session_rows(), max_size=40)):
        if draw(st.booleans()) and draw(st.booleans()):
            out.write(draw(st.sampled_from(["\n", "  \n", ",\n"])))
        if draw(st.booleans()):
            out.write(",".join(f'"{v}"' for v in row) + "\n")
        else:
            writer.writerow(row)
    return out.getvalue()


def _parse_both(text, *, chunk_rows, **kwargs):
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
        report = parse_sessions(io.StringIO(text), **kwargs)
    records, errors = parse_sessions_rows(io.StringIO(text), **kwargs)
    return report, records, errors


class TestDifferential:
    @given(session_logs(), st.sampled_from([1, 2, 3, 7, 2048]), st.booleans())
    def test_matches_row_by_row_parser_and_aggregator(self, text, chunk_rows, truncate):
        report, records, errors = _parse_both(
            text, chunk_rows=chunk_rows, truncate_domains=truncate
        )
        assert report.errors == errors
        assert report.records.to_records() == records
        assert len(report.records) == len(records)
        for metric in PROFILE_METRICS:
            got = build_profile_matrix(report.records, metric)
            assert matrices_equal(got, profile_oracle(records, metric)), metric

    @given(session_logs(), st.sampled_from([1, 2, 5, 2048]))
    def test_fail_fast_raises_at_first_bad_row(self, text, chunk_rows):
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            try:
                parse_sessions(io.StringIO(text), fail_fast=True)
                got = None
            except ParseError as exc:
                got = str(exc)
        try:
            parse_sessions_rows(io.StringIO(text), fail_fast=True)
            want = None
        except ParseError as exc:
            want = str(exc)
        assert got == want

    def test_bom_file_and_chunk_boundary_errors(self, tmp_path):
        rows = [",".join(GOOD_ROW)] * 5
        rows[1] = rows[1].replace("120.5", "nan")
        rows[4] = rows[4].replace("1024", "-1")
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + ",".join(SESSION_COLUMNS) + "\n\n"
                          + "\n".join(rows) + "\n").encode("utf-8"))
        with mock.patch.object(ingest, "CHUNK_ROWS", 2):
            report = parse_sessions(path)
        records, errors = parse_sessions_rows(path)
        assert [line for line, _ in report.errors] == [4, 7]
        assert report.errors == errors
        assert report.records.to_records() == records

    def test_read_error_after_bad_row_keeps_fail_fast_order(self):
        # the csv field limit trips on line 4; the bad row on line 2 must win
        text = (",".join(SESSION_COLUMNS) + "\n" + ",".join(GOOD_ROW).replace("5,web", "-5,web")
                + "\n" + ",".join(GOOD_ROW) + "\n" + '"' + "x" * 200_000 + '"\n')
        with pytest.raises(ParseError, match="line 2: negative http_requests"):
            parse_sessions(io.StringIO(text), fail_fast=True)
        with pytest.raises(ParseError, match="line 4: field larger than field limit"):
            parse_sessions(io.StringIO(text))

    def test_per_row_verdict_wins_over_a_stricter_column_check(self):
        # a column check that flags a row the record accepts keeps the row
        text = ",".join(SESSION_COLUMNS) + "\n" + ",".join(GOOD_ROW) + "\n"

        def strict(domain):
            raise ValueError("stricter than SessionRecord")

        with mock.patch.object(ingest, "_check_domain", strict):
            report = parse_sessions(io.StringIO(text))
        assert report.errors == []
        assert report.records.to_records() == parse_sessions_rows(io.StringIO(text))[0]


class TestSessionTable:
    def test_records_round_trip(self):
        sessions = [
            make_session(user="b", domain="x.com", bytes=3, t=5, duration=1.5, requests=2),
            make_session(user="a", domain="y.com", bytes=10**30, t=1),
            make_session(user="b", domain="y.com", bytes=0, t=9),
        ]
        table = SessionTable.from_records(sessions)
        assert len(table) == 3
        assert table.to_records() == sessions
        assert table.users == ("b", "a") and table.domains == ("x.com", "y.com")

    def test_empty(self):
        table = SessionTable.from_records([])
        assert len(table) == 0 and table.to_records() == []
        assert build_profile_matrix(table).n_users == 0

    def test_huge_integers_kept_exactly(self):
        text = ",".join(SESSION_COLUMNS) + "\n" + ",".join(
            GOOD_ROW[:8] + ("99999999999999999999999",)) + "\n"
        report = parse_sessions(io.StringIO(text))
        assert report.records.to_records()[0].bytes == 99999999999999999999999
        matrix = build_profile_matrix(report.records)
        assert matrix.data.tolist() == [float(99999999999999999999999)]


class TestWriter:
    # epochs of 0001-01-01T00:00:00 and 9999-12-31T23:59:59 UTC
    FIRST, LAST = -62135596800, 253402300799

    def written(self, tmp_path, sessions, as_table=True):
        """Write records as a table (or as given) and through the row oracle."""
        ours, oracle = tmp_path / "columns.csv", tmp_path / "rows.csv"
        write_sessions_csv(SessionTable.from_records(sessions) if as_table else sessions, ours)
        write_sessions_rows(sessions, oracle)
        assert ours.read_bytes() == oracle.read_bytes()
        return ours.read_text()

    def test_epochs_at_the_datetime_bounds(self, tmp_path):
        sessions = [make_session(t=t) for t in (self.FIRST, -1, 0, self.LAST)]
        text = self.written(tmp_path, sessions)
        assert "0001-01-01T00:00:00+00:00" in text and "9999-12-31T23:59:59+00:00" in text

    @pytest.mark.parametrize("epoch", [FIRST - 1, LAST + 1])
    def test_epoch_outside_the_bounds_raises_like_format_timestamp(self, tmp_path, epoch):
        with pytest.raises(ValueError) as expected:
            ingest.format_timestamp(epoch)
        table = SessionTable.from_records([make_session(t=0), make_session(t=epoch)])
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            write_sessions_csv(table, tmp_path / "s.csv")

    def test_epoch_beyond_int64_raises_like_format_timestamp(self, tmp_path):
        with pytest.raises((ValueError, OverflowError)) as expected:
            ingest.format_timestamp(2**70)
        table = SessionTable.from_records([make_session(t=2**70)])
        assert table.columns["start_time"].dtype == object
        with pytest.raises(expected.type, match=f"^{expected.value}$"):
            write_sessions_csv(table, tmp_path / "s.csv")

    def test_bytes_beyond_int64_written_exactly(self, tmp_path):
        sessions = [make_session(bytes=10**30), make_session(bytes=2**63), make_session(bytes=0)]
        text = self.written(tmp_path, sessions)
        assert [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]] == [
            str(10**30), str(2**63), "0"]

    def test_record_list_accepted(self, tmp_path):
        sessions = [
            make_session(user="b", domain="x.com", t=1409560000, duration=12),
            make_session(user='a "quoted", user', domain="y.com", duration=0.1),
        ]
        text = self.written(tmp_path, sessions, as_table=False)
        assert '"a ""quoted"", user"' in text
        assert parse_sessions(tmp_path / "columns.csv").records.to_records() == [
            make_session(user="b", domain="x.com", t=1409560000, duration=12.0),
            make_session(user='a "quoted", user', domain="y.com", duration=0.1),
        ]


def test_parse_and_aggregate_memory_per_row():
    """Parse plus aggregate stays within a per-row byte budget.

    The columnar path peaks near 190 bytes per row on this log (2,048-row
    chunks, tracemalloc on Python 3); one SessionRecord per row, or string
    columns kept for the whole file, need 700 and more.
    """
    spec = synth.SynthSpec(
        n_topics=4, n_domains=200, n_users=500,
        topic_word=synth.disjoint_topic_word(4, 200),
        sessions_lo=100, sessions_hi=100, sessions_dist="fixed", seed=3,
    )
    sessions, _ = synth.generate(spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sessions.csv"
        write_sessions_csv(sessions, path)
        del sessions
        tracemalloc.start()
        try:
            report = parse_sessions(path)
            matrix = build_profile_matrix(report.records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    n_rows = len(report.records)
    assert n_rows >= 50_000
    assert matrix.n_users == 500
    assert peak / n_rows < 300, f"{peak / n_rows:.0f} bytes per row"
