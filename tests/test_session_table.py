"""Columnar session ingest against the row-by-row oracles in oracles.py."""

import csv
import io
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from usertopics import ingest, synth
from usertopics.ingest import (
    PROFILE_METRICS,
    RAW_EVENT_COLUMNS,
    SESSION_COLUMNS,
    _STRING_FIELDS,
    ParseError,
    SessionTable,
    build_profile_matrix,
    parse_raw_events,
    parse_sessions,
    sessionize,
    write_sessions_csv,
)

from helpers import (
    field_size_limit,
    make_event,
    make_session,
    session_table,
    text_stream,
    write_row,
)
from oracles import (
    SessionRecord,
    matrices_equal,
    parse_sessions_rows,
    parse_side_rows,
    profile_oracle,
    to_records,
    write_sessions_rows,
)

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


# location, isp and service_class, and texts for them that the parser must not
# read: quotes and a delimiter, line endings, control characters, non-ASCII, nothing
UNREAD_COLUMNS = (3, 5, 7)
UNREAD_TEXTS = ('say "hi", twice', "lab\r\nwing\n", "\x00\x01\x1b\x7f\x85", "Zürich 東京",
                "", "   ", "\ufeff\u200b")

# values csv.writer quotes: every delimiter, a quote, an empty field, each line ending
QUOTED_VALUES = ("x,y", "x;y", "x\ty", "x|y", 'say "hi"', "", "two\nlines", "two\r\nlines",
                 "two\rlines")
DELIMITERS = (",", ";", "\t", "|")
LINE_ENDINGS = ("\n", "\r\n", "\r")


@st.composite
def session_logs(draw):
    """(text, delimiter) of a session log: header, rows, blank and
    whitespace-only lines, LF, CRLF and CR line endings, and quoting in no
    row, in one row or in any row, with quoted fields that hold a delimiter,
    a quote or a line ending."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    quoting = draw(st.sampled_from(["none", "one", "any"]))
    rows = draw(st.lists(session_rows(), max_size=40))
    quoted_row = draw(st.integers(min_value=0, max_value=max(len(rows) - 1, 0)))
    out = io.StringIO()
    write_row(out, SESSION_COLUMNS, delimiter, draw(st.sampled_from(LINE_ENDINGS)))
    for i, row in enumerate(rows):
        ending = draw(st.sampled_from(LINE_ENDINGS))
        if draw(st.booleans()) and draw(st.booleans()):
            out.write(draw(st.sampled_from(["", "  ", delimiter])) + ending)
        quoted = quoting == "any" or (quoting == "one" and i == quoted_row)
        if quoted and row and draw(st.booleans()):
            row = list(row)
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(
                st.sampled_from(QUOTED_VALUES))
        write_row(out, row, delimiter, ending, quoted and draw(st.booleans()))
    return out.getvalue(), delimiter


def _outcome(parse, text, newline="", **kwargs):
    """(errors, records) of a parse, or the message of the ParseError it raised."""
    try:
        return parse(text_stream(text, newline), **kwargs)
    except ParseError as exc:
        return str(exc)


def _columnar(source, **kwargs):
    report = parse_sessions(source, **kwargs)
    return report.errors, to_records(report.records)


def _rows(source, **kwargs):
    records, errors = parse_sessions_rows(source, **kwargs)
    return errors, records


def _parse_both(text, *, chunk_rows, **kwargs):
    """The outcome of parse_sessions with ``chunk_rows`` and of the row-by-row oracle."""
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
        got = _outcome(_columnar, text, **kwargs)
    return got, _outcome(_rows, text, **kwargs)


def log_text(rows, delimiter=",", ending="\n"):
    out = io.StringIO()
    for row in (SESSION_COLUMNS, *rows):
        write_row(out, row, delimiter, ending)
    return out.getvalue()


class TestDifferential:
    @settings(max_examples=150)
    @given(session_logs(), st.sampled_from([1, 2, 3, 7, 2048]), st.booleans(),
           st.sampled_from([None, 25, 60]), st.sampled_from(["", "\n", "\r"]))
    def test_matches_row_by_row_parser_and_aggregator(
        self, log, chunk_rows, truncate, limit, newline
    ):
        # a csv field limit below the line length sends chunks through csv.reader,
        # one below the longest field makes it fail
        text, delimiter = log
        with field_size_limit(limit or csv.field_size_limit()):
            got, want = _parse_both(
                text, chunk_rows=chunk_rows, delimiter=delimiter, truncate_domains=truncate,
                newline=newline,
            )
        assert got == want
        if isinstance(got, str):
            return
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            report = parse_sessions(
                text_stream(text, newline), delimiter=delimiter, truncate_domains=truncate
            )
        table = report.records
        assert len(table) == len(want[1])
        assert sum(report.errors_by_code.values()) == report.n_errors == len(want[0])
        for metric in PROFILE_METRICS:
            got = build_profile_matrix(table, metric)
            assert matrices_equal(got, profile_oracle(want[1], metric)), metric

    @given(session_logs(), st.sampled_from([1, 2, 5, 2048]))
    def test_fail_fast_raises_at_first_bad_row(self, log, chunk_rows):
        text, delimiter = log
        got, want = _parse_both(
            text, chunk_rows=chunk_rows, delimiter=delimiter, fail_fast=True
        )
        assert got == want

    def test_quoted_line_ending_across_a_chunk_boundary(self):
        rows = [list(GOOD_ROW) for _ in range(6)]
        rows[1][0] = "lab\r\nwing\nb"  # record 3 spans lines 3-5
        rows[3][8] = "-1"
        text = log_text(rows)
        for chunk_rows in (1, 2, 3, 4):
            got, want = _parse_both(text, chunk_rows=chunk_rows)
            assert got == want
        assert got[0] == [(5, "negative bytes: -1")]
        assert got[1][1].user_id == "lab\r\nwing\nb"

    def test_line_over_the_field_limit_in_the_third_chunk(self):
        rows = [list(GOOD_ROW) for _ in range(7)]
        rows[1][6] = "-5"
        rows[5][3] = "x" * (csv.field_size_limit() + 1)  # record 7, in chunk 3 of 2 rows each
        text = log_text(rows)
        for fail_fast in (False, True):
            got, want = _parse_both(text, chunk_rows=2, fail_fast=fail_fast)
            assert got == want
        assert got == "line 3: negative http_requests: -5"
        assert _parse_both(text, chunk_rows=2)[0] == (
            "line 7: field larger than field limit (131072)")
        before = log_text(rows[:5])
        got, want = _parse_both(before, chunk_rows=2)
        assert got == want and len(got[1]) == 4

    def test_bytes_that_are_not_utf8_in_a_later_chunk(self, tmp_path):
        rows = [list(GOOD_ROW) for _ in range(400)]
        rows[228][6] = "-5"  # record 230, in the chunk that meets the bad block
        path = tmp_path / "latin1.csv"
        lines = log_text(rows).encode("utf-8").split(b"\n")
        lines[330] = lines[330].replace(b"ap1", b"caf\xe9")
        path.write_bytes(b"\n".join(lines))
        messages = []
        for fail_fast in (False, True):
            with mock.patch.object(ingest, "CHUNK_ROWS", 64):
                with pytest.raises(ParseError) as got:
                    parse_sessions(path, fail_fast=fail_fast)
            with pytest.raises(ParseError) as want:
                parse_sessions_rows(path, fail_fast=fail_fast)
            assert str(got.value) == str(want.value)
            messages.append(str(got.value))
        # the decoder reads 8 KiB blocks: the error names the first line of the bad block
        line = int(messages[0].split(":")[0].removeprefix("line "))
        assert 230 < line <= 2 + 4 * 64 and "can't decode byte 0xe9" in messages[0]
        assert messages[1] == "line 230: negative http_requests: -5"
        got, want = _parse_both(log_text(rows[: line - 2]), chunk_rows=64)
        assert got == want and got[0] == [(230, "negative http_requests: -5")]

    def test_field_over_the_limit_before_undecodable_bytes_in_one_chunk(self, tmp_path):
        rows = [list(GOOD_ROW) for _ in range(300)]
        rows[3][3] = "x" * (csv.field_size_limit() + 1)
        lines = log_text(rows).encode("utf-8").split(b"\n")
        lines[250] = lines[250].replace(b"ap1", b"caf\xe9")
        path = tmp_path / "both.csv"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError) as got:
            parse_sessions(path)
        with pytest.raises(ParseError) as want:
            parse_sessions_rows(path)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "line 5: field larger than field limit (131072)"

    def test_bom_file_with_quotes_in_the_second_chunk(self, tmp_path):
        rows = [list(GOOD_ROW) for _ in range(6)]
        rows[4][0] = 'user "x", inc'
        rows[5][2] = "nan"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + log_text(rows, ending="\r\n").encode("utf-8"))
        with mock.patch.object(ingest, "CHUNK_ROWS", 3):
            got = _columnar(path)
        assert got == _rows(path)
        assert got[0] == [(7, "non-finite duration: nan")]
        assert got[1][4].user_id == 'user "x", inc'

    def test_unread_columns_are_unread(self):
        """Any text in location, isp and service_class parses as blank ones do."""
        rows = [list(GOOD_ROW) for _ in range(14)]
        rows[2][8] = "-1"
        rows[5][0] = " "
        rows[8] = rows[8][:8]
        rows[11][4] = "a b.com"
        rows[12][1] = "2014-02-30T00:00:00"
        filled, blank = [list(row) for row in rows], [list(row) for row in rows]
        for i, row in enumerate(filled):
            for k in UNREAD_COLUMNS:
                if k < len(row):
                    row[k] = UNREAD_TEXTS[(i + k) % len(UNREAD_TEXTS)]
                    blank[i][k] = ""
        for chunk_rows in (1, 2, 2048):
            with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
                got, want = (parse_sessions(io.StringIO(log_text(r))) for r in (filled, blank))
            assert got.errors == want.errors and len(got.errors) == 5
            assert got.records.vocab == want.records.vocab
            assert got.records.columns.keys() == want.records.columns.keys()
            for name, column in got.records.columns.items():
                assert column.dtype == want.records.columns[name].dtype
                assert column.tobytes() == want.records.columns[name].tobytes(), name

    def test_entirely_quoted_log(self):
        out = io.StringIO()
        rows = [GOOD_ROW, GOOD_ROW[:8], GOOD_ROW]
        for row in (SESSION_COLUMNS, *rows):
            write_row(out, row, ",", quote_all=True)
        for chunk_rows in (1, 2, 2048):
            got, want = _parse_both(out.getvalue(), chunk_rows=chunk_rows)
            assert got == want
        assert got[0] == [(3, "expected 9 fields, got 8")] and len(got[1]) == 2

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
        assert to_records(report.records) == records

    def test_read_error_after_bad_row_keeps_fail_fast_order(self):
        # the csv field limit trips on line 4; the bad row on line 2 must win
        text = (",".join(SESSION_COLUMNS) + "\n" + ",".join(GOOD_ROW).replace("5,web", "-5,web")
                + "\n" + ",".join(GOOD_ROW) + "\n" + '"' + "x" * 200_000 + '"\n')
        with pytest.raises(ParseError, match="line 2: negative http_requests"):
            parse_sessions(io.StringIO(text), fail_fast=True)
        with pytest.raises(ParseError, match="line 4: field larger than field limit"):
            parse_sessions(io.StringIO(text))

    @given(session_logs(), st.sampled_from([1, 3, 2048]))
    def test_vocabularies_sorted_over_accepted_rows(self, log, chunk_rows):
        # a value seen only in a rejected row is left out
        text, delimiter = log
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            table = parse_sessions(text_stream(text), delimiter=delimiter).records
        records = to_records(table)
        for name, values in table.vocab.items():
            assert values == tuple(sorted({getattr(r, name) for r in records})), name


# the least integer float() rounds to inf
FLOAT64_OVERFLOW = 2**1024 - 2**970

# per check code, a session-log row that fails that check alone: (column, text)
# replaced in GOOD_ROW, or a width
ONE_FAULT = {
    "field_count": 8,
    "bad_timestamp": (1, "2014-02-30T00:00:00"),
    "bad_duration": (2, "abc"),
    "bad_http_requests": (6, "1.5"),
    "bad_bytes": (8, "1e3"),
    "non_finite_duration": (2, "nan"),
    "negative_duration": (2, "-0.5"),
    "negative_bytes": (8, "-1"),
    "negative_http_requests": (6, "-5"),
    "bytes_beyond_float64": (8, str(FLOAT64_OVERFLOW)),
    "http_requests_beyond_float64": (6, "9" * 400),
    "bad_domain": (4, "a b.com"),
    "empty_user_id": (0, " "),
}


def _with(row, *faults):
    row = list(row)
    for column, text in faults:
        row[column] = text
    return row


class TestRowChecks:
    """One code per check; a row's error is the first check it fails."""

    def test_every_code_has_a_case(self):
        codes = ["field_count", *(code for code, *_ in ingest._ROW_CHECKS)]
        assert list(ONE_FAULT) == codes

    @pytest.mark.parametrize("code", list(ONE_FAULT))
    def test_row_failing_one_check(self, code):
        fault = ONE_FAULT[code]
        row = GOOD_ROW[:fault] if isinstance(fault, int) else _with(GOOD_ROW, fault)
        text = log_text([GOOD_ROW, row])
        report = parse_sessions(io.StringIO(text))
        records, errors = parse_sessions_rows(io.StringIO(text))
        assert len(errors) == 1 and errors[0][0] == 3
        assert report.errors == errors
        assert report.errors_by_code == {code: 1}
        assert to_records(report.records) == records

    @pytest.mark.parametrize(
        "faults, code, message",
        [
            (((2, "nan"), (8, "-5")), "non_finite_duration", "non-finite duration: nan"),
            (((1, "bad"), (0, "")), "bad_timestamp", "Invalid isoformat string: 'bad'"),
            (((8, "-1"), (6, "-1"), (4, "")), "negative_bytes", "negative bytes: -1"),
        ],
        ids=["nan-duration-and-negative-bytes", "bad-timestamp-and-blank-user",
             "negative-bytes-requests-and-empty-domain"],
    )
    def test_first_failed_check_names_the_row(self, faults, code, message):
        text = log_text([_with(GOOD_ROW, *faults)])
        report = parse_sessions(io.StringIO(text))
        assert report.errors == parse_sessions_rows(io.StringIO(text))[1] == [(2, message)]
        assert report.errors_by_code == {code: 1}

    def test_raw_event_converts_bytes_before_http_requests(self):
        text = "user_id,timestamp,domain,bytes,http_requests\nu1,2014-09-01T10:00:00Z,a.com,x,y\n"
        report = parse_raw_events(io.StringIO(text))
        _, errors, _ = parse_side_rows(RAW_EVENT_COLUMNS, io.StringIO(text))
        assert report.errors == errors == [(2, "invalid literal for int() with base 10: 'x'")]
        assert report.errors_by_code == {"bad_bytes": 1}

    def test_float64_boundary_in_a_session_log(self):
        rows = [_with(GOOD_ROW, (8, str(n))) for n in (FLOAT64_OVERFLOW - 1, FLOAT64_OVERFLOW)]
        report = parse_sessions(io.StringIO(log_text(rows)))
        assert [r.bytes for r in to_records(report.records)] == [FLOAT64_OVERFLOW - 1]
        assert report.errors == [(3, "bytes beyond the float64 range: 309 digits")]
        assert report.errors_by_code == {"bytes_beyond_float64": 1}

    def test_float64_boundary_in_a_merged_session(self):
        half = FLOAT64_OVERFLOW // 2
        below = [make_event(t=0, bytes=half), make_event(t=60, bytes=half - 1)]
        (session,) = to_records(sessionize(session_table(below)))
        assert session.bytes == FLOAT64_OVERFLOW - 1
        at = [make_event(t=0, bytes=half), make_event(t=60, bytes=half)]
        with pytest.raises(ParseError) as exc:
            sessionize(session_table(at))
        assert str(exc.value) == ("session of user 'u1' on domain 'example.com': "
                                  "bytes beyond the float64 range: 309 digits")


# one canonical UTC form per width: naive, "Z", "+00:00"
CANONICAL_SUFFIXES = ("", "Z", "+00:00")
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                    "\u0665\u0666\u0667\u0668\u0669")
# values parse_timestamps must hand to parse_timestamp, made from a canonical one
ODD_TIMESTAMPS = (
    lambda t: t[:19] + "+05:30",
    lambda t: t[:19] + "-00:00",
    lambda t: t[:19] + ".5" + t[19:],
    lambda t: t[:19] + ".123456",
    lambda t: t.replace("T", " ", 1),
    lambda t: t.replace("T", "t", 1),
    lambda t: f" {t} ",
    lambda t: t.translate(ARABIC_INDIC_DIGITS),
    lambda t: t[:19] + "Z" if t.endswith("+00:00") else t[:19] + "+00:00",
    lambda t: t.replace(t[12], "x", 1),
    lambda t: t[:-1],
    lambda t: "",
)


@st.composite
def timestamp_columns(draw):
    """A start_time column: canonical texts of one width or of mixed widths,
    field values beyond their ranges, and now and then an odd value or
    another width."""
    suffix = draw(st.sampled_from(CANONICAL_SUFFIXES))
    mixed = draw(st.booleans())
    texts = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        year, month, day, hour, minute, second = (
            draw(st.integers(min_value=0, max_value=hi)) for hi in (9999, 13, 32, 24, 60, 60))
        if mixed:
            suffix = draw(st.sampled_from(CANONICAL_SUFFIXES))
        text = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}{suffix}"
        if draw(st.integers(min_value=0, max_value=7)) == 0:
            text = draw(st.sampled_from(ODD_TIMESTAMPS))(text)
        texts.append(text)
    return texts


class TestTimestampCodec:
    @given(timestamp_columns())
    def test_matches_parse_timestamp(self, texts):
        epochs, rejected = ingest.parse_timestamps(texts)
        assert epochs.dtype == np.int64
        for text, epoch, flag in zip(texts, epochs.tolist(), rejected.tolist()):
            try:
                want = ingest.parse_timestamp(text)
            except ValueError:
                assert flag, text
            else:
                assert not flag and epoch == want, text

    @given(timestamp_columns())
    def test_session_log_errors_match_the_row_parser(self, texts):
        rows = [(GOOD_ROW[0], text, *GOOD_ROW[2:]) for text in texts]
        got, want = _parse_both(log_text(rows), chunk_rows=5)
        assert got == want

    @pytest.mark.parametrize("suffix", CANONICAL_SUFFIXES)
    def test_february_29(self, suffix):
        texts = [f"{year}-02-29T23:59:59{suffix}" for year in (1900, 2000, 2023, 2024)]
        epochs, rejected = ingest.parse_timestamps(texts)
        assert rejected.tolist() == [True, False, True, False]
        assert epochs.tolist() == [0, 951868799, 0, 1709251199]

    def test_canonical_column_skips_parse_timestamp(self):
        texts = ["0001-01-01T00:00:00Z", "1969-12-31T23:59:59Z", "9999-12-31T23:59:59Z",
                 "2000-02-29T00:00:00Z", "2024-02-29T00:00:00Z", "2023-04-30T00:00:00Z"]
        with mock.patch.object(ingest, "parse_timestamp", side_effect=AssertionError):
            epochs, rejected = ingest.parse_timestamps(texts)
        assert epochs.tolist() == [-62135596800, -1, 253402300799,
                                   951782400, 1709164800, 1682812800]
        assert not rejected.any()

    def test_only_the_odd_value_goes_through_parse_timestamp(self):
        # 2,047 canonical values of all three widths, then one empty string
        texts = [f"2014-09-01T10:00:{i % 60:02d}{CANONICAL_SUFFIXES[i % 3]}"
                 for i in range(2047)] + [""]
        with mock.patch.object(ingest, "parse_timestamp",
                               wraps=ingest.parse_timestamp) as spy:
            epochs, rejected = ingest.parse_timestamps(texts)
        assert spy.call_count == 1
        assert rejected.tolist() == [False] * 2047 + [True]
        assert epochs.tolist() == [1409565600 + i % 60 for i in range(2047)] + [0]

    def test_format_matches_isoformat(self):
        """200,000 random epochs over the datetime range, its bounds, -1 and 0,
        and the first and last second of every Feb 28, Feb 29 and Mar 1 of
        five century years, leap and not."""
        rng = np.random.default_rng(30)
        days = [datetime(year, 2, 28, tzinfo=timezone.utc) + timedelta(days=d)
                for year in (1600, 1700, 1900, 2000, 2100) for d in range(3)]
        edges = [int(day.timestamp()) + second for day in days for second in (0, 86399)]
        epochs = np.concatenate([rng.integers(TestWriter.FIRST, TestWriter.LAST, 200_000,
                                              endpoint=True),
                                 [TestWriter.FIRST, TestWriter.LAST, -1, 0], edges])
        with mock.patch.object(ingest, "format_timestamp", side_effect=AssertionError):
            texts = ingest.format_timestamps(epochs)
        assert texts == [datetime.fromtimestamp(e, tz=timezone.utc).isoformat()
                         for e in epochs.tolist()]
        assert ingest.format_timestamps(np.array([], dtype=np.int64)) == []


def test_quote_free_log_is_split_without_csv_reader(tmp_path):
    """A written log takes the str.split path, and its timestamps the codec."""
    spec = synth.SynthSpec(
        n_topics=2, n_domains=20, n_users=30, topic_word=synth.disjoint_topic_word(2, 20),
        sessions_lo=20, sessions_hi=20, universal_domain="portal.example", seed=5,
    )
    sessions, truth = synth.generate(spec)
    path = tmp_path / "sessions.csv"
    write_sessions_csv(sessions, path, truth.log_text())
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    lines[100] = lines[100].replace(",web,", ',"web",')
    logs = {"quoted.csv": "".join(lines), "crlf.csv": text.replace("\n", "\r\n"),
            "cr.csv": text.replace("\n", "\r")}
    for name, content in logs.items():
        (tmp_path / name).write_bytes(content.encode("utf-8"))
    real_reader = csv.reader
    line_counts = {}
    for log in [path, *(tmp_path / name for name in logs)]:
        readers = []

        def spy(*args, **kwargs):
            readers.append(real_reader(*args, **kwargs))
            return readers[-1]

        with mock.patch.object(ingest.csv, "reader", spy), \
                mock.patch.object(ingest, "parse_timestamp", side_effect=AssertionError), \
                mock.patch.object(ingest, "CHUNK_ROWS", 64):
            got = _columnar(log)
        assert got == _rows(log)
        line_counts[log.name] = [reader.line_num for reader in readers]
    # the header, then for the quoted log the one chunk that holds line 101
    assert line_counts == {"sessions.csv": [1], "quoted.csv": [1, 64], "crlf.csv": [1],
                           "cr.csv": [1]}


class TestSessionTable:
    def test_records_round_trip(self):
        sessions = [
            make_session(user="b", domain="x.com", bytes=3, t=5, duration=1.5, requests=2),
            make_session(user="a", domain="y.com", bytes=10**30, t=1),
            make_session(user="b", domain="y.com", bytes=0, t=9),
        ]
        table = session_table(sessions)
        assert len(table) == 3
        assert to_records(table) == sessions
        assert table.users == ("a", "b") and table.domains == ("x.com", "y.com")

    def test_synth_vocabularies_sorted(self):
        # the universal domain sorts first but appears after each user's topic sessions
        spec = synth.SynthSpec(
            n_topics=3, n_domains=30, n_users=12, topic_word=synth.disjoint_topic_word(3, 30),
            sessions_lo=5, sessions_hi=5, universal_domain="a.portal", seed=2,
        )
        table, _ = synth.generate(spec)
        records = to_records(table)
        for name, values in table.vocab.items():
            assert values == tuple(sorted({getattr(r, name) for r in records})), name
        assert table.vocab["domain"] != tuple(dict.fromkeys(r.domain for r in records))

    @given(
        st.lists(st.text(alphabet="aAbB.\u00e9", min_size=1, max_size=3), min_size=1, max_size=8),
        st.lists(st.integers(min_value=0, max_value=7), max_size=12),
    )
    def test_encoded_keeps_the_used_names_in_sorted_order(self, names, picks):
        # names repeat and some go unused; every string field reads the same list
        rows = [p % len(names) for p in picks]
        n = len(rows)
        columns = {name: np.array(rows, dtype=np.int64) for name in _STRING_FIELDS}
        columns.update(start_time=np.arange(n, dtype=np.int64), duration=np.zeros(n),
                       http_requests=np.ones(n, dtype=np.int64),
                       bytes=np.arange(n, dtype=np.int64))
        table = SessionTable.encoded(columns, dict.fromkeys(_STRING_FIELDS, tuple(names)))
        assert to_records(table) == [
            SessionRecord(names[i], t, 0.0, names[i], 1, t)
            for t, i in enumerate(rows)
        ]
        for values in table.vocab.values():
            assert values == tuple(sorted({names[i] for i in rows}))

    @pytest.mark.parametrize("users", [("b", "a"), ("a", "a")])
    def test_vocabulary_not_strictly_increasing_rejected(self, users):
        table = session_table([make_session(user="a"), make_session(user="b")])
        with pytest.raises(ValueError, match="^a vocabulary is not strictly increasing$"):
            SessionTable(columns=table.columns, vocab=dict(table.vocab, user_id=users))

    def test_empty(self):
        table = session_table([])
        assert len(table) == 0 and to_records(table) == []
        assert build_profile_matrix(table).n_users == 0

    def test_huge_integers_kept_exactly(self):
        text = ",".join(SESSION_COLUMNS) + "\n" + ",".join(
            GOOD_ROW[:8] + ("99999999999999999999999",)) + "\n"
        report = parse_sessions(io.StringIO(text))
        assert to_records(report.records)[0].bytes == 99999999999999999999999
        matrix = build_profile_matrix(report.records)
        assert matrix.data.tolist() == [float(99999999999999999999999)]


# hostile texts for names and unread columns: quotes, delimiters, line ends, nothing, non-ASCII
HOSTILE_TEXT = st.one_of(
    st.sampled_from(["", " ", '"', ",", "\r", "\n", "\r\n", 'say "hi", twice', "Zürich 東京"]),
    st.text(alphabet=st.sampled_from('ab ",\r\n\x00é東'), max_size=6),
)


class TestWriter:
    # epochs of 0001-01-01T00:00:00 and 9999-12-31T23:59:59 UTC
    FIRST, LAST = -62135596800, 253402300799

    def written(self, tmp_path, sessions):
        """Write records as a table and through the row oracle."""
        ours, oracle = tmp_path / "columns.csv", tmp_path / "rows.csv"
        write_sessions_csv(session_table(sessions), ours)
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
        table = session_table([make_session(t=0), make_session(t=epoch)])
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            write_sessions_csv(table, tmp_path / "s.csv")

    def test_epoch_beyond_int64_raises_like_format_timestamp(self, tmp_path):
        with pytest.raises((ValueError, OverflowError)) as expected:
            ingest.format_timestamp(2**70)
        table = session_table([make_session(t=2**70)])
        assert table.columns["start_time"].dtype == object
        with pytest.raises(expected.type, match=f"^{expected.value}$"):
            write_sessions_csv(table, tmp_path / "s.csv")

    def test_bytes_beyond_int64_written_exactly(self, tmp_path):
        sessions = [make_session(bytes=10**30), make_session(bytes=2**63), make_session(bytes=0)]
        text = self.written(tmp_path, sessions)
        assert [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]] == [
            str(10**30), str(2**63), "0"]

    def test_unread_texts_written_in_their_columns(self, tmp_path):
        sessions = [make_session(t=0), make_session(user="u2", t=60)]
        texts = [("ap007", "campus", "web"), ('a "b"', "", "x,y\r\nz")]
        unread = {column: (values, np.arange(len(values)))
                  for column, values in zip(("location", "isp", "service_class"), zip(*texts))}
        ours, oracle = tmp_path / "columns.csv", tmp_path / "rows.csv"
        write_sessions_csv(session_table(sessions), ours, unread)
        write_sessions_rows(sessions, oracle, texts)
        assert ours.read_bytes() == oracle.read_bytes()
        assert ours.read_text().splitlines()[1] == "u1,1970-01-01T00:00:00+00:00,60.0,ap007," \
            "example.com,campus,1,web,100"
        assert to_records(parse_sessions(ours).records) == sessions
        with pytest.raises(ValueError, match="^isp: 1 indices for 2 rows$"):
            write_sessions_csv(session_table(sessions), ours, {"isp": (["campus"], [0])})
        assert ours.read_bytes() == oracle.read_bytes()

    def test_quoted_user_round_trip(self, tmp_path):
        sessions = [
            make_session(user="b", domain="x.com", t=1409560000, duration=12),
            make_session(user='a "quoted", user', domain="y.com", duration=0.1),
        ]
        text = self.written(tmp_path, sessions)
        assert '"a ""quoted"", user"' in text
        assert to_records(parse_sessions(tmp_path / "columns.csv").records) == [
            make_session(user="b", domain="x.com", t=1409560000, duration=12.0),
            make_session(user='a "quoted", user', domain="y.com", duration=0.1),
        ]


    def test_lone_cr_round_trip(self, tmp_path):
        """A CR is quoted like a LF: csv.reader ends a record at an unquoted CR."""
        sessions = [make_session(user="a\rb"), make_session(user="c\r\rd", domain="x.com", t=60)]
        unread = {"location": (["lab\rwing"], [0, 0]), "isp": (["a\r\nb", "\r"], [1, 0])}
        path = tmp_path / "s.csv"
        write_sessions_csv(session_table(sessions), path, unread)
        assert path.read_bytes().partition(b"\n")[2] == (
            b'"a\rb",1970-01-01T00:00:00+00:00,60.0,"lab\rwing",example.com,"\r",1,,100\n'
            b'"c\r\rd",1970-01-01T00:01:00+00:00,60.0,"lab\rwing",x.com,"a\r\nb",1,,100\n')
        report = parse_sessions(path)
        assert report.errors == [] and to_records(report.records) == sessions
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[3] for row in rows[1:]] == ["lab\rwing"] * 2

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_row_oracle(self, tmp_path_factory, data):
        """Hostile names and unread texts, floats that repr differently from
        str or tell -0.0 from 0.0, and integers beyond int64, in blocks of
        a few rows."""
        sessions = data.draw(st.lists(st.builds(
            make_session,
            user=HOSTILE_TEXT.filter(str.strip),
            domain=st.sampled_from(["example.com", 'a"b.com', "c,d.org", "bücher.de", "東京.jp"]),
            bytes=st.one_of(st.integers(0, 2**62), st.integers(2**63 - 2, 2**80)),
            t=st.integers(TestWriter.FIRST, TestWriter.LAST),
            duration=st.sampled_from([0.0, -0.0, 0.1, 1e16, 5e-324, 120.5, 1.7976931348623157e308]),
            requests=st.one_of(st.integers(0, 5), st.just(2**70)),
        ), max_size=12))
        texts = data.draw(st.lists(st.tuples(HOSTILE_TEXT, HOSTILE_TEXT, HOSTILE_TEXT),
                                   min_size=len(sessions), max_size=len(sessions)))
        unread = {}
        for column, values in zip(("location", "isp", "service_class"), zip(*texts)):
            names = list(dict.fromkeys(values))
            unread[column] = (names, np.array([names.index(v) for v in values], dtype=np.int64))
        tmp = tmp_path_factory.mktemp("writer")
        ours, oracle = tmp / "columns.csv", tmp / "rows.csv"
        with mock.patch.object(ingest, "WRITE_BLOCK_ROWS", data.draw(st.sampled_from([1, 3, 8]))):
            write_sessions_csv(session_table(sessions), ours, unread if sessions else None)
        write_sessions_rows(sessions, oracle, texts)
        assert ours.read_bytes() == oracle.read_bytes()
        report = parse_sessions(ours)
        assert report.errors == [] and sorted(map(repr, to_records(report.records))) == sorted(
            repr(make_session(user=s.user_id.strip(), domain=s.domain, bytes=s.bytes,
                              t=s.start_time, duration=s.duration, requests=s.http_requests))
            for s in sessions)


def test_write_sessions_csv_memory_per_row():
    """The writer stays within a per-row byte budget: it holds the text of one
    block of rows, near 37 bytes per row of this 100,000-row log (8,192-row
    blocks, tracemalloc on Python 3.11). Whole columns as lists of Python
    objects and strings need 370 and more."""
    spec = synth.SynthSpec(
        n_topics=4, n_domains=200, n_users=500,
        topic_word=synth.disjoint_topic_word(4, 200),
        sessions_lo=200, sessions_hi=200, sessions_dist="fixed", seed=3,
    )
    sessions, truth = synth.generate(spec)
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            write_sessions_csv(sessions, Path(tmp) / "sessions.csv", truth.log_text())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(sessions) == 100_000
    assert peak / len(sessions) < 100, f"{peak / len(sessions):.0f} bytes per row"


def test_parse_and_aggregate_memory_per_row():
    """Parse plus aggregate stays within a per-row byte budget.

    The columnar path peaks near 160 bytes per row on this log (2,048-row
    chunks, tracemalloc on Python 3.11); one SessionRecord per row, or
    string columns kept for the whole file, need 700 and more.
    """
    spec = synth.SynthSpec(
        n_topics=4, n_domains=200, n_users=500,
        topic_word=synth.disjoint_topic_word(4, 200),
        sessions_lo=100, sessions_hi=100, sessions_dist="fixed", seed=3,
    )
    sessions, truth = synth.generate(spec)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sessions.csv"
        write_sessions_csv(sessions, path, truth.log_text())
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
