"""Mangled rows for the demographics, transactions and raw-event parsers.

Every data row must end as a record (for the side inputs, a user's row or
a share of a user's total), a counted error (or, for demographics, a
counted duplicate) or a ParseError for the whole input;
no other exception may escape. Raw events go on through sessionize and
build_profile_matrix, whose sums may only fail with a data error. The
parsers read their files in chunks; they must give what a row-by-row
csv reader gives, for any chunk size.
"""

import csv
import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from usertopics import ingest
from usertopics.ingest import (
    DEMOGRAPHIC_COLUMNS,
    RAW_EVENT_COLUMNS,
    TRANSACTION_COLUMNS,
    ParseError,
    build_profile_matrix,
    parse_demographics,
    parse_raw_events,
    parse_transactions,
    sessionize,
)

from helpers import field_size_limit, text_stream, write_row
from oracles import parse_side_rows, side_table, to_records

# values that are bad, odd or borderline in at least one column
TOKENS = (
    "", " ", "nan", "inf", "-inf", "-1", "-0", "0", "3.5", " 7 ", "1e400", "1e308",
    "9" * 400, str(10**308), "1_000", "2014-02-30T00:00:00", "2014-09-01 10:00:00",
    "0001-01-01T00:00:00+14:00", "0001-01-01T00:00:00-14:00", "9999-12-31T23:59:59-14:00",
    "2014-09-01T10:00:00Z", "\x00", "a\x00b.com", "\ufeff", "\ufeffb.com", "a b.com",
    "http://X.example.com:8080/p?q=1", "HTTPS://", "male", "FEMALE", "other", "1492", "1995",
)

GOOD_ROWS = {
    DEMOGRAPHIC_COLUMNS: ("u1", "male", "1995", "2013", "undergraduate"),
    TRANSACTION_COLUMNS: ("u1", "2014-09-01T10:00:00Z", "12.5"),
    RAW_EVENT_COLUMNS: ("u1", "2014-09-01T10:00:00Z", "a.com", "1024", "3"),
}


@st.composite
def mangled_logs(draw, columns):
    """Text of a log: header, then good rows with fields replaced, dropped or added."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        row = list(GOOD_ROWS[columns])
        row[0] = draw(st.sampled_from(["u1", " u2 ", "u3", ""]))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(
                st.sampled_from(TOKENS)
            )
        width = draw(st.sampled_from([len(row)] * 6 + [0, 1, len(row) - 1, len(row) + 1]))
        row = (row + ["extra"])[:width]
        if draw(st.booleans()):
            out.write(",".join(f'"{v}"' for v in row) + "\n")
        else:
            writer.writerow(row)
    return out.getvalue()


def _data_rows(text: str) -> int:
    """Non-blank csv records after the header, counted as the parsers count them."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return sum(1 for row in rows if row and not (len(row) == 1 and not row[0].strip()))


def _parse(parse, text):
    """The parser's report, or None after a ParseError; any other exception escapes."""
    try:
        return parse(io.StringIO(text))
    except ParseError:
        return None


@given(mangled_logs(DEMOGRAPHIC_COLUMNS))
def test_demographics_rows_all_accounted_for(text):
    report = _parse(parse_demographics, text)
    if report is not None:
        n_users = len(report.records.users)
        assert n_users + report.n_errors + len(report.warnings) == _data_rows(text)


@given(mangled_logs(TRANSACTION_COLUMNS))
def test_transactions_rows_all_accounted_for(text):
    # the table keeps per-user totals, not rows: the rows the reference
    # accepts must be the ones not counted as errors, and sum to the totals
    report = _parse(parse_transactions, text)
    if report is not None:
        accepted, _, _ = parse_side_rows(TRANSACTION_COLUMNS, io.StringIO(text))
        assert len(accepted) + report.n_errors == _data_rows(text)
        assert table_bytes(report.records) == table_bytes(
            side_table(TRANSACTION_COLUMNS, accepted))


@given(mangled_logs(RAW_EVENT_COLUMNS), st.sampled_from(["bytes", "requests", "session_count"]))
def test_raw_events_rows_all_accounted_for_through_aggregation(text, metric):
    report = _parse(parse_raw_events, text)
    if report is None:
        return
    assert len(report.records) + report.n_errors == _data_rows(text)
    try:
        matrix = build_profile_matrix(sessionize(report.records), metric)
    except ParseError:
        return  # a merged session or a cell beyond float64
    except ValueError as exc:
        # ProfileMatrix: a user or domain total beyond float64, exit 2 at ingest
        assert "beyond the float64 range" in str(exc)
        return
    assert matrix.n_users == len({e.user_id for e in to_records(report.records)})


PARSERS = {
    DEMOGRAPHIC_COLUMNS: parse_demographics,
    TRANSACTION_COLUMNS: parse_transactions,
    RAW_EVENT_COLUMNS: parse_raw_events,
}
# values csv.writer quotes: every delimiter, a quote, an empty field, each line ending
QUOTED_VALUES = ("x,y", "x;y", "x\ty", "x|y", 'say "hi"', "", "two\nlines", "two\r\nlines",
                 "two\rlines")
DELIMITERS = (",", ";", "\t", "|")
LINE_ENDINGS = ("\n", "\r\n", "\r")


@st.composite
def side_logs(draw, columns):
    """(text, delimiter) of a log: header, mangled rows of any width, blank
    and whitespace-only lines, LF, CRLF and CR line endings, and quoted
    fields that hold a delimiter, a quote or a line ending."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    out = io.StringIO()
    write_row(out, columns, delimiter, draw(st.sampled_from(LINE_ENDINGS)))
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        ending = draw(st.sampled_from(LINE_ENDINGS))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            out.write(draw(st.sampled_from(["", "  ", delimiter])) + ending)
        row = list(GOOD_ROWS[columns])
        row[0] = draw(st.sampled_from(["u1", " u2 ", "u3", ""]))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(
                st.sampled_from(TOKENS + QUOTED_VALUES))
        width = draw(st.sampled_from([len(row)] * 6 + [0, 1, len(row) - 1, len(row) + 1]))
        write_row(out, (row + ["extra"])[:width], delimiter, ending, draw(st.booleans()))
    return out.getvalue(), delimiter


def table_bytes(table):
    """A UserTable's users and each column as (dtype, bytes)."""
    return table.users, {name: (col.dtype.str, col.tobytes()) for name, col in table.columns.items()}


def _outcome(parse, text, newline):
    """What ``parse`` returns for a stream over ``text``, or its ParseError message."""
    try:
        return parse(text_stream(text, newline))
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("columns", list(PARSERS), ids=["demographics", "transactions", "raw"])
@settings(max_examples=100)
@given(data=st.data(), chunk_rows=st.sampled_from([1, 2, 3, 7]), fail_fast=st.booleans(),
       limit=st.sampled_from([None, 25, 60]), newline=st.sampled_from(["", "\n", "\r"]))
def test_chunked_parse_matches_row_by_row_reader(columns, data, chunk_rows, fail_fast, limit,
                                                 newline):
    # a csv field limit below a line's length sends its chunk through csv.reader,
    # one below a field's length makes the read fail at that record
    text, delimiter = data.draw(side_logs(columns))
    options = {"delimiter": delimiter, "fail_fast": fail_fast}
    if columns == RAW_EVENT_COLUMNS:
        options["truncate_domains"] = data.draw(st.booleans())

    def chunked(stream):
        report = PARSERS[columns](stream, **options)
        if columns == RAW_EVENT_COLUMNS:
            assert sum(report.errors_by_code.values()) == report.n_errors
            return to_records(report.records), report.errors, report.warnings
        return table_bytes(report.records), report.errors, report.warnings

    def row_by_row(stream):
        records, errors, warnings = parse_side_rows(columns, stream, **options)
        if columns == RAW_EVENT_COLUMNS:
            return records, errors, warnings
        return table_bytes(side_table(columns, records)), errors, warnings

    with field_size_limit(limit or csv.field_size_limit()):
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            got = _outcome(chunked, text, newline)
        want = _outcome(row_by_row, text, newline)
    assert got == want


def test_overflowing_users_named_in_user_id_order():
    # u3's rows come first, but u1 is the first overflowing user in user_id order
    text = "user_id,timestamp,amount\n" + "".join(
        f"{u},2014-09-01T10:00:00Z,1e308\n" for u in ("u3", "u3", "u1", "u1"))
    message = "amount total of user 'u1' is beyond the float64 range"
    assert _outcome(parse_transactions, text, "") == message
    assert _outcome(lambda s: parse_side_rows(TRANSACTION_COLUMNS, s), text, "") == message


def test_quoted_record_across_chunks_then_a_field_over_the_limit():
    rows = [list(GOOD_ROWS[TRANSACTION_COLUMNS]) for _ in range(5)]
    rows[1][0] = "u\r\n2"  # record 3 spans two lines
    rows[2][2] = "-1"
    rows[4][1] = "9" * 100  # record 6
    out = io.StringIO()
    for row in (TRANSACTION_COLUMNS, *rows):
        write_row(out, row, ",")
    text = out.getvalue()
    for chunk_rows in (1, 2, 3):
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
            report = parse_transactions(text_stream(text))
            with field_size_limit(60):
                over_limit = _outcome(parse_transactions, text, "")
        # accepted: records 2 and 5 of u1, and record 3
        assert report.records.users == ("u\r\n2", "u1")
        assert report.records.columns["amount"].tolist() == [12.5, 25.0]
        assert [line for line, _ in report.errors] == [4, 6]
        assert report.errors[0] == (4, "negative amount: -1.0")
        assert over_limit == "line 6: field larger than field limit (60)"
