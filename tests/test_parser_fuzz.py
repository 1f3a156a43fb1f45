"""Mangled rows for the demographics, transactions and raw-event parsers.

Every data row must end as a record, a counted error (or, for
demographics, a counted duplicate) or a ParseError for the whole input;
no other exception may escape. Raw events go on through sessionize and
build_profile_matrix, whose sums may only fail with a data error.
"""

import csv
import io

from hypothesis import given, strategies as st

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
        assert len(report.records) + report.n_errors + len(report.warnings) == _data_rows(text)


@given(mangled_logs(TRANSACTION_COLUMNS))
def test_transactions_rows_all_accounted_for(text):
    report = _parse(parse_transactions, text)
    if report is not None:
        assert len(report.records) + report.n_errors == _data_rows(text)


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
    assert matrix.n_users == len({e.user_id for e in report.records})
