import io
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from usertopics.ingest import (
    ParseError,
    build_profile_matrix,
    normalize_domain,
    parse_demographics,
    parse_raw_events,
    parse_sessions,
    parse_transactions,
    sessionize,
    write_sessions_csv,
)
from usertopics.records import GENDERS

import oracles
from helpers import make_event, make_session, session_table
from oracles import to_records

MAX_INT_FLOAT = int(sys.float_info.max)

SESS_HEADER = "user_id,start_time,duration_s,location,domain,isp,http_requests,service_class,bytes\n"


def sess_csv(*rows):
    return io.StringIO(SESS_HEADER + "".join(r + "\n" for r in rows))


class TestParseSessions:
    def test_well_formed_row(self):
        rep = parse_sessions(
            sess_csv("u1,2014-09-01T10:00:00Z,120.0,ap1,Example.COM,isp,5,web,1024")
        )
        assert len(rep.records) == 1
        assert rep.n_errors == 0
        rec = to_records(rep.records)[0]
        assert rec.bytes == 1024
        assert rec.domain == "example.com"
        assert rec.duration == 120.0

    def test_empty_input(self):
        rep = parse_sessions(io.StringIO(""))
        assert to_records(rep.records) == [] and rep.n_errors == 0
        rep = parse_sessions(io.StringIO(SESS_HEADER))
        assert to_records(rep.records) == [] and rep.n_errors == 0

    def test_negative_bytes_skipped(self):
        rep = parse_sessions(
            sess_csv("u1,2014-09-01T10:00:00Z,1,ap1,a.com,isp,1,web,-5")
        )
        assert to_records(rep.records) == []
        assert rep.n_errors == 1
        assert rep.errors[0][0] == 2  # line number

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_duration_skipped(self, value):
        rep = parse_sessions(
            sess_csv(f"u1,2014-09-01T10:00:00Z,{value},ap1,a.com,isp,1,web,5")
        )
        assert to_records(rep.records) == []
        assert rep.n_errors == 1
        assert "non-finite duration" in rep.errors[0][1]

    def test_bytes_beyond_float64_skipped(self):
        rep = parse_sessions(sess_csv(
            "u1,2014-09-01T10:00:00Z,1,ap1,a.com,isp,1,web," + "9" * 401,
            "u1,2014-09-01T10:00:00Z,1,ap1,a.com,isp,1,web," + str(2**1023),
        ))
        assert rep.errors == [(2, "bytes beyond the float64 range: 401 digits")]
        assert to_records(rep.records)[0].bytes == 2**1023  # beyond int64, kept exactly
        assert build_profile_matrix(rep.records).data.tolist() == [float(2**1023)]

    def test_raw_event_bytes_beyond_float64_skipped(self):
        rep = parse_raw_events(io.StringIO(
            "user_id,timestamp,domain,bytes,http_requests\n"
            "u1,2014-09-01T00:00:00Z,a.com," + "9" * 401 + ",1\n"
        ))
        assert rep.errors == [(2, "bytes beyond the float64 range: 401 digits")]

    def test_fail_fast_raises(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_sessions(
                sess_csv("u1,2014-09-01T10:00:00Z,1,ap1,a.com,isp,1,web,-5"),
                fail_fast=True,
            )

    def test_bad_header(self):
        with pytest.raises(ParseError, match="bad header"):
            list(parse_sessions(io.StringIO("nope,nope\n")).records)

    def test_delimiter_override(self):
        rep = parse_sessions(
            io.StringIO(
                SESS_HEADER.replace(",", ";")
                + "u1;2014-09-01T10:00:00Z;1;ap1;a.com;isp;1;web;7\n"
            ),
            delimiter=";",
        )
        assert to_records(rep.records)[0].bytes == 7

    def test_roundtrip_through_writer(self, tmp_path):
        sessions = [make_session(t=1409560000, bytes=5, duration=12.5)]
        path = tmp_path / "s.csv"
        write_sessions_csv(session_table(sessions), path)
        back = parse_sessions(path)
        assert to_records(back.records) == sessions


class TestRejectedValues:
    ROW = "{user},2014-09-01T10:00:00Z,1,ap1,{domain},isp,1,web,{bytes}"

    @pytest.mark.parametrize("user", ["", "  "])
    def test_blank_user_id(self, user):
        rep = parse_sessions(sess_csv(self.ROW.format(user=user, domain="a.com", bytes=5),
                                      self.ROW.format(user="u1", domain="a.com", bytes=5)))
        assert rep.errors == [(2, "empty user_id")]
        assert rep.records.users == ("u1",)
        with pytest.raises(ParseError, match="^line 2: empty user_id$"):
            parse_sessions(sess_csv(self.ROW.format(user=user, domain="a.com", bytes=5)),
                           fail_fast=True)

    def test_blank_user_id_checked_last(self):
        rep = parse_sessions(sess_csv(self.ROW.format(user=" ", domain="a b.com", bytes=5),
                                      self.ROW.format(user="", domain="a.com", bytes=-1)))
        assert rep.errors == [(2, "domain contains whitespace: 'a b.com'"),
                              (3, "negative bytes: -1")]

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_raw_events, "user_id,timestamp,domain,bytes,http_requests\n"
                               " ,2014-09-01T10:00:00Z,a.com,1,1\n"),
            (parse_transactions, "user_id,timestamp,amount\n ,2014-09-01T10:00:00Z,1.5\n"),
            (parse_demographics, "user_id,gender,birth_year,enrol_year,degree_type\n"
                                 ",male,1990,2010,bachelor\n"),
        ],
    )
    def test_blank_user_id_in_other_parsers(self, parse, text):
        rep = parse(io.StringIO(text))
        assert rep.errors == [(2, "empty user_id")] and rep.records.users == ()

    @pytest.mark.parametrize("char", ["\x00", "\x7f", "\x9f"])
    def test_control_character_in_domain(self, char):
        domain = f"b{char}c.com"
        message = f"domain contains a control character: {domain!r}"
        rep = parse_sessions(sess_csv(self.ROW.format(user="u1", domain=domain, bytes=5),
                                      self.ROW.format(user="u1", domain="a.com", bytes=5)))
        assert rep.errors == [(2, message)]
        assert rep.records.domains == ("a.com",)
        rep = parse_raw_events(io.StringIO(
            f"user_id,timestamp,domain,bytes,http_requests\nu1,2014-09-01T10:00:00Z,{domain},1,1\n"))
        assert rep.errors == [(2, message)]


DEMO_HEADER = "user_id,gender,birth_year,enrol_year,degree_type\n"
TX_HEADER = "user_id,timestamp,amount\n"


def genders(table):
    return [GENDERS[code] for code in table.columns["gender"].tolist()]


class TestParseDemographics:
    def test_field_mapping(self):
        rep = parse_demographics(io.StringIO(DEMO_HEADER + "u1,male,1995,2013,undergraduate\n"))
        assert rep.records.users == ("u1",)
        assert rep.records.columns["birth_year"].tolist() == [1995]
        assert genders(rep.records) == ["male"]

    def test_duplicate_last_wins(self):
        rep = parse_demographics(
            io.StringIO(DEMO_HEADER + "u1,male,1995,2013,u\n" + "u1,female,1996,2013,u\n")
        )
        assert rep.records.users == ("u1",)
        assert genders(rep.records) == ["female"]
        assert rep.records.columns["birth_year"].tolist() == [1996]
        assert rep.warnings == ["duplicate user_id 'u1': keeping the last row"]

    def test_implausible_birth_year(self):
        rep = parse_demographics(io.StringIO(DEMO_HEADER + "u1,male,1492,,\n"))
        assert rep.records.users == ()
        assert rep.n_errors == 1

    def test_birth_year_zero_and_unknown_gender_rejected(self):
        rep = parse_demographics(io.StringIO(DEMO_HEADER + "u1,male,0,,\nu2,other,1995,,\n"))
        assert rep.records.users == ()
        assert rep.errors == [(2, "birth_year 0 outside plausible range"),
                              (3, "unknown gender value: 'other'")]

    def test_missing_fields_become_none(self):
        # no gender reads "unknown"; no birth year is stored as 0
        rep = parse_demographics(io.StringIO(DEMO_HEADER + "u1,,,,\n"))
        assert genders(rep.records) == ["unknown"]
        assert rep.records.columns["birth_year"].tolist() == [0]

    def test_columns_sorted_by_user(self):
        rep = parse_demographics(io.StringIO(
            DEMO_HEADER + "u2,female,1996,,\nu1\x00,male,,,\nu1,male,1990,,\nu10,,2001,,\n"))
        assert rep.records.users == ("u1", "u1\x00", "u10", "u2")
        assert genders(rep.records) == ["male", "male", "unknown", "female"]
        assert rep.records.columns["birth_year"].tolist() == [1990, 0, 2001, 1996]


class TestParseTransactions:
    def test_amount(self):
        rep = parse_transactions(io.StringIO(TX_HEADER + "u1,2014-09-01T10:00:00Z,12.50\n"))
        assert rep.records.users == ("u1",)
        assert rep.records.columns["amount"].tolist() == [12.5]

    def test_empty(self):
        rep = parse_transactions(io.StringIO(TX_HEADER))
        assert rep.records.users == ()
        assert rep.records.columns["amount"].dtype == np.float64
        assert rep.records.columns["amount"].size == 0

    def test_negative_amount_error(self):
        rep = parse_transactions(io.StringIO(TX_HEADER + "u1,2014-09-01T10:00:00Z,-1\n"))
        assert rep.records.users == () and rep.n_errors == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_amount_error(self, value):
        rep = parse_transactions(io.StringIO(TX_HEADER + f"u1,2014-09-01T10:00:00Z,{value}\n"))
        assert rep.records.users == () and rep.n_errors == 1
        assert "non-finite amount" in rep.errors[0][1]

    def test_totals_independent_of_transaction_order(self, rng):
        # two-decimal amounts, whose running + sums differ by order in the last bits
        users = [f"u{i}" for i in range(6)]
        rows = [f"{u},2014-09-01T10:00:00Z,{round(float(a), 2)!r}\n"
                for u in users for a in rng.gamma(2.0, 7.5, size=12)]
        want = parse_transactions(io.StringIO(TX_HEADER + "".join(rows))).records
        assert want.users == tuple(users)
        assert want.columns["amount"].tolist() == [
            math.fsum(float(r.split(",")[2]) for r in rows if r.startswith(f"{u},"))
            for u in users
        ]
        for _ in range(50):
            shuffled = "".join(rows[i] for i in rng.permutation(len(rows)))
            got = parse_transactions(io.StringIO(TX_HEADER + shuffled)).records
            assert got.users == want.users
            assert got.columns["amount"].tobytes() == want.columns["amount"].tobytes()

    @pytest.mark.parametrize(
        "users, message",
        [(("u1", "u1"), "of user 'u1'"), (("u1", "u2"), "over all users"),
         # two users overflow: the first in user_id order is named, whatever the row order
         (("u1", "u2", "u1", "u2"), "of user 'u1'"), (("u2", "u1", "u2", "u1"), "of user 'u1'")],
    )
    def test_total_beyond_float64_raises(self, users, message):
        rows = "".join(f"{u},2014-09-01T10:00:00Z,1e308\n" for u in users)
        with pytest.raises(ParseError, match=f"^amount total {message} is beyond the float64"):
            parse_transactions(io.StringIO("user_id,timestamp,amount\n" + rows))


PARSERS = {
    "sessions": (parse_sessions, SESS_HEADER, "u1,2014-09-01T10:00:00Z,1,ap1,a.com,isp,1,web,5\n"),
    "demographics": (
        parse_demographics,
        "user_id,gender,birth_year,enrol_year,degree_type\n",
        "u1,male,1995,2013,u\n",
    ),
    "transactions": (
        parse_transactions, "user_id,timestamp,amount\n", "u1,2014-09-01T10:00:00Z,12.50\n"
    ),
}


class TestUnreadableRecords:
    @pytest.mark.parametrize("kind", sorted(PARSERS))
    def test_field_over_csv_limit(self, kind):
        parse, header, row = PARSERS[kind]
        text = header + row + "\n" + '"' + "x" * 200_000 + '"\n'
        with pytest.raises(ParseError, match="^line 4: field larger than field limit"):
            parse(io.StringIO(text))

    @pytest.mark.parametrize("kind", sorted(PARSERS))
    def test_bytes_not_utf8(self, kind, tmp_path):
        parse, header, row = PARSERS[kind]
        path = tmp_path / "in.csv"
        path.write_bytes((header + row).encode() + b"u2,\xff\xfe\n")
        with pytest.raises(ParseError, match=r"^line \d+: 'utf-8' codec can't decode"):
            parse(path)

    @pytest.mark.parametrize("kind", sorted(PARSERS))
    def test_header_over_csv_limit(self, kind):
        parse, _, _ = PARSERS[kind]
        with pytest.raises(ParseError, match="^line 1: field larger than field limit"):
            parse(io.StringIO('"' + "x" * 200_000 + '"\n'))


class TestNormalizeDomain:
    def test_strips_scheme_path_port(self):
        assert normalize_domain("HTTPS://Foo.Example.COM:8080/path?q=1") == "foo.example.com"

    def test_plain_kept(self):
        assert normalize_domain("news.qq.com") == "news.qq.com"

    def test_truncate_heuristic(self):
        assert normalize_domain("a.b.news.qq.com", truncate=True) == "qq.com"
        assert normalize_domain("x.battlenet.com.cn", truncate=True) == "battlenet.com.cn"


def merged(events, gap):
    """Sessions of ``sessionize`` over a table of ``events``, as records."""
    return to_records(sessionize(session_table(events), gap))


class TestSessionize:
    def test_merges_under_gap(self):
        events = [make_event(t=0), make_event(t=240), make_event(t=480)]
        sessions = merged(events, 300)
        assert len(sessions) == 1
        assert sessions[0].duration == 480
        assert sessions[0].start_time == 0
        assert sessions[0].bytes == 30
        assert merged(events[::-1], 300) == sessions  # input order does not matter

    def test_splits_at_gap(self):
        sessions = merged([make_event(t=0), make_event(t=360)], 300)
        assert len(sessions) == 2

    def test_exact_gap_splits(self):
        sessions = merged([make_event(t=0), make_event(t=300)], 300)
        assert len(sessions) == 2

    def test_users_never_merge(self):
        sessions = merged(
            [make_event(user="a", t=0), make_event(user="b", t=0)], 300
        )
        assert len(sessions) == 2

    def test_interleaved_domains_keep_their_runs(self):
        events = [
            make_event(t=0, domain="a.com"),
            make_event(t=60, domain="b.com"),
            make_event(t=120, domain="a.com"),
        ]
        sessions = merged(events, 300)
        assert len(sessions) == 2
        by_domain = {s.domain: s for s in sessions}
        assert by_domain["a.com"].duration == 120

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            merged([make_event()], 0)
        with pytest.raises(ValueError):
            merged([make_event()], -1)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=3000),
                st.sampled_from(["x.com", "y.com"]),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=30,
        ),
        st.sampled_from([60.0, 300.0, 1000.0]),
    )
    def test_idempotent_on_own_output(self, raw, gap):
        events = [make_event(user=u, t=t, domain=d, bytes=b, requests=1) for u, t, d, b in raw]
        once = merged(events, gap)
        again = oracles.resessionize(once, gap)
        assert again == once

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.integers(min_value=0, max_value=2000),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=25,
        )
    )
    def test_bytes_conserved(self, raw):
        events = [make_event(user=u, t=t, domain="d.com", bytes=b, requests=0) for u, t, b in raw]
        sessions = merged(events, 300)
        assert sum(s.bytes for s in sessions) == sum(e.bytes for e in events)


# event byte counts: small, beyond int64, near and beyond float64 as a sum
# (int(max) + 2**969 still converts to float64 max, yet exceeds it)
EVENT_BYTES = (0, 1, 7, 999, 2**63 - 1, 2**63, 2**70, 10**308, int(sys.float_info.max),
               int(sys.float_info.max) + 2**969)


def _outcome(merge, events, gap):
    """``merge``'s sessions, or the message of its ParseError."""
    try:
        return merge(events, gap)
    except ParseError as exc:
        return str(exc)


class TestSessionizeDifferential:
    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                # few distinct times: equal timestamps, and pauses equal to the gap
                st.integers(min_value=0, max_value=12).map(lambda k: 30 * k),
                st.sampled_from(["x.com", "y.com", "z.com"]),
                st.sampled_from(EVENT_BYTES),
                st.sampled_from((0, 1, 3, 10**308)),
            ),
            max_size=40,
        ),
        st.sampled_from([30.0, 60.0, 90.0, 1e9]),
    )
    def test_matches_record_oracle(self, raw, gap):
        # lists come in any order: the input is unsorted
        events = [make_event(user=u, t=t, domain=d, bytes=b, requests=r)
                  for u, t, d, b, r in raw]
        assert _outcome(merged, events, gap) == _outcome(oracles.sessionize, events, gap)

    @pytest.mark.parametrize(
        "events, domain",
        [
            # both close at the user's end: c.com appeared first, in file order
            ([("c.com", 0), ("a.com", 0), ("c.com", 60), ("a.com", 60)], "c.com"),
            # a.com's second session closes at the user's end in a.com's place,
            # which its first session took, ahead of b.com
            ([("a.com", 0, 1), ("b.com", 500), ("b.com", 510), ("a.com", 1000),
              ("a.com", 1010)], "a.com"),
        ],
        ids=["first-appearance-in-file-order", "domain-keeps-its-first-place"],
    )
    def test_overflow_names_the_first_session_to_close(self, events, domain):
        events = [make_event(domain=d, t=t, bytes=b[0] if b else 10**308)
                  for d, t, *b in events]
        message = f"session of user 'u1' on domain '{domain}': bytes beyond"
        assert _outcome(oracles.sessionize, events, 300).startswith(message)
        assert _outcome(merged, events, 300).startswith(message)


class TestBuildProfileMatrix:
    def test_sums_metric(self):
        m = build_profile_matrix(
            session_table([make_session(bytes=100), make_session(bytes=200)]), "bytes"
        )
        assert m.toarray().tolist() == [[300.0]]

    def test_session_count_metric(self):
        sessions = [make_session(domain="a.com", t=t) for t in (0, 1, 2)]
        sessions.append(make_session(domain="b.com"))
        m = build_profile_matrix(session_table(sessions), "session_count")
        assert m.toarray().tolist() == [[3.0, 1.0]]

    def test_disjoint_users(self):
        m = build_profile_matrix(
            session_table([
                make_session(user="u1", domain="a.com", bytes=5),
                make_session(user="u2", domain="b.com", bytes=7),
            ])
        )
        assert m.n_users == 2 and m.n_domains == 2 and m.nnz == 2
        dense = m.toarray()
        assert np.count_nonzero(dense) == 2
        assert np.count_nonzero(dense, axis=0).tolist() == [1, 1]
        assert np.count_nonzero(dense, axis=1).tolist() == [1, 1]

    def test_empty_input(self):
        m = build_profile_matrix(session_table([]))
        assert m.n_users == 0 and m.n_domains == 0 and m.nnz == 0

    def test_zero_activity_user_retained(self):
        m = build_profile_matrix(
            session_table([make_session(user="u1", bytes=0), make_session(user="u2", bytes=9)])
        )
        assert m.n_users == 2
        assert m.n_domains == 1
        assert m.nnz == 1

    def test_zero_total_domain_dropped(self):
        m = build_profile_matrix(
            session_table([
                make_session(domain="dead.com", bytes=0),
                make_session(domain="live.com", bytes=3),
            ])
        )
        assert m.domains == ("live.com",)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            build_profile_matrix(session_table([make_session()]), "nope")

    def test_column_count_equals_distinct_domains(self, rng):
        sessions = [
            make_session(
                user=f"u{rng.integers(4)}",
                domain=f"d{rng.integers(6)}.com",
                bytes=int(rng.integers(1, 50)),
                t=int(rng.integers(1000)),
            )
            for _ in range(40)
        ]
        m = build_profile_matrix(session_table(sessions))
        assert m.n_domains == len({s.domain for s in sessions})

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u1", "u2", "u3"]),
                st.sampled_from(["a.com", "b.com", "c.com"]),
                st.integers(min_value=0, max_value=10**9),
            ),
            max_size=30,
        )
    )
    def test_bytes_conservation(self, raw):
        sessions = [make_session(user=u, domain=d, bytes=b) for u, d, b in raw]
        m = build_profile_matrix(session_table(sessions))
        assert m.data.sum() == sum(s.bytes for s in sessions)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u1", "u2"]),
                st.sampled_from(["a.com", "b.com"]),
                # two or three of the large values overflow a cell total
                st.one_of(
                    st.integers(min_value=1, max_value=1000),
                    st.sampled_from([MAX_INT_FLOAT, MAX_INT_FLOAT // 2 + 1]),
                ),
            ),
            min_size=1,
            max_size=20,
        ),
        st.randoms(use_true_random=False),
    )
    @example(
        [("u2", "b.com", MAX_INT_FLOAT)] * 2 + [("u1", "a.com", MAX_INT_FLOAT)] * 2,
        random.Random(0),
    )
    def test_permutation_invariant_bit_for_bit(self, raw, shuffler):
        def outcome(sessions):
            """The matrix, or the message of the error it raises: ParseError
            for a cell total, ValueError for a user or domain total."""
            try:
                m = build_profile_matrix(session_table(sessions))
            except (ParseError, ValueError) as exc:
                return type(exc), str(exc)
            return m.users, m.domains, m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()

        sessions = [make_session(user=u, domain=d, bytes=b, t=i)
                    for i, (u, d, b) in enumerate(raw)]
        shuffled = list(sessions)
        shuffler.shuffle(shuffled)
        assert outcome(sessions) == outcome(shuffled)

    def test_duration_metric_uses_fsum(self):
        # fsum makes float accumulation order-independent
        sessions = [make_session(duration=d, t=i) for i, d in enumerate([0.1] * 10)]
        m = build_profile_matrix(session_table(sessions), "duration")
        assert m.data[0] == math.fsum([0.1] * 10)
