import csv
import errno
import gc
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from usertopics import _kernels, _store, cli, lsa, reporting
from usertopics.ingest import DEFAULT_GAP_SECONDS, RAW_EVENT_COLUMNS
from usertopics.matrix import (
    SparseMatrix,
    matrix_checksum,
    read_matrix,
    write_matrix,
)

from helpers import CLUSTER_OUTPUTS, PROFILE_FILES, STAGE_MODULES, loaded_modules
from oracles import parse_side_rows, read_truth, sessionize, write_sessions_rows

SESSION_HEADER = (
    "user_id,start_time,duration_s,location,domain,isp,http_requests,service_class,bytes\n"
)

RAW_EVENTS = (
    "user_id,timestamp,domain,bytes,http_requests\n"
    "u1,2014-09-01T00:00:00Z,a.com,10,1\n"
    "u1,2014-09-01T00:04:00Z,a.com,20,1\n"
    "u1,2014-09-01T00:20:00Z,a.com,5,1\n"
)
DEMOGRAPHICS = ("user_id,gender,birth_year,enrol_year,degree_type\n"
                "u00000,male,1995,,\nu00001,female,1996,,\n")
TRANSACTIONS = "user_id,timestamp,amount\nu00000,2014-09-01T00:00:00Z,12.5\n"

SPEC = {
    "n_topics": 4,
    "n_domains": 40,
    "n_users": 80,
    "sessions": {"dist": "fixed", "lo": 30},
    "seed": 3,
}


def write_spec(tmp_path, extra=None, name="spec.json"):
    raw = dict(SPEC)
    if extra:
        raw.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def synth_ws(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", spec, "--out-dir", out]) == 0
    return out


@pytest.fixture()
def ingested_ws(tmp_path, synth_ws):
    ws = tmp_path / "ws"
    assert run(["ingest", "--workspace", ws, "--sessions", synth_ws / "sessions.csv"]) == 0
    return ws


def write_profile(ws, dense):
    """Write ``dense`` as the workspace's profile, bypassing the ProfileMatrix
    checks, with the ingest manifest that vouches for it."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)  # row-major: the CSR order
    matrix = SparseMatrix(
        n_users=dense.shape[0],
        n_domains=dense.shape[1],
        indptr=np.append(0, np.cumsum(np.count_nonzero(dense, axis=1))),
        indices=cols,
        data=dense[rows, cols],
        users=tuple(f"u{i}" for i in range(dense.shape[0])),
        domains=tuple(f"d{j}.com" for j in range(dense.shape[1])),
    )
    write_matrix(matrix, ws / "profile")
    results = {"profile_checksum": matrix_checksum(matrix)}
    (ws / "ingest_manifest.json").write_text(json.dumps({"results": results}))


def modules_after_main(argv, setup=""):
    """Modules that ``setup`` and then ``cli.main(argv)`` leave loaded in a
    fresh interpreter."""
    argv = [str(a) for a in argv]
    return loaded_modules(f"{setup}\nfrom usertopics import cli\nassert cli.main({argv!r}) == 0")


def strip_timings(manifest_path):
    manifest = json.loads(manifest_path.read_text())
    manifest.pop("timings", None)
    return manifest


class TestSynthCommand:
    def test_writes_files(self, synth_ws):
        assert (synth_ws / "sessions.csv").is_file()
        assert (synth_ws / "truth.csv").is_file()
        truth = read_truth(synth_ws / "truth.csv")
        assert len(truth) == SPEC["n_users"]

    def test_seeded_rerun_identical(self, tmp_path):
        spec = write_spec(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--spec", spec, "--out-dir", out1]) == 0
        assert run(["synth", "--spec", spec, "--out-dir", out2]) == 0
        assert (out1 / "sessions.csv").read_bytes() == (out2 / "sessions.csv").read_bytes()

    def test_malformed_spec_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n_topics\": 2")
        assert run(["synth", "--spec", bad, "--out-dir", tmp_path / "o"]) == 1

    def test_missing_spec_exits_2(self, tmp_path):
        assert run(["synth", "--spec", tmp_path / "nope.json", "--out-dir", tmp_path / "o"]) == 2

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"universal_domain": "bad domain"},
             "usage error: malformed synth spec .*: domain contains whitespace: 'bad domain'"),
            # keys of removed settings are unknown
            ({"bytes_median": 1e308, "bytes_sigma": 3}, "usage error: malformed synth spec .*: "
             r"unknown spec keys: \['bytes_median', 'bytes_sigma'\]"),
            ({"bytes_median": float("nan")},
             r"usage error: malformed synth spec .*: unknown spec keys: \['bytes_median'\]"),
            *(({"user_topic_mode": "mixed", "mixed_concentration": value},
               "usage error: malformed synth spec .*: "
               r"unknown spec keys: \['mixed_concentration', 'user_topic_mode'\]")
              for value in (-1, float("nan"), 0)),
            *(({key: value}, "usage error: malformed synth spec .*: "
               "spec keys topics and sessions must be JSON objects")
              for key, value in (("topics", []), ("sessions", "x"))),
            # text in place of a dict: the whole spec file
            *(pytest.param(text, "usage error: malformed synth spec .*: "
                           "cannot convert float infinity to integer", id=f"{key}-1e400")
              for key, text in (("sessions.lo", '{"n_topics": 4, "n_domains": 40, '
                                 '"n_users": 80, "sessions": {"lo": 1e400}}'),
                                ("n_topics", '{"n_topics": 1e400, "n_domains": 40, '
                                 '"n_users": 80}'))),
            pytest.param("[" * 100_000 + "]" * 100_000,
                         "usage error: malformed synth spec .*: maximum recursion depth exceeded",
                         id="arrays-100000-deep"),
            pytest.param('"x"', "usage error: malformed synth spec .*: a synth spec is a JSON object",
                         id="string-spec"),
            ({"seed": -1}, "usage error: malformed synth spec .*: seed must be non-negative, got -1"),
            ({"seed": 1.5}, "usage error: malformed synth spec .*: seed: not a whole number: 1.5"),
            ({"sessions": {"dist": "uniform", "lo": 1, "hi": 10**20}},
             r"usage error: malformed synth spec .*: sessions.lo and sessions.hi must satisfy "
             r"1 <= lo <= hi < 2\*\*63, got 1 and 100000000000000000000"),
            ({"topics": {"kind": "matrix", "rows": [[0.5, 0.5] + [0.0] * 38] * 4}},
             r"usage error: malformed synth spec .*: unknown spec keys: \['topics.rows'\]"),
            # session counts of 10**15 or more fail at once; smaller ones may start allocating
            *(({"sessions": sessions}, f"usage error: synth spec .*: {key}: cannot draw the "
               f"sessions of user 0: {reason}")
              for sessions, key, reason in (
                  ({"dist": "poisson", "lo": 1e18}, "sessions.lo", "Unable to allocate"),
                  ({"dist": "poisson", "lo": 9223372036854775000}, "sessions.lo",
                   "lam value too large"),
                  ({"dist": "fixed", "lo": 10**18}, "sessions.lo", "Unable to allocate"),
                  ({"dist": "uniform", "lo": 10**15, "hi": 10**18}, "sessions.hi",
                   "Unable to allocate"))),
            ({"universal_domain": "dom0001"},
             "usage error: malformed synth spec .*: universal_domain 'dom0001' is a topic domain"),
            # a typo inside topics or sessions names its dotted key
            ({"sessions": {"dist": "poisson", "l0": 3}},
             r"usage error: malformed synth spec .*: unknown spec keys: \['sessions.l0'\]"),
            ({"topics": {"kind": "overlap", "shar": 0.5}},
             r"usage error: malformed synth spec .*: unknown spec keys: \['topics.shar'\]"),
            ({"sessions.lo": 5},
             r"usage error: malformed synth spec .*: unknown spec keys: \['sessions.lo'\]"),
            # a JSON boolean is not a count
            *(({key: value}, f"usage error: malformed synth spec .*: {key}: "
               f"not a whole number: {value}")
              for key, value in (("n_topics", True), ("n_users", True), ("seed", False))),
            ({"sessions": {"lo": True}},
             "usage error: malformed synth spec .*: sessions.lo: not a whole number: True"),
            # counts of 10**13 fail to allocate at once, in from_dict and in generate
            ({"n_domains": 10**13},
             "usage error: malformed synth spec .*: Unable to allocate"),
            ({"n_users": 10**13}, "usage error: synth spec .*: Unable to allocate"),
            # the share goes through the spec-key table like every other key
            *(({"topics": topics}, f"usage error: malformed synth spec .*: topics.share: {reason}")
              for topics, reason in (
                  ({"kind": "overlap", "share": "x"}, "could not convert string to float: 'x'"),
                  ({"kind": "overlap", "share": False}, r"not a share in \[0, 1\): False"),
                  ({"kind": "overlap", "share": 1}, r"not a share in \[0, 1\): 1"),
                  ({"kind": "overlap", "share": None}, "float.. argument must be"),
                  ({"share": 0.5}, "disjoint topics share no domains"),
                  ({"kind": "disjoint", "share": 0.2}, "disjoint topics share no domains"))),
            pytest.param('{"n_topics": 4, "n_domains": 40, "n_users": 80, '
                         '"topics": {"kind": "overlap", "share": 1e400}}',
                         r"usage error: malformed synth spec .*: topics.share: not a share in "
                         r"\[0, 1\): inf", id="share-1e400"),
        ],
    )
    def test_bad_spec_exits_1_before_writing(self, tmp_path, capsys, extra, message):
        if isinstance(extra, str):
            spec = tmp_path / "spec.json"
            spec.write_text(extra)
        else:
            spec = write_spec(tmp_path, extra)
        out = tmp_path / "o"
        assert run(["synth", "--spec", spec, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert re.match(message, err) and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    def test_seed_given_as_text(self, tmp_path):
        outs = [tmp_path / "number", tmp_path / "text"]
        for out, seed in zip(outs, (7, "7")):
            spec = write_spec(tmp_path, {"seed": seed}, name=f"{out.name}.json")
            assert run(["synth", "--spec", spec, "--out-dir", out]) == 0
            manifest = json.loads((out / "synth_manifest.json").read_text())
            assert manifest["params"]["seed"] == 7
        assert (outs[0] / "sessions.csv").read_bytes() == (outs[1] / "sessions.csv").read_bytes()


class TestIngestCommand:
    def test_matrix_files_written(self, ingested_ws):
        meta = json.loads((ingested_ws / "profile.meta.json").read_text())
        assert meta["n_users"] == SPEC["n_users"]
        assert np.load(ingested_ws / "profile.indptr.npy").shape == (meta["n_users"] + 1,)
        for name in ("indices", "data"):
            assert np.load(ingested_ws / f"profile.{name}.npy").shape == (meta["nnz"],)
        assert (ingested_ws / "domain_stats.txt").is_file()

    def test_missing_file_exit_2_names_path(self, tmp_path, capsys):
        rc = run(["ingest", "--workspace", tmp_path / "w", "--sessions", tmp_path / "gone.csv"])
        assert rc == 2
        assert "gone.csv" in capsys.readouterr().err

    def test_rerun_bit_identical(self, tmp_path, synth_ws):
        ws1, ws2 = tmp_path / "w1", tmp_path / "w2"
        for ws in (ws1, ws2):
            assert run(["ingest", "--workspace", ws, "--sessions", synth_ws / "sessions.csv"]) == 0
        for name in [*PROFILE_FILES, "domain_stats.txt"]:
            assert (ws1 / name).read_bytes() == (ws2 / name).read_bytes()

    def test_field_over_csv_limit_exits_2(self, tmp_path, synth_ws, capsys):
        log = tmp_path / "big.csv"
        lines = (synth_ws / "sessions.csv").read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:3]) + '"' + "9" * 200_000 + '"\n' + "".join(lines[3:]))
        assert run(["ingest", "--workspace", tmp_path / "w", "--sessions", log]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 4: field larger than field limit")
        assert err.count("\n") == 1

    def test_demographics_field_over_csv_limit_exits_2(self, tmp_path, ingested_ws, capsys):
        demo = tmp_path / "demo.csv"
        demo.write_text("user_id,gender,birth_year,enrol_year,degree_type\n" + "x" * 200_000)
        argv = ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4, "--demographics", demo]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 2: field larger than field limit")
        assert err.count("\n") == 1

    def test_manifest_counts_parse_errors_by_kind(self, tmp_path, synth_ws):
        lines = (synth_ws / "sessions.csv").read_text().splitlines(keepends=True)
        rows = [line.rstrip("\n").split(",") for line in lines[1:6]]
        rows[0][2] = "nan"
        rows[1][8] = "-1"
        rows[2] = rows[2][:8]
        rows[3][1] = "2014-02-30T00:00:00"
        rows[4][2], rows[4][8] = "inf", "-1"  # non-finite duration comes first
        log = tmp_path / "dirty.csv"
        log.write_text("".join([lines[0], *(",".join(row) + "\n" for row in rows), *lines[6:]]))
        events = tmp_path / "events.csv"
        events.write_text("user_id,timestamp,domain,bytes,http_requests\n"
                          "u1,2014-09-01T10:00:00Z,a.com,10,2\n"
                          "u1,2014-09-01T10:00:00Z,a b.com,10,2\n"
                          "u1,2014-09-01T10:00:00Z,a.com,x,y\n"
                          " ,2014-09-01T10:00:00Z,a.com,10,2\n")
        want = {
            "--sessions": (log, {"non_finite_duration": 2, "negative_bytes": 1,
                                 "field_count": 1, "bad_timestamp": 1}),
            "--raw-events": (events, {"bad_domain": 1, "bad_bytes": 1, "empty_user_id": 1}),
        }
        for flag, (path, kinds) in want.items():
            ws = tmp_path / flag.strip("-")
            assert run(["ingest", "--workspace", ws, flag, path]) == 0
            results = json.loads((ws / "ingest_manifest.json").read_text())["results"]
            assert results["parse_errors_by_kind"] == kinds
            assert results["parse_errors"] == sum(kinds.values())
        demo = tmp_path / "demo.csv"
        demo.write_text("user_id,gender,birth_year,enrol_year,degree_type\n"
                        "u00000,male,1995,,\nu00001,male,x,,\nu00002,male,0,,\n"
                        "u00003,male,,x,\nu00004,other,,,\n ,male,1995,,\nu00005,male\n")
        tx = tmp_path / "tx.csv"
        tx.write_text("user_id,timestamp,amount\nu00000,2014-09-01T00:00:00Z,12.5\n"
                      "u00001,bad,1\nu00002,2014-09-01T00:00:00Z,x\n"
                      "u00003,2014-09-01T00:00:00Z,inf\nu00004,2014-09-01T00:00:00Z,-1\n"
                      " ,2014-09-01T00:00:00Z,1\n")
        want = {
            "demographics": {"bad_birth_year": 1, "birth_year_out_of_range": 1,
                             "bad_enrol_year": 1, "unknown_gender": 1, "empty_user_id": 1,
                             "field_count": 1},
            "transactions": {"bad_timestamp": 1, "bad_amount": 1, "non_finite_amount": 1,
                             "negative_amount": 1, "empty_user_id": 1},
        }
        ws = tmp_path / "sessions"
        assert run(["cluster", "--workspace", ws, "-M", 4, "-K", 4,
                    "--demographics", demo, "--transactions", tx]) == 0
        results = json.loads((ws / "manifest.json").read_text())["results"]
        for name, kinds in want.items():
            assert results[name]["parse_errors_by_kind"] == kinds
            assert results[name]["parse_errors"] == sum(kinds.values())

    def test_bytes_beyond_float64_counted(self, tmp_path, synth_ws, capsys):
        log = tmp_path / "huge.csv"
        lines = (synth_ws / "sessions.csv").read_text().splitlines(keepends=True)
        huge = lines[1].rsplit(",", 1)[0] + "," + "9" * 401 + "\n"
        log.write_text("".join(lines[:2]) + huge + "".join(lines[2:]))
        assert run(["ingest", "--workspace", tmp_path / "w", "--sessions", log]) == 0
        assert "1 bad rows" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad_rows", [["", "  "], ["b\x00c.com"]], ids=["blank-user", "nul-domain"]
    )
    def test_rejected_user_or_domain_counted(self, tmp_path, capsys, bad_rows):
        log = tmp_path / "log.csv"
        good = "u1,2014-09-01T10:00:00Z,1,ap1,a.com,isp,1,web,5\n"
        if bad_rows[0].endswith(".com"):
            bad = [good.replace("a.com", domain) for domain in bad_rows]
        else:
            bad = [good.replace("u1", user, 1) for user in bad_rows]
        log.write_text(SESSION_HEADER + good + "".join(bad) + good.replace("u1", "u2"))
        ws = tmp_path / "w"
        assert run(["ingest", "--workspace", ws, "--sessions", log]) == 0
        assert f"{len(bad_rows)} bad rows" in capsys.readouterr().out
        profile = read_matrix(ws / "profile")
        assert profile.users == ("u1", "u2") and profile.domains == ("a.com",)

    def test_cell_total_beyond_float64_exits_2(self, tmp_path, capsys):
        # each row fits float64; the (u1, a.com) cell's sum does not
        log = tmp_path / "big.csv"
        row = "u1,{},1,lab,a.com,isp,1,web," + str(10**308) + "\n"
        log.write_text(
            "user_id,start_time,duration_s,location,domain,isp,http_requests,service_class,bytes\n"
            + row.format("2014-09-01T00:00:00Z") + row.format("2014-09-01T01:00:00Z")
        )
        assert run(["ingest", "--workspace", tmp_path / "w", "--sessions", log]) == 2
        err = capsys.readouterr().err
        assert err == (
            "data error: bytes total of user 'u1' on domain 'a.com' is beyond the float64 range\n"
        )

    def test_merged_session_beyond_float64_exits_2(self, tmp_path, capsys):
        # two events one minute apart merge into one session of 2e308 bytes
        events = tmp_path / "ev.csv"
        events.write_text(
            "user_id,timestamp,domain,bytes,http_requests\n"
            f"u1,2014-09-01T00:00:00Z,a.com,{10**308},1\n"
            f"u1,2014-09-01T00:01:00Z,a.com,{10**308},1\n"
        )
        assert run(["ingest", "--workspace", tmp_path / "w", "--raw-events", events]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: session of user 'u1' on domain 'a.com': bytes beyond")
        assert err.count("\n") == 1

    def test_first_closing_merged_session_beyond_float64_named(self, tmp_path, capsys):
        # u2 on b.com and u1 on c.com both sum beyond float64; u1 comes first,
        # and of its sessions, the c.com one closes first: at its next session
        big = 10**308
        events = tmp_path / "ev.csv"
        events.write_text(
            "user_id,timestamp,domain,bytes,http_requests\n"
            f"u2,2014-09-01T00:00:00Z,b.com,{big},1\n"
            f"u2,2014-09-01T00:01:00Z,b.com,{big},1\n"
            f"u1,2014-09-01T00:05:00Z,a.com,{big},1\n"
            f"u1,2014-09-01T00:06:00Z,c.com,{big},1\n"
            f"u1,2014-09-01T00:07:00Z,c.com,{big},1\n"
            f"u1,2014-09-01T00:08:00Z,a.com,{big},1\n"
            "u1,2014-09-01T02:00:00Z,c.com,1,1\n"
        )
        want = "data error: session of user 'u1' on domain 'c.com': bytes beyond"
        assert run(["ingest", "--workspace", tmp_path / "w", "--raw-events", events]) == 2
        assert capsys.readouterr().err.startswith(want)
        # without the later c.com event both u1 sessions close at the user's
        # end, in the order their domains first appeared
        events.write_text("".join(events.read_text().splitlines(keepends=True)[:-1]))
        assert run(["ingest", "--workspace", tmp_path / "w", "--raw-events", events]) == 2
        assert capsys.readouterr().err.startswith(want.replace("c.com", "a.com"))

    @pytest.mark.parametrize(
        "domains, message",
        [
            # each cell fits float64; each user's total does not
            (("a.com", "b.com", "c.com"), "user 'u1'"),
            # each user's total fits; the shared domain's does not
            (("a.com",), "domain 'a.com'"),
        ],
    )
    def test_profile_total_beyond_float64_exits_2(self, tmp_path, capsys, domains, message):
        log = tmp_path / "big.csv"
        rows = [
            f"u{i},2014-09-01T00:00:00Z,1,lab,{d},isp,1,web,{10**308}\n"
            for i in range(1, 5)
            for d in domains
        ]
        log.write_text(SESSION_HEADER + "".join(rows))
        assert run(["ingest", "--workspace", tmp_path / "w", "--sessions", log]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: activity total of {message} is beyond the float64 range\n"

    def test_ingest_that_fails_part_way_leaves_no_manifest(self, synth_ws, ingested_ws,
                                                           monkeypatch):
        assert (ingested_ws / "ingest_manifest.json").is_file()

        def fail(*args, **kwargs):
            raise RuntimeError("disk gone")

        monkeypatch.setattr(cli, "write_matrix", fail)
        with pytest.raises(RuntimeError, match="disk gone"):
            run(["ingest", "--workspace", ingested_ws, "--sessions", synth_ws / "sessions.csv"])
        assert not (ingested_ws / "ingest_manifest.json").exists()

    @pytest.mark.parametrize("sources", [["--sessions", "s.csv", "--raw-events", "e.csv"], []],
                             ids=["both", "neither"])
    def test_exactly_one_session_source(self, tmp_path, capsys, sources):
        assert run(["ingest", "--workspace", tmp_path / "w", *sources]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "w").exists()

    def test_raw_events_input(self, tmp_path):
        events = tmp_path / "ev.csv"
        events.write_text(RAW_EVENTS)
        ws = tmp_path / "w"
        assert run(["ingest", "--workspace", ws, "--raw-events", events]) == 0
        meta = json.loads((ws / "profile.meta.json").read_text())
        assert [meta["n_users"], meta["n_domains"], meta["nnz"]] == [1, 1, 1]
        assert json.loads((ws / "ingest_manifest.json").read_text())["results"]["n_sessions"] == 2

    @pytest.mark.parametrize("gap", [None, 86400], ids=["default-gap", "merging-gap"])
    def test_raw_events_outputs_match_oracle_sessions(self, tmp_path, synth_ws, gap):
        """Raw events ingest to the bytes that their row-by-row sessions do."""
        # the synth log as raw events, shuffled: start_time -> timestamp
        lines = (synth_ws / "sessions.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        np.random.default_rng(0).shuffle(rows)
        events = tmp_path / "ev.csv"
        events.write_text(",".join(RAW_EVENT_COLUMNS) + "\n" + "".join(
            f"{r[0]},{r[1]},{r[4]},{r[8]},{r[6]}\n" for r in rows))
        records, errors, _ = parse_side_rows(RAW_EVENT_COLUMNS, events)
        sessions = sessionize(records, gap or DEFAULT_GAP_SECONDS)
        assert not errors and len(sessions) <= len(rows)
        if gap:
            assert len(sessions) < len(rows)
        write_sessions_rows(sessions, tmp_path / "sessions.csv")

        gap_args = ["--gap", gap] if gap else []
        raw_ws, sessions_ws = tmp_path / "raw", tmp_path / "sessions"
        assert run(["ingest", "--workspace", raw_ws, "--raw-events", events, *gap_args]) == 0
        assert run(["ingest", "--workspace", sessions_ws, "--sessions",
                    tmp_path / "sessions.csv"]) == 0
        written = sorted(p.name for p in sessions_ws.glob("profile.*"))
        assert len(written) == 4
        for name in [*written, "domain_stats.txt"]:
            assert (raw_ws / name).read_bytes() == (sessions_ws / name).read_bytes(), name
        results = json.loads((raw_ws / "ingest_manifest.json").read_text())["results"]
        assert results["n_sessions"] == len(sessions)


class TestClusterCommand:
    def test_recovers_planted_topics(self, tmp_path, synth_ws, ingested_ws):
        from usertopics.synth import adjusted_rand_index

        assert run([
            "cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4, "--seed", 7,
        ]) == 0
        with open(ingested_ws / "assignments.csv", newline="", encoding="utf-8") as fh:
            pred = {row["user_id"]: int(row["cluster"]) for row in csv.DictReader(fh)}
        truth = read_truth(synth_ws / "truth.csv")
        users = sorted(pred)
        ari = adjusted_rand_index([pred[u] for u in users], [truth[u] for u in users])
        assert ari == 1.0

    def test_manifest_and_reports(self, ingested_ws):
        assert run(["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4]) == 0
        manifest = json.loads((ingested_ws / "manifest.json").read_text())
        assert manifest["params"]["weighting"] == "tfidf"
        assert manifest["results"]["n_users"] == SPEC["n_users"]
        assert "timings" in manifest
        # ingest's files, cluster's files and the two manifests: nothing else
        assert sorted(p.name for p in ingested_ws.iterdir()) == sorted([
            *PROFILE_FILES, "domain_stats.txt", "ingest_manifest.json",
            *CLUSTER_OUTPUTS, "manifest.json",
        ])

    def test_manifests_name_the_profile(self, ingested_ws):
        ingest = json.loads((ingested_ws / "ingest_manifest.json").read_text())["results"]
        checksum = matrix_checksum(read_matrix(ingested_ws / "profile"))
        assert ingest["profile_checksum"] == checksum
        for command, argv in PIPELINE_ARGV.items():
            assert run([*argv, "--workspace", ingested_ws]) == 0
            results = json.loads((ingested_ws / "manifest.json").read_text())["results"]
            assert results["profile_checksum"] == checksum, command

    def test_manifest_records_numerical_rank(self, tmp_path):
        ws = tmp_path / "ws"
        # two pairs of identical users: the TF-IDF feature matrix has rank 2
        write_profile(ws, [[3, 1, 0, 0], [3, 1, 0, 0], [0, 0, 2, 5], [0, 0, 2, 5]])
        assert run(["cluster", "--workspace", ws, "-M", 3, "-K", 2]) == 0
        results = json.loads((ws / "manifest.json").read_text())["results"]
        assert results["numerical_rank"] == 2
        assert results["feature_nnz"] == 8

    def test_domains_with_a_comma_or_quote_read_back_as_csv(self, tmp_path, synth_ws):
        with open(synth_ws / "sessions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[4] = row[4].replace("dom", 'd,"o', 1)
        log = tmp_path / "quoted.csv"
        with open(log, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        ws = tmp_path / "ws"
        assert run(["ingest", "--workspace", ws, "--sessions", log]) == 0
        assert run(["cluster", "--workspace", ws, "-M", 4, "-K", 4]) == 0
        domains = set(read_matrix(ws / "profile").domains)
        assert all(d.startswith('d,"o') for d in domains)
        # (file, fields per row, the domain columns)
        for name, width, columns in (("domain_stats.txt", 4, [0]),
                                     ("report_topics.txt", 6, [2, 4])):
            with open(ws / name, newline="") as fh:
                table = [row for row in csv.reader(fh) if not row[0].startswith("#")]
            assert {len(row) for row in table} == {width}, name
            assert {row[j] for row in table[1:] for j in columns} <= domains, name

    def test_row_normalized_mode_recorded_and_universal_tops(self, tmp_path):
        spec = write_spec(tmp_path, {"universal_domain": "portal.example"})
        synth_out = tmp_path / "s"
        ws = tmp_path / "w"
        assert run(["synth", "--spec", spec, "--out-dir", synth_out]) == 0
        assert run(["ingest", "--workspace", ws, "--sessions", synth_out / "sessions.csv"]) == 0
        assert run([
            "cluster", "--workspace", ws, "-M", 4, "-K", 4,
            "--weighting", "row_normalized",
        ]) == 0
        manifest = json.loads((ws / "manifest.json").read_text())
        assert manifest["params"]["weighting"] == "row_normalized"
        assert "portal.example" in manifest["results"]["labels"]

    def test_manifest_records_each_restart(self, ingested_ws):
        argv = ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4,
                "--restarts", 3, "--seed", 5]
        assert run(argv) == 0
        results = json.loads((ingested_ws / "manifest.json").read_text())["results"]
        runs = results["kmeans_runs"]
        assert [r["seed"] for r in runs] == [5, 6, 7]
        assert {r["stop_reason"] for r in runs} <= {"fixed_point", "tolerance", "max_iter"}
        assert all(r["iterations"] >= 0 for r in runs)
        assert min(r["inertia"] for r in runs) == results["inertia"]
        assert results["iterations_run"] in [r["iterations"] for r in runs]

    def test_manifest_counts_side_file_rejections(self, tmp_path, ingested_ws):
        demo = tmp_path / "demo.csv"
        demo.write_text("user_id,gender,birth_year,enrol_year,degree_type\n"
                        "u00000,male,1995,,\nu00001,other,1995,,\nu00000,female,1996,,\n")
        tx = tmp_path / "tx.csv"
        tx.write_text("user_id,timestamp,amount\n"
                      "u00000,2014-09-01T00:00:00Z,12.5\nu00001,2014-09-01T00:00:00Z,-1\n")
        argv = ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4]
        assert run([*argv, "--demographics", demo, "--transactions", tx]) == 0
        manifest = json.loads((ingested_ws / "manifest.json").read_text())
        results = manifest["results"]
        assert results["demographics"] == {"parse_errors": 1, "parse_warnings": 1,
                                           "parse_errors_by_kind": {"unknown_gender": 1}}
        assert results["transactions"] == {"parse_errors": 1, "parse_warnings": 0,
                                           "parse_errors_by_kind": {"negative_amount": 1}}
        assert "side_inputs" in manifest["timings"]["stages_s"]
        gender = json.loads((ingested_ws / "summary.json").read_text())["gender"]
        assert gender["overall_male_fraction"] == 0.0  # u00000's last row: female
        assert run(argv) == 0
        manifest = json.loads((ingested_ws / "manifest.json").read_text())
        results = manifest["results"]
        assert "demographics" not in results and "transactions" not in results
        assert "side_inputs" not in manifest["timings"]["stages_s"]

    def test_manifest_stop_reason_max_iter(self, ingested_ws):
        argv = ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4,
                "--restarts", 2, "--max-iter", 0]
        assert run(argv) == 0
        runs = json.loads((ingested_ws / "manifest.json").read_text())["results"]["kmeans_runs"]
        assert [(r["iterations"], r["stop_reason"]) for r in runs] == [(0, "max_iter")] * 2

    def test_manifest_times_profile_load(self, ingested_ws):
        assert run(["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4]) == 0
        manifest = json.loads((ingested_ws / "manifest.json").read_text())
        stages = manifest["timings"]["stages_s"]
        assert "load" in stages
        assert sum(stages.values()) <= manifest["timings"]["total_s"]

    def test_truncated_profile_exits_2(self, ingested_ws, capsys):
        path = ingested_ws / "profile.data.npy"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert run(["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: corrupt profile matrix")
        assert err.count("\n") == 1

    def test_m_out_of_range_exits_1(self, ingested_ws):
        assert run(["cluster", "--workspace", ingested_ws, "-M", 10_000, "-K", 4]) == 1

    def test_k_out_of_range_exits_1(self, ingested_ws):
        assert run(["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 10_000]) == 1

    def test_determinism_modulo_timings(self, tmp_path, ingested_ws):
        args = ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4, "--seed", 3]
        assert run(args) == 0
        keep = tmp_path / "copy"
        keep.mkdir()
        for name in CLUSTER_OUTPUTS:
            shutil.copy(ingested_ws / name, keep / name)
        manifest1 = strip_timings(ingested_ws / "manifest.json")
        assert run(args) == 0
        for name in CLUSTER_OUTPUTS:
            assert (ingested_ws / name).read_bytes() == (keep / name).read_bytes(), name
        assert strip_timings(ingested_ws / "manifest.json") == manifest1

    def test_manifest_records_peak_rss(self, synth_ws, ingested_ws):
        assert run(["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4]) == 0
        for path in (synth_ws / "synth_manifest.json", ingested_ws / "ingest_manifest.json",
                     ingested_ws / "manifest.json"):
            assert json.loads(path.read_text())["timings"]["peak_rss_mb"] > 0, path.name
            # criterion 8 compares manifests without their timings
            assert "peak_rss_mb" not in json.dumps(strip_timings(path)), path.name

    def test_run_that_fails_part_way_leaves_no_manifest(self, ingested_ws, monkeypatch):
        argv = ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4]
        assert run(argv) == 0
        assert (ingested_ws / "manifest.json").is_file()

        def fail(*args, **kwargs):
            raise RuntimeError("disk gone")

        monkeypatch.setattr(reporting, "write_spend_report", fail)
        with pytest.raises(RuntimeError, match="disk gone"):
            run(argv)
        assert not (ingested_ws / "manifest.json").exists()
        assert (ingested_ws / "report_gender.txt").is_file()  # the partial run's output

    def test_lock_blocks_concurrent_runs(self, ingested_ws):
        (ingested_ws / ".lock").touch()
        assert run(["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4]) == 1
        (ingested_ws / ".lock").unlink()


def dead_pid() -> int:
    """The PID of a child process that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


class TestWorkspaceLock:
    HOST = os.uname().nodename

    def cluster(self, ws):
        return run(["cluster", "--workspace", ws, "-M", 4, "-K", 4])

    def test_lock_names_the_running_process(self, tmp_path):
        with _store.workspace_lock(tmp_path / "w"):
            assert (tmp_path / "w" / ".lock").read_text() == f"{os.getpid()} {self.HOST}\n"
        assert not (tmp_path / "w" / ".lock").exists()

    def test_dead_process_on_this_host_is_taken_over(self, ingested_ws, caplog):
        pid = dead_pid()
        (ingested_ws / ".lock").write_text(f"{pid} {self.HOST}\n")
        assert self.cluster(ingested_ws) == 0
        warnings = [(r.levelname, r.getMessage()) for r in caplog.records
                    if r.name == _store.log.name]
        assert warnings == [("WARNING", f"taking over {ingested_ws / '.lock'} from process "
                                        f"{pid}, which is no longer running")]
        assert list(ingested_ws.glob(".lock*")) == []

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(lambda pid, host: f"{os.getpid()} {host}\n", id="live-pid"),
            pytest.param(lambda pid, host: f"{pid} elsewhere.example\n", id="other-host"),
            pytest.param(lambda pid, host: "", id="empty"),
            pytest.param(lambda pid, host: f"{pid}\n", id="no-host"),
            pytest.param(lambda pid, host: f"0 {host}\n", id="pid-0"),
            pytest.param(lambda pid, host: f"{10**30} {host}\n", id="pid-beyond-pid_t"),
            pytest.param(lambda pid, host: f"x{pid} {host}\n", id="garbage"),
        ],
    )
    def test_refused_unless_shown_stale(self, ingested_ws, capsys, content):
        lock = ingested_ws / ".lock"
        lock.write_text(content(dead_pid(), self.HOST))
        before = lock.read_bytes()
        assert self.cluster(ingested_ws) == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: workspace {ingested_ws} is locked by another run "
                       f"(remove {lock} if stale)\n")
        assert lock.read_bytes() == before

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_lock_refused(self, ingested_ws, capsys, kind):
        lock = ingested_ws / ".lock"
        if kind == "directory":
            lock.mkdir()
        else:
            lock.write_bytes(b"\xff\xfe 1 " + self.HOST.encode() + b"\n")
        assert self.cluster(ingested_ws) == 1
        assert capsys.readouterr().err.startswith(f"usage error: workspace {ingested_ws} is locked")
        assert lock.exists()

    def test_of_two_runs_taking_over_one_stale_lock_one_wins(self, tmp_path, monkeypatch):
        lock = tmp_path / ".lock"
        lock.write_text(f"{dead_pid()} {self.HOST}\n")
        rival = f"{os.getppid()} {self.HOST}\n"
        real_rename = os.rename

        def rival_first(src, dst):
            # another run took over between this run's check and its move
            lock.write_text(rival)
            monkeypatch.setattr(_store.os, "rename", real_rename)
            real_rename(src, dst)

        monkeypatch.setattr(_store.os, "rename", rival_first)
        with pytest.raises(_store.WorkspaceLocked):
            with _store.workspace_lock(tmp_path):
                pass
        assert lock.read_text() == rival
        assert [p.name for p in tmp_path.iterdir()] == [".lock"]


class TestSweepCommand:
    def test_range_and_monotone(self, ingested_ws):
        assert run([
            "sweep-k", "--workspace", ingested_ws, "-M", 4,
            "--k-min", 1, "--k-max", 6, "--restarts", 3,
        ]) == 0
        lines = (ingested_ws / "sweep_k.txt").read_text().splitlines()
        assert lines[0] == "k,inertia"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, 7))
        inertias = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(inertias, inertias[1:]))
        runs = json.loads((ingested_ws / "manifest.json").read_text())["results"]["kmeans_runs"]
        assert sorted(runs, key=int) == [str(k) for k in range(1, 7)]
        # three k-means++ restarts per k, plus the warm start (seed null) after k = 1
        assert [r["seed"] for r in runs["1"]] == [0, 1, 2]
        assert all([r["seed"] for r in runs[str(k)]] == [0, 1, 2, None] for k in range(2, 7))

    def test_single_k(self, ingested_ws):
        assert run([
            "sweep-k", "--workspace", ingested_ws, "-M", 4,
            "--k-min", 3, "--k-max", 3, "--restarts", 2,
        ]) == 0
        assert len((ingested_ws / "sweep_k.txt").read_text().splitlines()) == 2
        manifest = json.loads((ingested_ws / "manifest.json").read_text())
        assert "load" in manifest["timings"]["stages_s"]

    def test_k_max_beyond_users_exits_1(self, ingested_ws):
        assert run([
            "sweep-k", "--workspace", ingested_ws, "-M", 4,
            "--k-min", 1, "--k-max", 10_000,
        ]) == 1


class TestBenchCommand:
    def test_single_m_row(self, ingested_ws):
        assert run([
            "bench-m", "--workspace", ingested_ws, "--m-list", "4",
            "--repeats", 2, "-K", 3, "--restarts", 2,
        ]) == 0
        lines = (ingested_ws / "bench_m.txt").read_text().splitlines()
        assert lines[0].startswith("m,weighting_median_s")
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "4"
        total_min, total_max = float(row[5]), float(row[6])
        assert total_min <= float(row[4]) <= total_max
        manifest = json.loads((ingested_ws / "manifest.json").read_text())
        assert "load" in manifest["timings"]["stages_s"]

    def test_default_m_list_mirrors_benchmark_rows(self):
        parser = cli.build_parser()
        args = parser.parse_args(["bench-m", "--workspace", "x"])
        assert args.m_list == "100,200,300,400,500,600,700,800"

    def test_bad_m_list_exits_1(self, ingested_ws):
        assert run(["bench-m", "--workspace", ingested_ws, "--m-list", "a,b"]) == 1


PIPELINE_ARGV = {
    "cluster": ["cluster", "-M", 1, "-K", 1],
    "sweep-k": ["sweep-k", "-M", 1, "--k-min", 1, "--k-max", 1],
    "bench-m": ["bench-m", "--m-list", "1", "--repeats", 1, "-K", 1],
}


class TestPipelineRunner:
    """What cluster, sweep-k and bench-m share: manifests, checks, weighting errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "-M", 4, "-K", 4, "--scale-features"],
            ["sweep-k", "-M", 4, "--k-max", 3],
            ["bench-m", "--m-list", "4", "--repeats", 1, "-K", 3],
        ],
        ids=["cluster", "sweep-k", "bench-m"],
    )
    def test_manifest_params_are_the_parsed_arguments(self, ingested_ws, argv):
        argv = [str(a) for a in [*argv, "--workspace", ingested_ws, "--restarts", 2]]
        assert run(argv) == 0
        params = json.loads((ingested_ws / "manifest.json").read_text())["params"]
        expected = vars(cli.build_parser().parse_args(argv))
        del expected["func"], expected["command"]
        if argv[0] == "bench-m":
            expected["m_list"] = [4]
        assert params == expected
        assert "scale_features" in params

    @pytest.mark.parametrize("command", sorted(PIPELINE_ARGV))
    def test_manifest_records_svd_blas_threads(self, ingested_ws, monkeypatch, command):
        argv = [*PIPELINE_ARGV[command], "--workspace", ingested_ws]
        pinned = None if _kernels._openblas_threads() is None else 1
        assert run(argv) == 0
        results = json.loads((ingested_ws / "manifest.json").read_text())["results"]
        assert results["svd_blas_threads"] == pinned
        monkeypatch.setattr(_kernels, "_openblas_threads", lambda: None)
        assert run(argv) == 0
        results = json.loads((ingested_ws / "manifest.json").read_text())["results"]
        assert results["svd_blas_threads"] is None

    def test_bench_k_beyond_weighted_users_exits_1(self, ingested_ws, capsys):
        argv = ["bench-m", "--workspace", ingested_ws, "--m-list", "4", "-K", 10_000]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: K=10000 outside [1, 80]")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(PIPELINE_ARGV))
    def test_unvisited_domain_exits_2(self, tmp_path, capsys, command):
        ws = tmp_path / "ws"
        write_profile(ws, [[1, 2, 0], [3, 0, 0], [0, 4, 0]])
        assert run([*PIPELINE_ARGV[command], "--workspace", ws]) == 2
        assert capsys.readouterr().err == "data error: matrix has a domain no user visited\n"

    @pytest.mark.parametrize("command", sorted(PIPELINE_ARGV))
    def test_feature_matrix_with_no_entries_exits_2(self, tmp_path, capsys, command):
        ws = tmp_path / "ws"
        write_profile(ws, np.ones((3, 3)))  # every user visits every domain: every IDF is 0
        assert run([*PIPELINE_ARGV[command], "--workspace", ws]) == 2
        assert capsys.readouterr().err == "data error: the tfidf feature matrix stores no entries\n"
        assert not (ws / "manifest.json").exists()

    @pytest.mark.parametrize("command", sorted(PIPELINE_ARGV))
    def test_svd_failure_exits_2(self, ingested_ws, capsys, monkeypatch, command):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        assert run([*PIPELINE_ARGV[command], "--workspace", ingested_ws]) == 2
        assert capsys.readouterr().err == (
            "data error: truncated SVD failed: SVD did not converge\n")

    def test_tf_underflow_exits_2(self, tmp_path, capsys):
        # the 1e-320 s share of u1's time underflows to 0, whose log is -inf
        log = tmp_path / "durations.csv"
        log.write_text(
            SESSION_HEADER
            + "u1,2014-09-01T00:00:00Z,1e-320,lab,a.com,isp,1,web,10\n"
            + "u1,2014-09-01T01:00:00Z,1e10,lab,b.com,isp,1,web,10\n"
        )
        ws = tmp_path / "ws"
        assert run(["ingest", "--workspace", ws, "--sessions", log, "--metric", "duration"]) == 0
        assert run([*PIPELINE_ARGV["cluster"], "--workspace", ws]) == 2
        assert capsys.readouterr().err == "data error: TF weight of user 'u1' is not finite\n"

    def test_svd_over_byte_cap_runs_randomized(self, ingested_ws, monkeypatch):
        argv = ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4]
        assert run(argv) == 0
        results = json.loads((ingested_ws / "manifest.json").read_text())["results"]
        assert results["svd_method"] == "exact"
        dense_bytes = SPEC["n_users"] * SPEC["n_domains"] * 8
        monkeypatch.setattr(lsa, "EXACT_METHOD_MAX_BYTES", dense_bytes - 1)
        assert run(argv) == 0
        results = json.loads((ingested_ws / "manifest.json").read_text())["results"]
        assert results["svd_method"] == "randomized"

    def test_spend_total_beyond_float64_exits_2(self, tmp_path, ingested_ws, capsys):
        tx = tmp_path / "tx.csv"
        tx.write_text("user_id,timestamp,amount\n" + "u00000,2014-09-01T00:00:00Z,1e308\n" * 2)
        argv = ["cluster", "--workspace", ingested_ws, "--transactions", tx, "-M", 4, "-K", 4]
        written = {p.name: p.read_bytes() for p in ingested_ws.iterdir() if p.is_file()}
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "data error: amount total of user 'u00000' is beyond the float64 range\n"
        )
        assert {p.name: p.read_bytes() for p in ingested_ws.iterdir() if p.is_file()} == written

    def test_hand_written_profile_total_beyond_float64_exits_2(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        write_profile(ws, np.full((4, 3), 1e308))
        assert run(["cluster", "--workspace", ws, "-M", 2, "-K", 2]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: corrupt profile matrix")
        assert "activity total of user 'u0' is beyond the float64 range" in err
        assert err.count("\n") == 1


# a file each command writes by os.replace
REPLACED_FILE = {"synth": "truth.csv", "ingest": "domain_stats.txt", "cluster": "assignments.csv"}


class TestUnusableOutputPath:
    """An output path a command cannot create or replace is a data error:
    exit 2 and one stderr line naming the path, never a traceback."""

    @staticmethod
    def argv(command, out, tmp_path, synth_ws, ingested_ws):
        if command == "synth":
            return ["synth", "--spec", write_spec(tmp_path), "--out-dir", out]
        if command == "ingest":
            return ["ingest", "--workspace", out, "--sessions", synth_ws / "sessions.csv"]
        return ["cluster", "--workspace", ingested_ws, "--out-dir", out, "-M", 4, "-K", 4]

    @pytest.mark.parametrize("command", list(REPLACED_FILE))
    @pytest.mark.parametrize("case", ["regular file", "below a regular file", "directory in place"])
    def test_exits_2_with_one_line(self, tmp_path, synth_ws, ingested_ws, capsys, command, case):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        if case == "regular file":
            out = path = blocker
            error = errno.EEXIST
        elif case == "below a regular file":
            out = path = blocker / "out"
            error = errno.ENOTDIR
        else:
            out = tmp_path / "out"
            path = out / REPLACED_FILE[command]
            path.mkdir(parents=True)
            error = errno.EISDIR
        capsys.readouterr()
        assert run(self.argv(command, out, tmp_path, synth_ws, ingested_ws)) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"data error: {path}: {os.strerror(error)}"]
        assert "Traceback" not in err
        assert not (out / ".lock").exists() and path.is_dir() == (case == "directory in place")


INPUT_FLAGS = ("--spec", "--sessions", "--raw-events", "--demographics", "--transactions")


def input_run(flag, synth_ws, ingested_ws):
    """(content, argv of a run that reads it at ``path`` and writes ``out``,
    the outputs that depend on it) for an input flag."""
    if flag == "--spec":
        return (json.dumps(SPEC).encode(), lambda path, out: ["synth", flag, path, "--out-dir", out],
                ("sessions.csv", "truth.csv"))
    if flag in ("--sessions", "--raw-events"):
        data = (synth_ws / "sessions.csv").read_bytes() if flag == "--sessions" else RAW_EVENTS.encode()
        return data, lambda path, out: ["ingest", "--workspace", out, flag, path], PROFILE_FILES
    data = (DEMOGRAPHICS if flag == "--demographics" else TRANSACTIONS).encode()
    return data, lambda path, out: ["cluster", "--workspace", ingested_ws, "--out-dir", out,
                                    "-M", 4, "-K", 4, flag, path], ("summary.json",)


class TestInputPaths:
    """Every input file is read once, in order, so a pipe serves as well as
    a file; only a path that does not exist is "not found"."""

    @pytest.mark.parametrize("flag", INPUT_FLAGS)
    def test_fifo_reads_as_its_file(self, tmp_path, synth_ws, ingested_ws, flag):
        data, argv, outputs = input_run(flag, synth_ws, ingested_ws)
        (tmp_path / "input").write_bytes(data)
        assert run(argv(tmp_path / "input", tmp_path / "from_file")) == 0
        fifo = tmp_path / "input.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            assert run(argv(fifo, tmp_path / "from_fifo")) == 0
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        for name in outputs:
            expected = (tmp_path / "from_file" / name).read_bytes()
            assert (tmp_path / "from_fifo" / name).read_bytes() == expected, name

    @pytest.mark.parametrize("flag", INPUT_FLAGS)
    def test_directory_exits_2_naming_it(self, tmp_path, synth_ws, ingested_ws, capsys, flag):
        _, argv, _ = input_run(flag, synth_ws, ingested_ws)
        capsys.readouterr()
        assert run(argv(tmp_path, tmp_path / "out")) == 2
        what = flag.removeprefix("--").replace("-", " ")
        assert capsys.readouterr().err == f"data error: {what} path is a directory: {tmp_path}\n"

    def test_dev_null_reads_as_a_header_only_log(self, tmp_path):
        header = tmp_path / "header.csv"
        header.write_text(SESSION_HEADER)
        for source, ws in ((header, tmp_path / "header"), (os.devnull, tmp_path / "null")):
            assert run(["ingest", "--workspace", ws, "--sessions", source]) == 0
        for name in [*PROFILE_FILES, "domain_stats.txt"]:
            assert (tmp_path / "null" / name).read_bytes() == (tmp_path / "header" / name).read_bytes()

    def test_missing_side_file_is_not_found(self, tmp_path, ingested_ws, capsys):
        gone = tmp_path / "gone.csv"
        assert run(["cluster", "--workspace", ingested_ws, "--demographics", gone]) == 2
        assert capsys.readouterr().err == f"data error: demographics file not found: {gone}\n"

    @pytest.mark.parametrize("bad", ["missing", "directory"])
    @pytest.mark.parametrize("flag", ["--demographics", "--transactions"])
    def test_bad_side_path_keeps_the_last_manifest(self, tmp_path, ingested_ws, flag, bad):
        argv = ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 3]
        assert run(argv) == 0
        manifest = (ingested_ws / "manifest.json").read_bytes()
        path = tmp_path / "missing.csv" if bad == "missing" else tmp_path
        assert run([*argv, flag, path]) == 2
        assert (ingested_ws / "manifest.json").read_bytes() == manifest


class TestStageTimings:
    def test_every_stage_has_cpu_time_and_peak_memory(self, tmp_path, synth_ws, ingested_ws):
        demo, tx = tmp_path / "demo.csv", tmp_path / "tx.csv"
        demo.write_text(DEMOGRAPHICS)
        tx.write_text(TRANSACTIONS)
        runs = {
            "cluster": ["-M", 4, "-K", 4, "--demographics", demo, "--transactions", tx],
            "sweep-k": ["-M", 4, "--k-max", 3, "--restarts", 2],
            "bench-m": ["--m-list", "3,4", "--repeats", 2, "-K", 3, "--restarts", 2],
        }
        manifests = [synth_ws / "synth_manifest.json", ingested_ws / "ingest_manifest.json"]
        for command, flags in runs.items():
            out = tmp_path / command
            assert run([command, "--workspace", ingested_ws, "--out-dir", out, *flags]) == 0
            manifests.append(out / "manifest.json")
        for path in manifests:
            timings = json.loads(path.read_text())["timings"]
            stages = set(timings["stages_s"])
            assert stages and set(timings["stages_cpu_s"]) == stages, path
            assert set(timings["stages_peak_rss_mb"]) == stages, path
            assert min(timings["stages_cpu_s"].values()) >= 0
            peaks = timings["stages_peak_rss_mb"].values()
            assert 0 < min(peaks) and max(peaks) <= timings["peak_rss_mb"]

    @pytest.mark.parametrize("repeats", [3, 4])
    def test_bench_medians_are_the_middle_samples(self, ingested_ws, monkeypatch, repeats):
        watches = []

        class Recorded(cli._Stopwatch):
            def __init__(self):
                super().__init__()
                self.totals = []
                watches.append(self)

            def total(self):
                self.totals.append(super().total())
                return self.totals[-1]

        monkeypatch.setattr(cli, "_Stopwatch", Recorded)
        argv = ["bench-m", "--workspace", ingested_ws, "--m-list", "3,4", "--repeats", repeats,
                "-K", 3, "--restarts", 1]
        assert run(argv) == 0
        rows = json.loads((ingested_ws / "manifest.json").read_text())["results"]["rows"]
        reps = watches[1:]  # the first times the whole command
        assert len(reps) == len(rows) * repeats
        for row, start in zip(rows, range(0, len(reps), repeats)):
            group = reps[start:start + repeats]
            for stage in ("weighting", "lsa", "cluster"):
                expected = statistics.median(w.stages[stage] for w in group)
                assert row[f"{stage}_median_s"] == expected, stage
            assert row["total_median_s"] == statistics.median(w.totals[0] for w in group)


def run_program(argv, entry=("-m", "usertopics.cli")):
    """Run ``python -m usertopics.cli``, or ``python *entry``, on ``argv`` in a
    fresh interpreter."""
    env = dict(os.environ)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *entry, *map(str, argv)],
                          env=env, capture_output=True, text=True)


class TestFrozenExit:
    """Run as a program, a command freezes its heap before it exits, and the
    exit then skips collecting it: nothing may wait for that collection."""

    def test_programs_print_log_and_write_everything(self, tmp_path):
        synth, ws = tmp_path / "synth", tmp_path / "ws"
        proc = run_program(["synth", "--spec", write_spec(tmp_path), "--out-dir", synth])
        assert proc.returncode == 0 and proc.stdout.splitlines()[-1].startswith("generated ")
        log = tmp_path / "log.csv"
        zero_row = "u00000,2014-09-01T00:00:00Z,60,lab,zero.example,isp,1,web,0\n"
        log.write_bytes((synth / "sessions.csv").read_bytes() + zero_row.encode())
        proc = run_program(["ingest", "--workspace", ws, "--sessions", log])
        assert proc.returncode == 0 and proc.stdout.splitlines()[-1].startswith("ingested ")
        warning = "WARNING usertopics.ingest: dropping 1 domain(s) with zero total bytes"
        assert warning in proc.stderr.splitlines()
        proc = run_program(["cluster", "--workspace", ws, "-M", 4, "-K", 4])
        assert proc.returncode == 0 and proc.stdout.splitlines()[-1].startswith("clustered ")
        for path in (synth / "synth_manifest.json", ws / "ingest_manifest.json",
                     ws / "manifest.json"):
            assert isinstance(json.loads(path.read_text()), dict), path
        proc = run_program(["ingest", "--workspace", ws, "--sessions", tmp_path / "gone.csv"])
        assert proc.returncode == 2
        assert proc.stderr == f"data error: sessions file not found: {tmp_path / 'gone.csv'}\n"
        proc = run_program(["cluster", "-K", 4])
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1

    def test_the_entry_point_freezes_before_the_exit(self, tmp_path):
        code = ("import atexit, gc\n"
                "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
                "from usertopics import cli\ncli.run()\n")
        argv = ["synth", "--spec", write_spec(tmp_path), "--out-dir", tmp_path / "synth"]
        proc = run_program(argv, entry=("-c", code))
        assert proc.returncode == 0, proc.stderr
        *_, generated, frozen = proc.stdout.splitlines()
        assert generated.startswith("generated ") and frozen == "True"

    def test_no_output_waits_for_a_finalizer(self, tmp_path):
        demo, tx = tmp_path / "demo.csv", tmp_path / "tx.csv"
        demo.write_text(DEMOGRAPHICS)
        tx.write_text(TRANSACTIONS)
        synth, ws = tmp_path / "synth", tmp_path / "ws"
        pipeline = ["--workspace", ws, "-M", 4]
        runs = (
            ["synth", "--spec", write_spec(tmp_path), "--out-dir", synth],
            ["ingest", "--workspace", ws, "--sessions", synth / "sessions.csv"],
            ["cluster", *pipeline, "-K", 4, "--demographics", demo, "--transactions", tx],
            ["sweep-k", *pipeline, "--k-max", 3, "--restarts", 2],
            ["bench-m", "--workspace", ws, "--m-list", "4", "--repeats", 2, "--restarts", 2],
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for argv in runs:
                assert run(argv) == 0, argv
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_non_ascii_names_under_an_ascii_locale(tmp_path):
    """Workspace text files are UTF-8 whatever the locale's encoding."""
    rows = [
        ("u1", "a.com"), ("u1", "c.com"),
        ("ü2", "a.com"), ("ü2", "bücher.de"),
        ("u3", "a.com"), ("u3", "bücher.de"),
        ("u4", "a.com"), ("u4", "c.com"),
    ]
    log = tmp_path / "log.csv"
    log.write_text(
        SESSION_HEADER + "".join(
            f"{user},2014-09-01T0{i}:00:00Z,60,lab,{domain},isp,3,web,{100 * (i + 1)}\n"
            for i, (user, domain) in enumerate(rows)
        ),
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    ws = tmp_path / "ws"
    for argv in (
        ["ingest", "--workspace", ws, "--sessions", log],
        ["cluster", "--workspace", ws, "-M", 2, "-K", 2],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "usertopics.cli", *map(str, argv)],
            env=env, capture_output=True, text=True, encoding="utf-8", errors="replace",
        )
        assert proc.returncode == 0, proc.stderr
    for name, text in (("domain_stats.txt", "bücher.de"), ("assignments.csv", "ü2"),
                       ("report_topics.txt", "bücher.de")):
        assert text in (ws / name).read_bytes().decode("utf-8"), name


# what statistics.median once brought into every command
STATISTICS_IMPORTS = {"statistics", "fractions", "decimal"}


class TestImportFootprint:
    """A command loads only the stage modules it runs, and never scipy or
    the statistics module's decimal arithmetic."""

    def test_ingest_loads_no_other_stage(self, tmp_path, synth_ws):
        argv = ["ingest", "--workspace", tmp_path / "ws", "--sessions", synth_ws / "sessions.csv"]
        loaded = modules_after_main(argv)
        others = {f"usertopics.{name}" for name in STAGE_MODULES if name != "ingest"}
        assert "usertopics.ingest" in loaded
        assert not ({"scipy", *others, *STATISTICS_IMPORTS} & loaded)

    @pytest.mark.parametrize("command", ["synth", "cluster", "sweep-k"])
    def test_no_statistics_import(self, tmp_path, ingested_ws, command):
        demo, tx = tmp_path / "demo.csv", tmp_path / "tx.csv"
        demo.write_text(DEMOGRAPHICS)
        tx.write_text(TRANSACTIONS)
        argv = {
            "synth": ["synth", "--spec", write_spec(tmp_path), "--out-dir", tmp_path / "out"],
            "cluster": ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4,
                        "--demographics", demo, "--transactions", tx],
            "sweep-k": ["sweep-k", "--workspace", ingested_ws, "-M", 4, "--k-max", 3],
        }[command]
        assert not STATISTICS_IMPORTS & modules_after_main(argv)

    def test_randomized_cluster_leaves_scipy_unloaded(self, ingested_ws):
        argv = ["cluster", "--workspace", ingested_ws, "-M", 4, "-K", 4]
        randomized = "from usertopics import lsa\nlsa.EXACT_METHOD_MAX_DIM = 0"  # at any shape
        loaded = modules_after_main(argv, randomized)
        manifest = json.loads((ingested_ws / "manifest.json").read_text())
        assert manifest["results"]["svd_method"] == "randomized"
        assert "usertopics.lsa" in loaded
        assert not ({"scipy", "usertopics.ingest", "usertopics.synth"} & loaded)


class TestDefaults:
    def test_reference_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["cluster", "--workspace", "x"])
        assert args.m == 80 and args.k == 8 and args.restarts == 10
        assert args.weighting == "tfidf"
        args = parser.parse_args(["sweep-k", "--workspace", "x"])
        assert args.k_min == 1 and args.k_max == 13
        args = parser.parse_args(["ingest", "--workspace", "x"])
        assert args.gap == 300.0 and args.metric == "bytes"

    def test_usage_error_exit_code(self):
        assert cli.main(["cluster"]) == 1  # missing --workspace

    @pytest.mark.parametrize("command", ["ingest", "cluster"])
    @pytest.mark.parametrize("delimiter", ["::", ""])
    def test_bad_delimiter_is_usage_error(self, tmp_path, capsys, command, delimiter):
        argv = [command, "--workspace", tmp_path / "ws", f"--delimiter={delimiter}"]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --delimiter: bad delimiter")
        assert err.count("\n") == 1
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("cluster", "--restarts=0"),
            ("sweep-k", "--restarts=0"),
            ("bench-m", "--restarts=0"),
            ("cluster", "--max-iter=-1"),
            ("cluster", "--tol=-1e-6"),
            ("cluster", "--tol=inf"),
            ("cluster", "--top-n=-1"),
            ("cluster", "--top-n=0"),
            ("bench-m", "--repeats=0"),
            ("ingest", "--gap=nan"),
            ("cluster", "--seed=-1"),
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, command, flag):
        assert run([command, flag, "--workspace", tmp_path / "ws"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: argument {flag.split('=')[0]}: must be")
        assert err.count("\n") == 1
        assert not (tmp_path / "ws").exists()

    def test_seed_comes_from_the_flag_alone(self, tmp_path, monkeypatch, synth_ws):
        monkeypatch.setenv("USERTOPICS_SEED", "-5")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        ws = tmp_path / "ws"
        assert run(["ingest", "--workspace", ws, "--sessions", synth_ws / "sessions.csv"]) == 0
        assert run(["cluster", "--workspace", ws, "-M", "3", "-K", "3"]) == 0
        assert json.loads((ws / "manifest.json").read_text())["params"]["seed"] == 0

    def test_env_out_dir_override(self, monkeypatch):
        monkeypatch.setenv("USERTOPICS_OUT", "/tmp/elsewhere")
        parser = cli.build_parser()
        args = parser.parse_args(["cluster", "--workspace", "x"])
        assert args.out_dir == "/tmp/elsewhere"
