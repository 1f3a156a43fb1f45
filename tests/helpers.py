"""Shared record factories, small corpus builders, csv text helpers and a
fresh-interpreter module probe for the tests."""

from __future__ import annotations

import contextlib
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import usertopics
from usertopics.ingest import (
    _SESSION_FIELDS,
    _STRING_FIELDS,
    SessionTable,
    _int_array,
    build_profile_matrix,
)

from oracles import SessionRecord


def make_session(user="u1", domain="example.com", bytes=100, t=0, duration=60.0,
                 requests=1):
    return SessionRecord(
        user_id=user,
        start_time=t,
        duration=duration,
        domain=domain,
        http_requests=requests,
        bytes=bytes,
    )


def make_event(user="u1", t=0, domain="example.com", bytes=10, requests=1):
    """A raw event: a session of duration 0."""
    return SessionRecord(
        user_id=user, start_time=t, duration=0.0, domain=domain, http_requests=requests,
        bytes=bytes,
    )


def session_table(records):
    """Encode session records (any objects with the SessionRecord fields) as a table."""
    records = list(records)
    columns, names = {}, {}
    for name in _SESSION_FIELDS:
        values = [getattr(r, name) for r in records]
        if name in _STRING_FIELDS:
            names[name], values = values, np.arange(len(values))
        elif name == "duration":
            values = np.array(values, dtype=np.float64)
        else:
            values = _int_array(values)
        columns[name] = values
    return SessionTable.encoded(columns, names)


def matrix_from_dense(dense, metric="bytes"):
    """Profile matrix whose dense form equals ``dense`` (integer entries)."""
    dense = np.asarray(dense)
    sessions = []
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            if dense[i, j] > 0:
                sessions.append(
                    make_session(
                        user=f"u{i:04d}", domain=f"d{j:04d}", bytes=int(dense[i, j])
                    )
                )
        if not dense[i].any():
            # keep the user present through a zero-byte session
            sessions.append(make_session(user=f"u{i:04d}", domain="d0000", bytes=0))
    return build_profile_matrix(session_table(sessions), metric=metric)


def random_dense_positive(rng, max_users=10, max_domains=10, density=0.6,
                          low=1, high=1000):
    """Random small non-negative integer matrix with no all-zero rows."""
    n = int(rng.integers(2, max_users + 1))
    d = int(rng.integers(2, max_domains + 1))
    dense = np.zeros((n, d), dtype=np.int64)
    for i in range(n):
        while not dense[i].any():
            mask = rng.random(d) < density
            dense[i, mask] = rng.integers(low, high + 1, size=int(mask.sum()))
    return dense


def write_row(out, row, delimiter, ending="\n", quote_all=False):
    quoting = csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL
    csv.writer(out, delimiter=delimiter, lineterminator=ending, quoting=quoting).writerow(row)


def text_stream(text, newline=""):
    """A text stream over ``text``: with ``newline=""`` lines end at LF, CRLF
    and CR, as in a file the parsers open; with LF or CR only there."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8",
                            newline=newline)


@contextlib.contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


# the profile matrix files ingest writes
PROFILE_FILES = (
    "profile.indptr.npy", "profile.indices.npy", "profile.data.npy", "profile.meta.json",
)

# the files a cluster run writes besides its manifest; criterion 8 tracks them
CLUSTER_OUTPUTS = (
    "feature.indptr.npy", "feature.indices.npy", "feature.data.npy",
    "feature.meta.json",
    "lsa.U.npy", "lsa.sigma.npy", "lsa.V.npy",
    "assignments.csv", "centroids.txt",
    "report_topics.txt", "report_gender.txt", "report_birth_years.txt",
    "report_spend.txt", "summary.json",
)

# the modules a command imports only when it runs their stage
STAGE_MODULES = ("clustering", "ingest", "lsa", "reporting", "synth", "weighting")


def loaded_modules(code: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; return the names it left in sys.modules."""
    src = str(Path(usertopics.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = f"import sys\n{code}\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())
