"""Independent reference computations the implementation is checked against.

Everything here is deliberately naive: scalar arithmetic, exhaustive
enumeration, pair counting, one record per row. None of it shares code
with the package beyond the record and report types, the scalar helpers
``parse_timestamp`` and ``normalize_domain``, and the constants (the
``*_COLUMNS`` schemas and ``synth._BASE_EPOCH``). The decoding, comparison
and recovery helpers at the end serve only the tests.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, getcontext

import numpy as np

getcontext().prec = 60


def tf_oracle(dense_row):
    """High-precision 1 + ln(share) per positive entry of one row."""
    total = Decimal(0)
    for v in dense_row:
        total += Decimal(int(v))
    out = {}
    for j, v in enumerate(dense_row):
        if v > 0:
            out[j] = Decimal(1) + (Decimal(int(v)) / total).ln()
    return out


def idf_oracle(dense, base_users=None):
    """High-precision ln(N_u / n_j) per column of a dense integer matrix."""
    n_users = base_users if base_users is not None else len(dense)
    out = {}
    for j in range(len(dense[0])):
        n_j = sum(1 for row in dense if row[j] > 0)
        if n_j:
            out[j] = (Decimal(n_users) / Decimal(n_j)).ln()
    return out


def tfidf_oracle(dense):
    """High-precision TF * IDF for every positive entry of a dense matrix."""
    idf = idf_oracle(dense)
    out = {}
    for i, row in enumerate(dense):
        tf = tf_oracle(row)
        for j, t in tf.items():
            out[(i, j)] = t * idf[j]
    return out


def nearest_centroid_loop(points, centroids):
    """Nearest centroid per point: one einsum distance pass per centroid.

    Centroids are taken in index order and only a strictly smaller distance
    replaces the best so far, so ties go to the lowest index. Returns
    (labels int64, squared distance); a point no distance beats inf for
    keeps label 0 and distance inf.
    """
    n = points.shape[0]
    best = np.full(n, np.inf)
    labels = np.zeros(n, dtype=np.int64)
    for j in range(centroids.shape[0]):
        diff = points - centroids[j]
        d = np.einsum("ij,ij->i", diff, diff)
        closer = d < best
        best[closer] = d[closer]
        labels[closer] = j
    return labels, best


def partition_inertia(points, labels):
    """Objective of an explicit labeling: per-group mean distances."""
    total = 0.0
    for lab in set(labels):
        members = points[[i for i, l in enumerate(labels) if l == lab]]
        center = members.mean(axis=0)
        total += float(((members - center) ** 2).sum())
    return total


def optimal_inertia(points, k):
    """Exhaustive minimum over all partitions into at most k groups.

    Enumerates restricted-growth strings, so each partition is visited
    once; fine up to ~10 points.
    """
    n = len(points)
    best = float("inf")
    labels = [0] * n

    def recurse(i, max_used):
        nonlocal best
        if i == n:
            best = min(best, partition_inertia(points, labels))
            return
        limit = min(max_used + 1, k - 1)
        for lab in range(limit + 1):
            labels[i] = lab
            recurse(i + 1, max(max_used, lab))

    recurse(0, -1)
    return best


def ari_pair_counting(a, b):
    """Adjusted Rand index via direct O(n^2) pair enumeration."""
    n = len(a)
    both = a_only = b_only = neither = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                both += 1
            elif same_a:
                a_only += 1
            elif same_b:
                b_only += 1
            else:
                neither += 1
    denom = (both + a_only) * (a_only + neither) + (both + b_only) * (b_only + neither)
    if denom == 0:
        return 1.0
    return 2.0 * (both * neither - a_only * b_only) / denom


def spearman_rho(xs, ys):
    """Spearman rank correlation without ties handling (values distinct)."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0] * len(vals)
        for rank, idx in enumerate(order):
            r[idx] = rank
        return r

    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(rx)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def dense_to_feature(dense, provenance="tfidf"):
    """Wrap a dense array in a FeatureMatrix (test plumbing)."""
    from usertopics.matrix import FeatureMatrix, csr_from_triplets

    dense = np.asarray(dense, dtype=np.float64)
    n, d = dense.shape
    rows, cols = np.nonzero(dense)
    indptr, indices, data = csr_from_triplets(n, d, rows, cols, dense[rows, cols])
    return FeatureMatrix(
        n_users=n,
        n_domains=d,
        indptr=indptr,
        indices=indices,
        data=data,
        users=tuple(f"u{i:04d}" for i in range(n)),
        domains=tuple(f"d{j:04d}" for j in range(d)),
        provenance=provenance,
    )


def open_rows(source, delimiter, columns):
    """Yield (line_number, row) of each non-blank csv record after the header.

    The row-by-row reference for the ingest chunk reader: ``source`` is a
    path or a text stream, line numbers are csv record numbers (header = 1,
    blank rows counted). A header that does not name ``columns`` raises
    ``ParseError``, and so does a record the csv reader cannot read,
    naming its line.
    """
    from usertopics.ingest import ParseError

    if not hasattr(source, "read"):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            yield from open_rows(fh, delimiter, columns)
        return
    reader = csv.reader(source, delimiter=delimiter)
    for line_no in itertools.count(1):
        try:
            row = next(reader, None)
        except (csv.Error, ValueError, OSError) as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
        if row is None:
            return
        if line_no == 1:
            if tuple(h.strip().lower() for h in row) != columns:
                raise ParseError(f"bad header: expected {','.join(columns)}, got {','.join(row)}")
        elif row and not (len(row) == 1 and not row[0].strip()):
            yield line_no, row


def _rows_parser(source, delimiter, columns, convert, fail_fast):
    """(records, errors) of ``convert`` over the rows of ``open_rows``."""
    from usertopics.ingest import ParseError

    records, errors = [], []
    for line_no, row in open_rows(source, delimiter, columns):
        try:
            if len(row) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
            record = convert(row)
        except (ValueError, OverflowError) as exc:
            if fail_fast:
                raise ParseError(f"line {line_no}: {exc}") from exc
            errors.append((line_no, str(exc)))
            continue
        records.append(record)
    return records, errors


def parse_sessions_rows(source, *, delimiter=",", fail_fast=False, truncate_domains=False):
    """Row-by-row session-log parser: (records, errors).

    The reference for ``ingest.parse_sessions``: each row of ``open_rows``
    becomes one ``SessionRecord``; its location, isp and service_class
    fields are not read. With ``fail_fast`` the first bad row
    raises ``ParseError("line N: ...")``.
    """
    from usertopics.ingest import SESSION_COLUMNS, normalize_domain, parse_timestamp
    from usertopics.records import SessionRecord

    def convert(row):
        return SessionRecord(
            user_id=row[0].strip(),
            start_time=parse_timestamp(row[1]),
            duration=float(row[2]),
            domain=normalize_domain(row[4], truncate=truncate_domains),
            http_requests=int(row[6]),
            bytes=int(row[8]),
        )

    return _rows_parser(source, delimiter, SESSION_COLUMNS, convert, fail_fast)


@dataclass(frozen=True)
class DemographicRow:
    """One accepted demographics row; optional fields are None when absent."""

    user_id: str
    gender: str
    birth_year: int | None
    enrol_year: int | None
    degree_type: str | None


@dataclass(frozen=True)
class TransactionRow:
    """One accepted transactions row."""

    user_id: str
    timestamp: int
    amount: float


GENDER_NAMES = ("male", "female", "unknown")


def parse_side_rows(columns, source, *, delimiter=",", fail_fast=False, truncate_domains=False):
    """Row-by-row demographics, transactions or raw-event parser, picked by
    ``columns``: (records, errors, warnings).

    The reference for ``ingest.parse_demographics`` (a repeated user_id
    replaces the earlier record with a warning), ``parse_transactions`` (an
    amount total beyond float64, per user in user_id order or over all
    users, raises ParseError) and ``parse_raw_events`` (each event a
    SessionRecord of duration 0). Side rows become a ``DemographicRow`` or
    a ``TransactionRow``; :func:`side_table` reduces them per user.
    """
    from usertopics.ingest import (
        DEMOGRAPHIC_COLUMNS,
        TRANSACTION_COLUMNS,
        ParseError,
        normalize_domain,
        parse_timestamp,
    )
    from usertopics.records import SessionRecord

    def optional_int(text):
        return int(text) if text.strip() else None

    def convert(row):
        if columns == DEMOGRAPHIC_COLUMNS:
            birth_year = optional_int(row[2])
            if birth_year is not None and not 1900 <= birth_year <= 2100:
                raise ValueError(f"birth_year {birth_year} outside plausible range")
            record = DemographicRow(row[0].strip(), row[1].strip().lower() or "unknown",
                                    birth_year, optional_int(row[3]), row[4].strip() or None)
            if record.gender not in GENDER_NAMES:
                raise ValueError(f"unknown gender value: {record.gender!r}")
        elif columns == TRANSACTION_COLUMNS:
            record = TransactionRow(row[0].strip(), parse_timestamp(row[1]), float(row[2]))
            if not math.isfinite(record.amount):
                raise ValueError(f"non-finite amount: {record.amount}")
            if record.amount < 0:
                raise ValueError(f"negative amount: {record.amount}")
        else:
            # a raw event: fields converted in file order, then a session of duration 0
            user_id, timestamp, domain, nbytes, requests = (
                row[0].strip(), parse_timestamp(row[1]),
                normalize_domain(row[2], truncate=truncate_domains), int(row[3]), int(row[4]))
            return SessionRecord(user_id, timestamp, 0.0, domain, requests, nbytes)
        if not record.user_id.strip():
            raise ValueError("empty user_id")
        return record

    records, errors = _rows_parser(source, delimiter, columns, convert, fail_fast)
    warnings = []
    if columns == DEMOGRAPHIC_COLUMNS:
        last = {}
        for record in records:
            if record.user_id in last:
                warnings.append(f"duplicate user_id {record.user_id!r}: keeping the last row")
            last[record.user_id] = record
        records = list(last.values())
    if columns == TRANSACTION_COLUMNS:
        by_user = {}
        for t in records:
            by_user.setdefault(t.user_id, []).append(t.amount)
        sums = [(f"amount total of user {user!r}", a) for user, a in sorted(by_user.items())]
        sums.append(("amount total over all users", [t.amount for t in records]))
        for what, amounts in sums:
            try:
                math.fsum(amounts)
            except OverflowError:
                raise ParseError(f"{what} is beyond the float64 range") from None
    return records, errors, warnings


def side_table(columns, records):
    """The UserTable that parse_demographics or parse_transactions (picked
    by ``columns``) keeps of the records ``parse_side_rows`` accepts: one row
    per user, users sorted; a gender index into GENDER_NAMES and a birth
    year (0 for none), or the math.fsum total of the user's amounts."""
    from usertopics.ingest import DEMOGRAPHIC_COLUMNS
    from usertopics.records import UserTable

    if columns == DEMOGRAPHIC_COLUMNS:
        last = {r.user_id: r for r in records}
        users = sorted(last)
        return UserTable(tuple(users), {
            "gender": np.array([GENDER_NAMES.index(last[u].gender) for u in users],
                               dtype=np.int64),
            "birth_year": np.array([last[u].birth_year or 0 for u in users], dtype=np.int64),
        })
    amounts = {}
    for t in records:
        amounts.setdefault(t.user_id, []).append(t.amount)
    users = sorted(amounts)
    totals = [math.fsum(amounts[u]) for u in users]
    return UserTable(tuple(users), {"amount": np.array(totals, dtype=np.float64)})


def gender_breakdown_join(labels, k, user_ids, demographics):
    """reporting.gender_breakdown over DemographicRows, joined through a dict."""
    from usertopics.reporting import GenderReport

    genders = {rec.user_id: rec.gender for rec in demographics}
    males = np.zeros(k, dtype=np.int64)
    females = np.zeros(k, dtype=np.int64)
    unknown = np.zeros(k, dtype=np.int64)
    for uid, lab in zip(user_ids, labels):
        g = genders.get(uid, "unknown")
        if g == "male":
            males[lab] += 1
        elif g == "female":
            females[lab] += 1
        else:
            unknown[lab] += 1
    fractions = []
    for g in range(k):
        known = males[g] + females[g]
        fractions.append(float(males[g] / known) if known else None)
    total_known = int(males.sum() + females.sum())
    overall = float(males.sum() / total_known) if total_known else None
    return GenderReport(males=males, females=females, unknown=unknown, fractions=fractions,
                        overall_fraction=overall)


def birth_year_distribution_join(labels, k, user_ids, demographics):
    """reporting.birth_year_distribution over DemographicRows, joined through a dict."""
    from usertopics.reporting import BirthYearReport

    by_user = {rec.user_id: rec.birth_year for rec in demographics}
    pairs = [
        (int(lab), by_user[uid])
        for uid, lab in zip(user_ids, labels)
        if by_user.get(uid) is not None
    ]
    years = tuple(sorted({year for _, year in pairs}))
    pos = {y: i for i, y in enumerate(years)}
    counts = np.zeros((k, len(years)), dtype=np.int64)
    for lab, year in pairs:
        counts[lab, pos[year]] += 1
    row_totals = counts.sum(axis=1)
    normalized = counts / np.maximum(row_totals, 1)[:, None]
    return BirthYearReport(years=years, counts=counts, normalized=normalized)


def spend_distribution_join(labels, k, user_ids, transactions):
    """reporting.spend_distribution over TransactionRows, joined through a
    dict and summed per user with math.fsum."""
    from usertopics.reporting import SpendReport

    spent = {}
    for t in transactions:
        spent.setdefault(t.user_id, []).append(t.amount)
    totals = np.array([math.fsum(spent.get(uid, ())) for uid in user_ids])
    top = float(totals.max()) if totals.size and totals.max() > 0 else 1.0
    edges = np.linspace(0.0, top, 11)
    n_bins = edges.size - 1
    pos = np.clip(np.searchsorted(edges, totals, side="right") - 1, 0, n_bins - 1)
    counts = np.zeros((k, n_bins), dtype=np.int64)
    np.add.at(counts, (labels, pos), 1)
    sums = np.zeros(k)
    np.add.at(sums, labels, totals)
    sizes = np.bincount(labels, minlength=k)
    means = sums / np.maximum(sizes, 1)
    return SpendReport(edges=edges, counts=counts, means=means, totals=totals)


def profile_oracle(sessions, metric="bytes"):
    """Dict-of-lists aggregation with math.fsum per (user, domain) cell."""
    from usertopics.matrix import ProfileMatrix, csr_from_triplets

    def value(s):
        if metric == "bytes":
            return float(s.bytes)
        if metric == "duration":
            return float(s.duration)
        if metric == "requests":
            return float(s.http_requests)
        return 1.0

    cells, users, domains = {}, {}, {}
    for s in sessions:
        users.setdefault(s.user_id)
        domains.setdefault(s.domain)
        cells.setdefault((s.user_id, s.domain), []).append(value(s))
    totals = {key: math.fsum(vals) for key, vals in cells.items()}
    kept = [d for d in domains if any(v > 0 for (_, e), v in totals.items() if e == d)]
    users = sorted(users)
    kept = sorted(kept)
    upos = {u: i for i, u in enumerate(users)}
    dpos = {d: j for j, d in enumerate(kept)}
    triplets = [(upos[u], dpos[d], v) for (u, d), v in totals.items() if v > 0]
    rows = [t[0] for t in triplets]
    cols = [t[1] for t in triplets]
    vals = [t[2] for t in triplets]
    indptr, indices, data = csr_from_triplets(len(users), len(kept), rows, cols, vals)
    return ProfileMatrix(
        n_users=len(users),
        n_domains=len(kept),
        indptr=indptr,
        indices=indices,
        data=data,
        users=tuple(users),
        domains=tuple(kept),
    )


def generate_records(spec):
    """Per-record synth reference: (sessions, dominant topics, log text).

    The reference for ``synth.generate``: one generator per user from
    (``spec.seed``, user index), drawn in the same order and sizes, and one
    ``SessionRecord`` per session. The log text holds each session's
    (location, isp, service_class) texts, which synth writes to the log.
    """
    from usertopics.records import SessionRecord
    from usertopics.synth import _BASE_EPOCH

    sessions = []
    dominant = []
    log_text = []
    topic_cum = np.cumsum(spec.topic_word, axis=1)
    log_median = np.log(spec.bytes_median)
    for idx in range(spec.n_users):
        rng = np.random.default_rng((spec.seed, idx))
        mixture = np.zeros(spec.n_topics)
        if spec.user_topic_mode == "hard":
            mixture[int(rng.integers(spec.n_topics))] = 1.0
        elif spec.fixed_mixture is not None:
            mixture[:] = spec.fixed_mixture
        else:
            mixture[:] = rng.dirichlet(np.full(spec.n_topics, spec.mixed_concentration))
        dominant.append(int(np.argmax(mixture)))
        if spec.sessions_dist == "fixed":
            n_sessions = spec.sessions_lo
        elif spec.sessions_dist == "poisson":
            n_sessions = max(1, int(rng.poisson(spec.sessions_lo)))
        else:
            n_sessions = int(rng.integers(spec.sessions_lo, spec.sessions_hi + 1))
        n_universal = (
            max(1, int(round(spec.universal_share * n_sessions))) if spec.universal_domain else 0
        )
        n_topic_sessions = n_sessions - n_universal
        topics = np.searchsorted(
            np.cumsum(mixture), rng.random(n_topic_sessions), side="right"
        ).clip(0, spec.n_topics - 1)
        rvals = rng.random(n_topic_sessions)
        domains = []
        for t, r in zip(topics.tolist(), rvals.tolist()):
            j = min(int(np.searchsorted(topic_cum[t], r, side="right")), spec.n_domains - 1)
            domains.append(spec.domain_names[j])
        domains.extend([spec.universal_domain] * n_universal)
        nbytes = np.maximum(
            1,
            np.rint(np.exp(log_median + spec.bytes_sigma * rng.standard_normal(n_sessions))),
        )
        durations = rng.integers(30, 900, size=n_sessions)
        locations = rng.integers(0, 50, size=n_sessions)
        requests = 1 + rng.poisson(4.0, size=n_sessions)
        for s_idx, domain in enumerate(domains):
            sessions.append(
                SessionRecord(
                    user_id=f"u{idx:05d}",
                    start_time=_BASE_EPOCH + idx * 7 + s_idx * 3600,
                    duration=float(durations[s_idx]),
                    domain=domain,
                    http_requests=int(requests[s_idx]),
                    bytes=int(nbytes[s_idx]),
                )
            )
            log_text.append((f"ap{int(locations[s_idx]):03d}", "campus", "web"))
    return sessions, dominant, log_text


def write_sessions_rows(sessions, path, log_text=None):
    """Row-by-row session-log writer, the reference for ``ingest.write_sessions_csv``.

    ``log_text`` holds each row's (location, isp, service_class) texts;
    without it they are empty.
    """
    from datetime import datetime, timezone

    from usertopics.ingest import SESSION_COLUMNS

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SESSION_COLUMNS)
        for s, (location, isp, service_class) in zip(
            sessions, log_text or itertools.repeat(("", "", ""))
        ):
            writer.writerow(
                [
                    s.user_id,
                    datetime.fromtimestamp(int(s.start_time), tz=timezone.utc).isoformat(),
                    repr(float(s.duration)),
                    location,
                    s.domain,
                    isp,
                    s.http_requests,
                    service_class,
                    s.bytes,
                ]
            )


@dataclass
class _OpenSession:
    start: int
    duration: float
    bytes: int
    requests: int

    @property
    def end(self) -> float:
        return self.start + self.duration


def _merge_intervals(items, gap_threshold: float):
    """Merge per-(user, domain) interval streams into sessions.

    ``items`` yields (user_id, domain, start, duration, bytes, requests) in
    non-decreasing time order per user.
    A new interval extends the domain's open session when the pause before
    it is shorter than ``gap_threshold``.
    """
    from usertopics.ingest import ParseError
    from usertopics.records import SessionRecord

    sessions = []
    open_by_domain: dict[str, _OpenSession] = {}
    current_user = None

    def close(user_id, domain, st):
        try:
            record = SessionRecord(
                user_id=user_id,
                start_time=st.start,
                duration=st.duration,
                domain=domain,
                http_requests=st.requests,
                bytes=st.bytes,
            )
        except ValueError as exc:  # summed bytes or requests beyond float64
            raise ParseError(f"session of user {user_id!r} on domain {domain!r}: {exc}") from None
        sessions.append(record)

    def flush(user_id):
        for domain, st in open_by_domain.items():
            close(user_id, domain, st)
        open_by_domain.clear()

    for user_id, domain, start, duration, nbytes, requests in items:
        if user_id != current_user:
            if current_user is not None:
                flush(current_user)
            current_user = user_id
        st = open_by_domain.get(domain)
        if st is not None and start - st.end < gap_threshold:
            st.duration = (start - st.start) + duration
            st.bytes += nbytes
            st.requests += requests
        else:
            if st is not None:
                close(user_id, domain, st)
            open_by_domain[domain] = _OpenSession(
                start=start, duration=duration, bytes=nbytes, requests=requests
            )
    if current_user is not None:
        flush(current_user)
    sessions.sort(key=lambda s: (s.user_id, s.start_time, s.domain))
    return sessions


def _check_gap(gap_threshold: float) -> None:
    if not gap_threshold > 0:
        raise ValueError(f"gap_threshold must be positive, got {gap_threshold}")


def sessionize(events, gap_threshold: float = 300.0):
    """Record-by-record reference for ``ingest.sessionize``.

    ``events`` are SessionRecords of duration 0 (raw events); they are
    sorted by (user_id, start_time) and merged per domain while the pause
    stays under ``gap_threshold``. A session whose summed bytes or requests
    overflow float64 raises ParseError as it closes.
    """
    _check_gap(gap_threshold)
    ordered = sorted(events, key=lambda e: (e.user_id, e.start_time))
    items = (
        (e.user_id, e.domain, e.start_time, 0.0, e.bytes, e.http_requests)
        for e in ordered
    )
    return _merge_intervals(items, gap_threshold)


def resessionize(sessions, gap_threshold: float = 300.0):
    """Apply the session merge rule to already-built sessions.

    Sessions are treated as activity intervals; the pause between two
    sessions is measured from the end of one to the start of the next.
    Output of :func:`sessionize` maps to itself for the same threshold.
    """
    _check_gap(gap_threshold)
    ordered = sorted(sessions, key=lambda s: (s.user_id, s.start_time))
    items = (
        (s.user_id, s.domain, s.start_time, s.duration, s.bytes, s.http_requests)
        for s in ordered
    )
    return _merge_intervals(items, gap_threshold)


def to_records(table):
    """A SessionTable's rows as SessionRecords, each string decoded through
    its vocabulary one value at a time."""
    from dataclasses import fields

    from usertopics.records import SessionRecord

    columns = []
    for name in (f.name for f in fields(SessionRecord)):
        values = table.columns[name].tolist()
        if name in table.vocab:
            values = [table.vocab[name][code] for code in values]
        columns.append(values)
    return [SessionRecord(*values) for values in zip(*columns)]


def matrices_equal(a, b):
    """Shape, names, CSR arrays and provenance of two sparse matrices all equal."""
    return (
        a.n_users == b.n_users
        and a.n_domains == b.n_domains
        and a.users == b.users
        and a.domains == b.domains
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
        and getattr(a, "provenance", None) == getattr(b, "provenance", None)
    )


def reconstruct(model):
    """Dense rank-``m`` approximation U diag(sigma) V^T of an LSA model's source."""
    return (model.u * model.sigma[None, :]) @ model.v.T


def canonicalize_signs_loop(u, v):
    """Per triplet k: flip u[:, k] and v[:, k] when the largest-magnitude
    entry of v[:, k] (the first on a tie) is negative. Returns copies."""
    u, v = u.copy(), v.copy()
    for k in range(v.shape[1]):
        idx = int(np.argmax(np.abs(v[:, k])))
        if v[idx, k] < 0:
            v[:, k] = -v[:, k]
            u[:, k] = -u[:, k]
    return u, v


def read_truth(path):
    """``truth.csv`` as {user_id: planted topic}."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["user_id", "topic"]:
            raise ValueError(f"{path}: unexpected header {header}")
        return {row[0]: int(row[1]) for row in reader if row}


def purity(predicted, truth):
    """Fraction of points in the majority truth class of their cluster."""
    predicted = list(predicted)
    truth = list(truth)
    if len(predicted) != len(truth):
        raise ValueError(f"partition lengths differ: {len(predicted)} vs {len(truth)}")
    if not predicted:
        raise ValueError("partitions must be non-empty")
    overlap = {}
    for p, t in zip(predicted, truth):
        overlap[(p, t)] = overlap.get((p, t), 0) + 1
    best = {}
    for (p, _), count in overlap.items():
        best[p] = max(best.get(p, 0), count)
    return float(sum(best.values()) / len(predicted))
