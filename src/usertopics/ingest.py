"""Parse traffic logs, sessionize raw events, assemble the profile matrix.

All parsers read delimited text with a mandatory header row and collect
malformed rows into a :class:`ParseReport` instead of failing (pass
``fail_fast=True`` to raise on the first bad row). Real logs are dirty;
skip-and-count is the default policy. A record the csv reader cannot read
at all (a field over the csv field limit, bytes that are not UTF-8) ends
the parse with a :class:`ParseError` naming its csv record.

Every input file goes through one chunk reader, which reads
:data:`CHUNK_ROWS` lines at a time. A chunk without the quote character,
and with no line longer than the csv field limit, holds one csv record
per line and is split with ``str.split``; any other chunk is read by
``csv.reader``, with the same fields as a result. One chunk parser then
converts every file column by column: session and raw-event logs into a
:class:`SessionTable` (a raw event is a session of duration 0, and a
session log's location, isp and service_class columns are dropped), and
the demographics and transactions side inputs into a :class:`UserTable`
of one row per user. Timestamps go through :func:`parse_timestamps`, the
other numbers through one ``map`` over the column, and each string column
is encoded to int64 codes by a vocabulary that cleans and checks every
distinct raw string once; a domain or user id that fails its check gets
code -1. The chunk is encoded before the next one is read, so memory
grows with the vocabularies and the numeric columns, not with the raw
text. At the end, each vocabulary is reduced to the values the accepted
rows use, in sorted order: every :class:`SessionTable` keeps its
vocabularies sorted, so :func:`sessionize` and
:func:`build_profile_matrix` order users and domains by their codes. A
bad row's error is the first check it fails in its file's ordered table
of exact tests over the converted columns (see ``_ROW_CHECKS``): it gets
that check's code, and the message that parsing the row on its own
gives, so errors match a row-by-row parse line for line.

:func:`sessionize` merges a table of raw events into sessions with array
operations: a sort by (user, domain, time) and one sum per run of events.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._store import atomic_file, quote
from .matrix import ProfileMatrix
from .records import (
    DEFAULT_GAP_SECONDS,
    GENDERS,
    PROFILE_METRICS,
    UserTable,
    _check_domain,
    _check_user_id,
)

log = logging.getLogger(__name__)

SESSION_COLUMNS = (
    "user_id",
    "start_time",
    "duration_s",
    "location",
    "domain",
    "isp",
    "http_requests",
    "service_class",
    "bytes",
)
DEMOGRAPHIC_COLUMNS = ("user_id", "gender", "birth_year", "enrol_year", "degree_type")
TRANSACTION_COLUMNS = ("user_id", "timestamp", "amount")
RAW_EVENT_COLUMNS = ("user_id", "timestamp", "domain", "bytes", "http_requests")

BIRTH_YEAR_RANGE = (1900, 2100)

# lines read, validated and encoded per chunk
CHUNK_ROWS = 2048
# session-log rows formatted and written per block
WRITE_BLOCK_ROWS = 8192

# naive common second-level suffixes for the registrable-domain heuristic
_COMMON_SLD = frozenset({"com", "net", "org", "edu", "gov", "ac", "co"})


class ParseError(Exception):
    """Unrecoverable input problem (bad header, fail-fast row, a sum of
    valid values beyond the float64 range, etc.)."""


@dataclass
class ParseReport:
    """Parsed records plus per-line errors and free-form warnings.

    ``records`` is a :class:`SessionTable` from :func:`parse_sessions` and
    :func:`parse_raw_events`, or a :class:`UserTable` from
    :func:`parse_demographics` and :func:`parse_transactions`. Every parser
    counts errors by check code (see ``_ROW_CHECKS``) in ``errors_by_code``.
    """

    records: SessionTable | UserTable | None = None
    errors: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    errors_by_code: Counter[str] = field(default_factory=Counter)

    @property
    def n_errors(self) -> int:
        return len(self.errors)


def normalize_domain(raw: str, truncate: bool = False) -> str:
    """Lowercase and strip scheme, path, query and port.

    With ``truncate`` the name is cut down to a registrable domain using a
    small common-suffix list; this is a heuristic, not a public-suffix
    lookup.
    """
    d = raw.strip().lower()
    if "://" in d:
        d = d.split("://", 1)[1]
    d = d.split("/", 1)[0].split("?", 1)[0].split(":", 1)[0].strip(".")
    if truncate:
        labels = d.split(".")
        if len(labels) >= 3 and labels[-2] in _COMMON_SLD:
            d = ".".join(labels[-3:])
        elif len(labels) > 2:
            d = ".".join(labels[-2:])
    return d


def parse_timestamp(text: str) -> int:
    """ISO-8601 to epoch seconds; naive timestamps are taken as UTC."""
    ts = text.strip()
    if ts.endswith("Z"):
        ts = ts[:-1] + "+00:00"
    dt = datetime.fromisoformat(ts)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_timestamp(epoch: int) -> str:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()


# epochs of 0001-01-01T00:00:00 and 9999-12-31T23:59:59 UTC, the datetime range
_EPOCH_RANGE = (-62135596800, 253402300799)


def format_timestamps(epochs: np.ndarray) -> list[str]:
    """:func:`format_timestamp` over an integer column, byte for byte.

    The date is found by the inverse of :func:`_days_from_civil`, and the
    digits of date and time are written into one byte matrix. Epochs
    outside the datetime range, or held as Python ints, go through
    :func:`format_timestamp` one by one, so they raise its error.
    """
    if epochs.dtype == object or (
        epochs.size and (epochs.min() < _EPOCH_RANGE[0] or epochs.max() > _EPOCH_RANGE[1])
    ):
        return list(map(format_timestamp, epochs.tolist()))
    days, seconds = np.divmod(epochs, 86400)
    year, month, day = _civil_from_days(days.astype(np.int32))
    minutes, second = np.divmod(seconds.astype(np.int32), 60)
    pairs = np.stack([year // 100, year % 100, month, day, minutes // 60, minutes % 60, second],
                     axis=1)
    chars = np.tile(_TIMESTAMP_TEMPLATE, (epochs.size, 1))
    chars[:, _DIGIT_POS] = np.take(_TWO_DIGITS, pairs).view(np.uint8)
    return chars.tobytes().decode("ascii").split()  # one line each, no other whitespace


# text width -> suffix of the canonical UTC forms: naive, "Z" and "+00:00"
_CANONICAL_SUFFIX = {19: b"", 20: b"Z", 25: b"+00:00"}
# positions of the digits of YYYY, MM, DD, HH, MM and SS in "YYYY-MM-DDTHH:MM:SS"
_DIGIT_POS = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18)
_SEPARATOR_POS = (4, 7, 10, 13, 16)
_SEPARATORS = np.frombuffer(b"--T::", dtype=np.uint8)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# the two ASCII digits of 0..99, each pair read as one uint16
_TWO_DIGITS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_TIMESTAMP_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00+00:00\n", dtype=np.uint8)


def _days_from_civil(year, month, day):
    """Days since 1970-01-01 of proleptic Gregorian dates (H. Hinnant's algorithm)."""
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def _civil_from_days(days):
    """(year, month, day) of days since 1970-01-01: the inverse of _days_from_civil."""
    z = days + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    month = np.where(mp < 10, mp + 3, mp - 9)
    return yoe + era * 400 + (month <= 2), month, doy - (153 * mp + 2) // 5 + 1


def _decode_canonical(chars: np.ndarray, suffix: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(decoded mask, epochs) of rows of ASCII bytes of one canonical width."""
    n = chars.shape[0]
    digits = chars[:, _DIGIT_POS] - np.uint8(ord("0"))  # other bytes wrap past 9
    decoded = (digits <= 9).all(axis=1)
    decoded &= (chars[:, _SEPARATOR_POS] == _SEPARATORS).all(axis=1)
    decoded &= (chars[:, 19:] == np.frombuffer(suffix, dtype=np.uint8)).all(axis=1)
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (digits[:, 4:].reshape(n, 5, 2) @ np.array([10, 1])).T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    decoded &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    decoded &= (day <= month_days) & (hour <= 23) & (minute <= 59) & (second <= 59)
    days = _days_from_civil(year, month, day)
    return decoded, np.where(decoded, days * 86400 + hour * 3600 + minute * 60 + second, 0)


def parse_timestamps(texts) -> tuple[np.ndarray, np.ndarray]:
    """:func:`parse_timestamp` over a column: (int64 epochs, rejected mask).

    The values of each width of the canonical UTC forms
    ``YYYY-MM-DDTHH:MM:SS``, ``...Z`` and ``...+00:00`` are decoded from
    one byte array: digits and separators are checked, and year >= 1,
    month, day (with Gregorian leap years), hour, minute and second ranges
    as ``datetime`` checks them; a non-ASCII character fails that check.
    Every other value, and every value that fails, goes through
    :func:`parse_timestamp` alone; where that raises, the value is marked
    rejected and its epoch reads 0.
    """
    n = len(texts)
    epochs = np.zeros(n, dtype=np.int64)
    decoded = np.zeros(n, dtype=bool)
    lengths = np.fromiter(map(len, texts), np.int64, n)
    for width, suffix in _CANONICAL_SUFFIX.items():
        rows = np.flatnonzero(lengths == width)
        if rows.size:
            values = texts if rows.size == n else [texts[i] for i in rows.tolist()]
            # "replace" keeps one byte per character, and "?" is no valid byte
            raw = "".join(values).encode("ascii", "replace")
            chars = np.frombuffer(raw, dtype=np.uint8).reshape(rows.size, width)
            decoded[rows], epochs[rows] = _decode_canonical(chars, suffix)
    rejected = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(~decoded).tolist():
        try:
            epochs[i] = parse_timestamp(texts[i])
        except (ValueError, OverflowError):
            rejected[i] = True
    return epochs, rejected


# what reading a csv record can raise: an over-long field, undecodable bytes
_READ_ERRORS = (csv.Error, ValueError, OSError)


def _is_blank(row) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


# --------------------------------------------------------------------------
# fields and row checks
# --------------------------------------------------------------------------

_SESSION_FIELDS = ("user_id", "start_time", "duration", "domain", "http_requests", "bytes")
# dict-encoded fields; the others are numeric
_STRING_FIELDS = ("user_id", "domain")
# the field each column of a file fills (None: dropped unread)
_SESSION_LOG_FIELDS = ("user_id", "start_time", "duration", None, "domain", None,
                       "http_requests", None, "bytes")
_RAW_EVENT_FIELDS = ("user_id", "start_time", "domain", "bytes", "http_requests")
_DEMOGRAPHIC_FIELDS = ("user_id", "gender", "birth_year", "enrol_year", None)
_TRANSACTION_FIELDS = ("user_id", "start_time", "amount")


def _int_array(values) -> np.ndarray:
    """int64 array, or an object array of Python ints if a value does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _optional_int(text: str) -> int | None:
    return int(text) if text.strip() else None


def _gender_index(text: str) -> int:
    """Index into GENDERS of a gender in any case; an empty one reads unknown."""
    gender = text.strip().lower() or "unknown"
    if gender not in GENDERS:
        raise ValueError(f"unknown gender value: {gender!r}")
    return GENDERS.index(gender)


# per numeric field: the converter of one text, and the array of a column's
# values (timestamp columns go through parse_timestamps instead)
_FIELD_PARSERS = {
    "start_time": (parse_timestamp, None),
    "duration": (float, partial(np.array, dtype=np.float64)),
    "http_requests": (int, _int_array),
    "bytes": (int, _int_array),
    "amount": (float, partial(np.array, dtype=np.float64)),
    "gender": (_gender_index, _int_array),
    # None, a year not given, keeps these object arrays
    "birth_year": (_optional_int, partial(np.array, dtype=object)),
    "enrol_year": (_optional_int, partial(np.array, dtype=object)),
}


def _negative(col: np.ndarray) -> np.ndarray:
    return col < 0


def _non_finite(col: np.ndarray) -> np.ndarray:
    return ~np.isfinite(col)


def _beyond_float64(col: np.ndarray) -> np.ndarray:
    """Integers float() rounds to inf: from halfway between float64's largest and 2**1024."""
    return col >= 2**1024 - 2**970


def _float_range_error(name: str, value: int) -> str:
    return f"{name} beyond the float64 range: {len(str(value))} digits"


def _outside_birth_years(years: np.ndarray) -> np.ndarray:
    """Given birth years outside BIRTH_YEAR_RANGE; None, a year not given, is not."""
    outside = years != None  # elementwise over the object array
    given = years[outside]
    outside[outside] = (given < BIRTH_YEAR_RANGE[0]) | (given > BIRTH_YEAR_RANGE[1])
    return outside


# The row checks of a session log as (code, field, test, message), in the
# order that names a bad row's error: a row's error is the first check it
# fails, and a row of the wrong width fails field_count before them all.
# ``test`` maps a converted column to its failing rows, and ``message`` a
# failing value to the error. A test of None is the field's conversion from
# text, and a message of None the one the text was rejected with, by its
# conversion or its vocabulary (which codes it -1). Each file's table runs
# its conversions in the order their columns stand in the file.
_ROW_CHECKS = (
    ("bad_timestamp", "start_time", None, None),
    ("bad_duration", "duration", None, None),
    ("bad_http_requests", "http_requests", None, None),
    ("bad_bytes", "bytes", None, None),
    ("non_finite_duration", "duration", _non_finite, "non-finite duration: {}".format),
    ("negative_duration", "duration", _negative, "negative duration: {}".format),
    ("negative_bytes", "bytes", _negative, "negative bytes: {}".format),
    ("negative_http_requests", "http_requests", _negative, "negative http_requests: {}".format),
    ("bytes_beyond_float64", "bytes", _beyond_float64, partial(_float_range_error, "bytes")),
    ("http_requests_beyond_float64", "http_requests", _beyond_float64,
     partial(_float_range_error, "http_requests")),
    ("bad_domain", "domain", _negative, None),
    ("empty_user_id", "user_id", _negative, None),
)
# a raw event has no duration, and converts its bytes before its http_requests
_RAW_EVENT_CHECKS = (_ROW_CHECKS[0], _ROW_CHECKS[3], _ROW_CHECKS[2], *_ROW_CHECKS[6:])
_DEMOGRAPHIC_CHECKS = (
    ("bad_birth_year", "birth_year", None, None),
    ("birth_year_out_of_range", "birth_year", _outside_birth_years,
     "birth_year {} outside plausible range".format),
    ("bad_enrol_year", "enrol_year", None, None),
    ("unknown_gender", "gender", None, None),
    _ROW_CHECKS[-1],
)
_TRANSACTION_CHECKS = (
    _ROW_CHECKS[0],
    ("bad_amount", "amount", None, None),
    ("non_finite_amount", "amount", _non_finite, "non-finite amount: {}".format),
    ("negative_amount", "amount", _negative, "negative amount: {}".format),
    _ROW_CHECKS[-1],
)


class _Vocabulary:
    """Dict-encodes raw texts to int64 codes of their cleaned values.

    ``clean`` turns raw text into the stored value (a checked user id,
    say); it runs once per distinct raw text, and a text it rejects with
    ValueError gets code -1 and keeps the message in ``rejected``.
    ``codes`` maps the stored values to codes.
    """

    def __init__(self, clean):
        self.codes: dict[str, int] = {}  # stored value -> code
        self.rejected: dict[str, str] = {}  # raw text -> message
        self._clean = clean
        self._raw: dict[str, int] = {}  # raw text -> code, or -1

    def encode(self, texts: list[str]) -> np.ndarray:
        raw = self._raw
        try:
            return np.fromiter(map(raw.__getitem__, texts), np.int64, len(texts))
        except KeyError:
            pass
        for text in dict.fromkeys(texts):
            if text not in raw:
                try:
                    raw[text] = self.codes.setdefault(self._clean(text), len(self.codes))
                except ValueError as exc:
                    raw[text] = -1
                    self.rejected[text] = str(exc)
        return np.fromiter(map(raw.__getitem__, texts), np.int64, len(texts))


def _used_names(codes: np.ndarray, values) -> tuple[np.ndarray, tuple[str, ...]]:
    """Indices ``codes`` into ``values`` as codes into the names they use, in
    sorted order; equal names share one code."""
    first: dict[str, int] = {}
    canonical = np.array([first.setdefault(value, i) for i, value in enumerate(values)],
                         dtype=np.int64)
    codes = canonical[codes]
    used = np.flatnonzero(np.bincount(codes, minlength=len(values))).tolist()
    order = sorted(used, key=values.__getitem__)
    recode = np.empty(len(values), dtype=np.int64)
    recode[order] = np.arange(len(order))
    return recode[codes], tuple(values[i] for i in order)


@dataclass(frozen=True, eq=False)
class SessionTable:
    """Sessions as columns, one per session field (``_SESSION_FIELDS``).

    String fields hold int64 codes into ``vocab[field]``, whose values are
    strictly increasing and each occur in at least one row, so comparing
    codes compares names.
    ``start_time``, ``http_requests`` and ``bytes`` are int64 (an integer
    column holds Python ints in an object array when a value does not fit
    in int64); ``duration`` is float64.

    Tables are built by :meth:`encoded`. ``len`` counts the sessions.
    """

    columns: dict[str, np.ndarray]
    vocab: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if set(self.columns) != set(_SESSION_FIELDS) or set(self.vocab) != set(_STRING_FIELDS):
            raise ValueError("columns or vocabularies do not match the session fields")
        if len({col.shape for col in self.columns.values()}) != 1:
            raise ValueError("columns differ in length")
        if any(a >= b for values in self.vocab.values() for a, b in itertools.pairwise(values)):
            raise ValueError("a vocabulary is not strictly increasing")

    @classmethod
    def encoded(cls, columns: dict, names: dict) -> SessionTable:
        """A table from columns whose string fields hold indices into ``names[field]``.

        Each string column is reduced to the names its rows use, in sorted
        order, so code order is name order; equal names share one code.
        The table takes over ``columns``: its string columns are replaced
        by the reduced codes one by one, so the old ones are freed as it
        goes.
        """
        vocab = {}
        for name in _STRING_FIELDS:
            columns[name], vocab[name] = _used_names(columns[name], names[name])
        return cls(columns=columns, vocab=vocab)

    @property
    def users(self) -> tuple[str, ...]:
        return self.vocab["user_id"]

    @property
    def domains(self) -> tuple[str, ...]:
        return self.vocab["domain"]

    def __len__(self) -> int:
        return int(self.columns["user_id"].size)

    def metric_values(self, metric: str) -> np.ndarray:
        """Per-session float64 value of one of PROFILE_METRICS."""
        if metric == "session_count":
            return np.ones(len(self))
        column = {"bytes": "bytes", "duration": "duration", "requests": "http_requests"}
        return self.columns[column[metric]].astype(np.float64)


# --------------------------------------------------------------------------
# parsers
# --------------------------------------------------------------------------


def _convert_column(texts, convert, array) -> tuple[np.ndarray, np.ndarray]:
    """``array`` of ``convert`` over a column, and the mask of the values
    that raise, which read 0."""
    bad = np.zeros(len(texts), dtype=bool)
    try:
        values = list(map(convert, texts))
    except (ValueError, OverflowError):
        values = []
        for i, text in enumerate(texts):
            try:
                values.append(convert(text))
            except (ValueError, OverflowError):
                bad[i] = True
                values.append(0)
    return array(values), bad


def _conversion_error(convert, text: str) -> str:
    """The message of the error ``convert(text)`` raises, for a text it rejects."""
    try:
        convert(text)
    except (ValueError, OverflowError) as exc:
        return str(exc)


class _Chunk(NamedTuple):
    """Consecutive csv records of a file, split into fields.

    ``columns[k]`` holds field k of the rows with exactly the schema's
    number of fields, and ``positions`` their record indices in the chunk.
    ``odd`` maps the index of every other non-blank record to its fields.
    ``n_records`` counts the chunk's csv records, blank ones included.
    """

    columns: list[list[str]]
    positions: range | list[int]
    odd: dict[int, list[str]]
    n_records: int


def _chunk(flat: list[str], width: int, positions, odd, n_records: int) -> _Chunk:
    """A chunk from the fields of its full-width rows laid end to end."""
    return _Chunk([flat[k::width] for k in range(width)], positions, odd, n_records)


def _raising(exc: Exception):
    """An iterator that raises ``exc`` on its first read."""
    raise exc
    yield


def _split_csv(
    lines: list[str], tail, delimiter: str, width: int
) -> tuple[_Chunk, Exception | None]:
    """Split a chunk's lines with csv.reader; also return the error that stopped it.

    A quoted field may run on past the chunk's last line: its record is
    read to the end from ``tail``, and the next chunk starts after it.
    """
    reader = csv.reader(itertools.chain(lines, tail), delimiter=delimiter)
    rows = []
    error = None
    try:
        for row in reader:
            rows.append(row)
            if reader.line_num >= len(lines):
                break
    except _READ_ERRORS as exc:
        error = exc
    positions = [i for i, row in enumerate(rows) if len(row) == width]
    odd = {i: row for i, row in enumerate(rows) if len(row) != width and not _is_blank(row)}
    flat = list(itertools.chain.from_iterable(rows[i] for i in positions))
    return _chunk(flat, width, positions, odd, len(rows)), error


def _read_chunk(fh, delimiter: str, width: int) -> tuple[_Chunk, Exception | None]:
    """The next CHUNK_ROWS lines of ``fh`` as a chunk of rows of ``width``
    fields, and the read error that cut them short, if any.

    Without the quote character each line is one csv record, and
    csv.reader reads it as the line without its terminator (LF, CRLF or
    CR) split at the delimiter, as long as no CR or LF is left inside and
    no field passes the csv field limit. Such a chunk is split with
    ``str.split``; any other goes through csv.reader.
    """
    lines = []
    error = None
    try:
        lines.extend(itertools.islice(fh, CHUNK_ROWS))
    except _READ_ERRORS as exc:
        error = exc
    stripped = list(map(str.rstrip, lines, itertools.repeat("\r\n", len(lines))))
    joined = delimiter.join(stripped)
    if (
        '"' in joined
        or "\r" in joined
        or "\n" in joined
        or max(map(len, lines), default=0) > csv.field_size_limit()
    ):
        tail = fh if error is None else _raising(error)
        chunk, csv_error = _split_csv(lines, tail, delimiter, width)
        return chunk, csv_error or error
    n_lines = len(lines)
    counts = list(map(str.count, stripped, itertools.repeat(delimiter, n_lines)))
    if counts.count(width - 1) == n_lines:
        positions, odd = range(n_lines), {}
    else:
        positions = [i for i, count in enumerate(counts) if count == width - 1]
        odd = {
            i: row
            for i, count in enumerate(counts)
            if count != width - 1 and not _is_blank(row := stripped[i].split(delimiter))
        }
        joined = delimiter.join([stripped[i] for i in positions])
    flat = joined.split(delimiter) if positions else []
    return _chunk(flat, width, positions, odd, n_lines), error


def _chunks(source, delimiter: str, columns: tuple[str, ...]):
    """Yield (chunk, csv record number of its first record) of a delimited
    file or text stream whose header must name ``columns``.

    Record numbers count the header as 1 and blank records too; an empty
    stream yields nothing. A record the csv reader cannot read raises
    ParseError naming it, after the chunk of the records before it.
    """
    if not hasattr(source, "read"):
        with open(source, newline="", encoding="utf-8-sig") as fh:
            yield from _chunks(fh, delimiter, columns)
        return
    # csv.reader pulls one line at a time and reads none ahead, so the
    # stream stands right after the header's last line
    try:
        header = next(csv.reader(source, delimiter=delimiter))
    except StopIteration:
        return
    except _READ_ERRORS as exc:
        raise ParseError(f"line 1: {exc}") from exc
    if tuple(h.strip().lower() for h in header) != columns:
        raise ParseError(f"bad header: expected {','.join(columns)}, got {','.join(header)}")
    first_line = 2
    while True:
        chunk, error = _read_chunk(source, delimiter, len(columns))
        n_records = chunk.n_records
        yield chunk, first_line
        del chunk  # hold one chunk's text at a time, not two
        if error is not None:
            raise ParseError(f"line {first_line + n_records}: {error}") from error
        if not n_records:
            return
        first_line += n_records


class _ChunkParser:
    """Validates and converts the chunks of one input file, column by column.

    ``fields`` names the field each file column fills, or None for a column
    that is dropped unread. The user ids, and each field of ``vocab``, are
    encoded by a vocabulary; every other field is converted by
    ``_FIELD_PARSERS``. A bad row gets the first of ``checks`` it fails.
    """

    def __init__(self, fields: tuple[str | None, ...], checks: tuple, fail_fast: bool, vocab: dict):
        self.report = ParseReport()
        self.fields = fields
        self.checks = checks
        self.fail_fast = fail_fast
        self.vocab = {"user_id": _Vocabulary(lambda raw: _check_user_id(raw.strip())), **vocab}
        # an empty part per field gives a file without rows its column types
        empty = self._convert(dict.fromkeys(filter(None, fields), []))[0]
        self._parts = {name: [col] for name, col in empty.items()}

    def _convert(self, texts: dict) -> tuple[dict, dict]:
        """The fields' columns, and per converted field the mask of the texts it rejects."""
        cols, failed = {}, {}
        for name, values in texts.items():
            if name in self.vocab:
                cols[name] = self.vocab[name].encode(values)
            elif name == "start_time":
                cols[name], failed[name] = parse_timestamps(values)
            else:
                cols[name], failed[name] = _convert_column(values, *_FIELD_PARSERS[name])
        return cols, failed

    def parse(self, source, delimiter: str, columns: tuple[str, ...]) -> dict[str, np.ndarray]:
        """The accepted rows' columns, in file order, of a file whose header
        names ``columns``; a string field holds codes into its vocabulary."""
        for chunk, first_line in _chunks(source, delimiter, columns):
            texts = {name: col for name, col in zip(self.fields, chunk.columns) if name}
            cols, failed = self._convert(texts)
            masks = [test(cols[name]) if test else failed[name] for _, name, test, _ in self.checks]
            bad = np.logical_or.reduce(masks)
            if chunk.odd or bad.any():
                self._reject(chunk, first_line, texts, cols, np.argmax(masks, axis=0), bad)
            keep = ~bad
            for name, values in cols.items():
                self._parts[name].append(values[keep])
            del chunk, texts  # hold one chunk's text at a time, not two
        accepted = {}
        for name, parts in self._parts.items():
            accepted[name] = np.concatenate(parts)
            parts.clear()  # hold one column twice at most, not the whole table
        return accepted

    def _reject(self, chunk: _Chunk, first_line, texts, cols, first, bad) -> None:
        """Report a chunk's bad rows in file order: each odd row fails
        field_count, and column row j the check ``first[j]`` indexes."""
        rejected = [(pos, "field_count", f"expected {len(self.fields)} fields, got {len(row)}")
                    for pos, row in chunk.odd.items()]
        for j in np.flatnonzero(bad).tolist():
            code, name, _, describe = self.checks[first[j]]
            if describe:
                message = describe(cols[name].item(j))
            elif name in self.vocab:
                message = self.vocab[name].rejected[texts[name][j]]
            else:
                message = _conversion_error(_FIELD_PARSERS[name][0], texts[name][j])
            rejected.append((chunk.positions[j], code, message))
        for pos, code, message in sorted(rejected):
            if self.fail_fast:
                raise ParseError(f"line {first_line + pos}: {message}")
            self.report.errors.append((first_line + pos, message))
            self.report.errors_by_code[code] += 1


def _parse_table(source, delimiter, columns, fields, checks, fail_fast, truncate_domains):
    """Parse a log whose ``columns`` fill the session ``fields`` into a SessionTable."""
    normalize = partial(normalize_domain, truncate=truncate_domains)
    domains = _Vocabulary(lambda raw: _check_domain(normalize(raw)))
    parser = _ChunkParser(fields, checks, fail_fast, {"domain": domains})
    cols = parser.parse(source, delimiter, columns)
    cols.setdefault("duration", np.zeros(cols["user_id"].size))  # raw events last 0 s
    names = {name: tuple(vocab.codes) for name, vocab in parser.vocab.items()}
    parser.report.records = SessionTable.encoded(cols, names)
    return parser.report


def parse_sessions(source, *, delimiter: str = ",", fail_fast: bool = False,
                   truncate_domains: bool = False) -> ParseReport:
    """Parse a session log (see SESSION_COLUMNS for the schema).

    ``report.records`` is a :class:`SessionTable` of the accepted rows in
    file order. Error line numbers count csv records (the header is 1,
    blank rows count).
    """
    return _parse_table(source, delimiter, SESSION_COLUMNS, _SESSION_LOG_FIELDS, _ROW_CHECKS,
                        fail_fast, truncate_domains)


def parse_demographics(source, *, delimiter: str = ",", fail_fast: bool = False) -> ParseReport:
    """Parse user profiles into a :class:`UserTable` with a ``gender``
    column of indices into GENDERS and a ``birth_year`` column, 0 where none
    is given. ``enrol_year`` and ``degree_type`` are checked but not kept.
    A duplicate user_id resolves last-wins, with a warning per repeated row
    in file order."""
    parser = _ChunkParser(_DEMOGRAPHIC_FIELDS, _DEMOGRAPHIC_CHECKS, fail_fast, {})
    cols = parser.parse(source, delimiter, DEMOGRAPHIC_COLUMNS)
    codes, users = _used_names(cols["user_id"], tuple(parser.vocab["user_id"].codes))
    report = parser.report
    for code in np.delete(codes, np.unique(codes, return_index=True)[1]).tolist():
        msg = f"duplicate user_id {users[code]!r}: keeping the last row"
        report.warnings.append(msg)
        log.warning(msg)
    last = codes.size - 1 - np.unique(codes[::-1], return_index=True)[1]
    years = cols["birth_year"][last]
    birth_years = np.where(years != None, years, 0).astype(np.int64)
    report.records = UserTable(users, {"gender": cols["gender"][last], "birth_year": birth_years})
    return report


def parse_transactions(source, *, delimiter: str = ",", fail_fast: bool = False) -> ParseReport:
    """Parse campus-card transactions into a :class:`UserTable` with an
    ``amount`` column: each user's total, summed with math.fsum, so it does
    not depend on the rows' order. Timestamps are checked but not kept.

    A user's total amount, or the total over all users, beyond the float64
    range raises ParseError (naming the user, the first in user_id order),
    so no report sums to inf.
    """
    parser = _ChunkParser(_TRANSACTION_FIELDS, _TRANSACTION_CHECKS, fail_fast, {})
    cols = parser.parse(source, delimiter, TRANSACTION_COLUMNS)
    codes, users = _used_names(cols["user_id"], tuple(parser.vocab["user_id"].codes))
    by_user = cols["amount"][np.argsort(codes, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(codes, minlength=len(users))).tolist()
    totals = [_total(by_user[lo:hi], f"amount total of user {user!r}")
              for user, lo, hi in zip(users, [0, *ends], ends)]
    _total(cols["amount"].tolist(), "amount total over all users")
    parser.report.records = UserTable(users, {"amount": np.array(totals, dtype=np.float64)})
    return parser.report


def _total(values, what: str) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise ParseError(f"{what} is beyond the float64 range") from None


def parse_raw_events(source, *, delimiter: str = ",", fail_fast: bool = False,
                     truncate_domains: bool = False) -> ParseReport:
    """Parse a raw-event log (see RAW_EVENT_COLUMNS for the schema).

    ``report.records`` is a :class:`SessionTable` of the accepted events in
    file order, each a session of duration 0; errors are numbered as in
    :func:`parse_sessions`.
    """
    return _parse_table(source, delimiter, RAW_EVENT_COLUMNS, _RAW_EVENT_FIELDS,
                        _RAW_EVENT_CHECKS, fail_fast, truncate_domains)


def _number_texts(values: np.ndarray) -> list[str]:
    """Each value as csv.writer writes it, a float by repr and an int by str;
    each distinct value is formatted once. Floats are told apart by their
    bits, so -0.0 keeps its sign."""
    floats = values.dtype == np.float64
    distinct, inverse = np.unique(values.view(np.int64) if floats else values,
                                  return_inverse=True)
    texts = map(repr, distinct.view(np.float64).tolist()) if floats else map(str, distinct.tolist())
    return np.array(list(texts), dtype=object)[inverse].tolist()


def write_sessions_csv(sessions: SessionTable, path, unread=None) -> None:
    """Write a :class:`SessionTable` in the format parse_sessions reads back.

    ``unread`` maps a column parse_sessions drops (location, isp,
    service_class) to a pair: its texts, and each row's index into them;
    the others are written empty. Rows go out :data:`WRITE_BLOCK_ROWS` at a
    time. A name is quoted once, and a number formatted once per distinct
    value in a block.
    """
    n = len(sessions)
    named = {column: (sessions.vocab[field], sessions.columns[field]) if field
             else (unread or {}).get(column, ([""], np.broadcast_to(0, n)))
             for column, field in zip(SESSION_COLUMNS, _SESSION_LOG_FIELDS)
             if field in (*_STRING_FIELDS, None)}
    for column, (_, codes) in named.items():
        if len(codes) != n:
            raise ValueError(f"{column}: {len(codes)} indices for {n} rows")
    quoted = {column: np.array(list(map(quote, texts)), dtype=object)
              for column, (texts, _) in named.items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_file(path) as fh:
        fh.write((",".join(SESSION_COLUMNS) + "\n").encode())
        for lo in range(0, n, WRITE_BLOCK_ROWS):
            block = slice(lo, lo + WRITE_BLOCK_ROWS)
            texts = []
            for column, field in zip(SESSION_COLUMNS, _SESSION_LOG_FIELDS):
                if column in named:
                    texts.append(quoted[column][named[column][1][block]].tolist())
                elif field == "start_time":
                    texts.append(format_timestamps(sessions.columns[field][block]))
                else:
                    texts.append(_number_texts(sessions.columns[field][block]))
            fh.write(("\n".join(map(",".join, zip(*texts))) + "\n").encode())


# --------------------------------------------------------------------------
# sessionization
# --------------------------------------------------------------------------


def sessionize(events: SessionTable, gap_threshold: float = DEFAULT_GAP_SECONDS) -> SessionTable:
    """Group raw events (sessions of duration 0, in any order) into sessions.

    Events of one user on one domain merge while the pause from one to the
    next stays under ``gap_threshold`` seconds, whatever other domains do in
    between. A session spans its first to its last event, sums their bytes
    and requests exactly and takes the rest from its first event. Sessions
    come out in (user_id, start_time, domain) order.

    A session whose sums overflow float64 raises ParseError naming its user
    and domain; of several, the first to close as the events are read in
    (user_id, time) order, file order breaking ties.
    """
    if not gap_threshold > 0:
        raise ValueError(f"gap_threshold must be positive, got {gap_threshold}")
    cols = events.columns
    # a stable sort: events of one (user, domain) in time order, ties in file order
    order = np.lexsort((cols["start_time"], cols["domain"], cols["user_id"]))
    user, domain, start = (cols[name][order] for name in ("user_id", "domain", "start_time"))
    new_group = np.ones(order.size, dtype=bool)
    new_group[1:] = (user[1:] != user[:-1]) | (domain[1:] != domain[:-1])
    new_run = new_group.copy()
    new_run[1:] |= np.diff(start) >= gap_threshold
    firsts = np.flatnonzero(new_run)
    sessions = {name: col[order[firsts]] for name, col in cols.items()}
    # a run's latest start is its last event's
    sessions["duration"] = (np.maximum.reduceat(start, firsts) - start[firsts]).astype(np.float64)
    for name in ("http_requests", "bytes"):
        # Python ints: no int64 sum can wrap
        sums = np.add.reduceat(cols[name][order].astype(object), firsts)
        sessions[name] = _int_array(sums.tolist())
    too_big_bytes = _beyond_float64(sessions["bytes"])
    too_big = too_big_bytes | _beyond_float64(sessions["http_requests"])
    if too_big.any():
        group_first = np.maximum.accumulate(np.where(new_group[firsts], firsts, 0))

        def closes_at(k):
            """Run k closes when run k + 1 of its (user, domain) starts, or
            else at its user's end, in the order its domain first appeared."""
            ends_early = k + 1 < firsts.size and not new_group[firsts[k + 1]]
            event = firsts[k + 1] if ends_early else group_first[k]
            return user[event], not ends_early, start[event], order[event]

        k = min(np.flatnonzero(too_big).tolist(), key=closes_at)
        name = "bytes" if too_big_bytes[k] else "http_requests"
        raise ParseError(
            f"session of user {events.users[user[firsts[k]]]!r} on domain "
            f"{events.domains[domain[firsts[k]]]!r}: "
            + _float_range_error(name, sessions[name].item(k))
        )
    final = np.lexsort((sessions["domain"], sessions["start_time"], sessions["user_id"]))
    return SessionTable.encoded({name: col[final] for name, col in sessions.items()},
                                dict(events.vocab))


# --------------------------------------------------------------------------
# profile matrix assembly
# --------------------------------------------------------------------------


# multi-row cells whose values build_profile_matrix turns into Python floats at
# once, so that the float objects never span the whole value column
_FSUM_BLOCK_CELLS = 4096


def build_profile_matrix(sessions: SessionTable, metric: str = "bytes") -> ProfileMatrix:
    """Aggregate a table of sessions into the users-by-domains activity matrix.

    Entry (i, j) is the chosen metric summed over user i's sessions on
    domain j. Per-cell sums use math.fsum, so the result is bit-identical
    under any permutation of the input. Users whose total activity is zero
    keep their (empty) row; domains with zero total activity are dropped,
    which guarantees every column has at least one visitor. A cell total
    beyond the float64 range raises ParseError naming the user and domain
    (of several, the first in (user, domain) order). Users and domains are
    indexed by their codes, which follow name order.
    """
    if metric not in PROFILE_METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {PROFILE_METRICS}")
    users, domains = sessions.users, sessions.domains
    user_codes, domain_codes = sessions.columns["user_id"], sessions.columns["domain"]
    # a stable sort on the cell key lays each (user, domain) cell out as one run
    order = np.argsort(user_codes * len(domains) + domain_codes, kind="stable")
    user_codes, domain_codes = user_codes[order], domain_codes[order]
    values = sessions.metric_values(metric)[order]
    del order
    first = np.ones(values.size, dtype=bool)
    first[1:] = (user_codes[1:] != user_codes[:-1]) | (domain_codes[1:] != domain_codes[:-1])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], values.size)
    totals = values[starts]
    multi = np.flatnonzero(ends - starts > 1)
    cell = 0  # first row of the cell being summed
    try:
        for block in range(0, multi.size, _FSUM_BLOCK_CELLS):
            cells = multi[block : block + _FSUM_BLOCK_CELLS]
            lo = int(starts[cells[0]])
            flat = values[lo : ends[cells[-1]]].tolist()
            totals[cells] = [
                math.fsum(flat[(cell := a) - lo : b - lo])
                for a, b in zip(starts[cells].tolist(), ends[cells].tolist())
            ]
    except OverflowError:
        raise ParseError(
            f"{metric} total of user {users[user_codes[cell]]!r} on domain "
            f"{domains[domain_codes[cell]]!r} is beyond the float64 range"
        ) from None
    cell_users, cell_domains = user_codes[starts], domain_codes[starts]
    positive = totals > 0
    active = np.zeros(len(domains), dtype=bool)
    active[cell_domains[positive]] = True
    kept = np.flatnonzero(active).tolist()
    dropped = len(domains) - len(kept)
    if dropped:
        log.warning("dropping %d domain(s) with zero total %s", dropped, metric)
    # the cells are unique and in (user, domain) order; dropping domains keeps that order
    row_counts = np.bincount(cell_users[positive], minlength=len(users))
    return ProfileMatrix(n_users=len(users), n_domains=len(kept),
                         indptr=np.append(0, np.cumsum(row_counts)),
                         indices=(np.cumsum(active) - 1)[cell_domains[positive]],
                         data=totals[positive], users=users,
                         domains=tuple(domains[c] for c in kept))
