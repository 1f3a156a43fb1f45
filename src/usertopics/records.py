"""Record types shared across the pipeline: one checked session, and the
per-user columns of a side input."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# a UserTable's gender column holds indices into GENDERS
GENDERS = ("male", "female", "unknown")

# per-session values a profile cell can sum, and the sessionization gap; the
# command-line parser reads both without importing the ingest stage
PROFILE_METRICS = ("bytes", "duration", "requests", "session_count")
DEFAULT_GAP_SECONDS = 300.0

# Unicode category Cc: C0 controls, DEL and C1 controls
_CONTROL_CHAR = re.compile("[\x00-\x1f\x7f-\x9f]")


def _check_float_range(name: str, value: int) -> None:
    """Integer counts become float64 activity values; reject any that overflow."""
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} beyond the float64 range: {len(str(value))} digits") from None


def _check_domain(domain: str) -> None:
    if not domain:
        raise ValueError("domain must be non-empty")
    if any(ch.isspace() for ch in domain):
        raise ValueError(f"domain contains whitespace: {domain!r}")
    if _CONTROL_CHAR.search(domain):
        raise ValueError(f"domain contains a control character: {domain!r}")
    if "://" in domain:
        raise ValueError(f"domain carries a scheme prefix: {domain!r}")


def _check_user_id(user_id: str) -> None:
    if not user_id.strip():
        raise ValueError("empty user_id")


@dataclass(frozen=True)
class SessionRecord:
    """One aggregated network session of one user on one domain. A raw
    traffic event is a session of duration 0. The checks run in a fixed
    order, and a bad record's error names the first check it fails."""

    user_id: str
    start_time: int  # epoch seconds, UTC
    duration: float  # seconds
    domain: str
    http_requests: int
    bytes: int

    def __post_init__(self):
        if not math.isfinite(self.duration):
            raise ValueError(f"non-finite duration: {self.duration}")
        if self.duration < 0:
            raise ValueError(f"negative duration: {self.duration}")
        if self.bytes < 0:
            raise ValueError(f"negative bytes: {self.bytes}")
        if self.http_requests < 0:
            raise ValueError(f"negative http_requests: {self.http_requests}")
        _check_float_range("bytes", self.bytes)
        _check_float_range("http_requests", self.http_requests)
        _check_domain(self.domain)
        _check_user_id(self.user_id)


@dataclass(frozen=True, eq=False)
class UserTable:
    """Per-user columns of a side input: row i of each column belongs to
    ``users[i]``, and ``users`` are sorted and unique. A table with no
    users may hold no columns."""

    users: tuple[str, ...]
    columns: dict[str, np.ndarray]

    def lookup(self, name: str, user_ids, missing) -> np.ndarray:
        """Column ``name`` at each of ``user_ids``; ``missing`` for a user
        with no row. Ids compare as Python strings (an object array keeps a
        trailing NUL that a fixed-width string array drops)."""
        users = np.array(self.users, dtype=object)
        keys = np.array(user_ids, dtype=object)
        pos = np.searchsorted(users, keys)
        found = pos < users.size
        found[found] = users[pos[found]] == keys[found]
        out = np.full(keys.size, missing)
        if found.any():
            out[found] = self.columns[name][pos[found]]
        return out
