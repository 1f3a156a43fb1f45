"""Shared by the pipeline: the domain and user id checks, and the per-user
columns of a side input."""

from __future__ import annotations

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


def _check_domain(domain: str) -> str:
    """Return ``domain``, or raise ValueError for the first domain check it fails."""
    if not domain:
        raise ValueError("domain must be non-empty")
    if any(ch.isspace() for ch in domain):
        raise ValueError(f"domain contains whitespace: {domain!r}")
    if _CONTROL_CHAR.search(domain):
        raise ValueError(f"domain contains a control character: {domain!r}")
    if "://" in domain:
        raise ValueError(f"domain carries a scheme prefix: {domain!r}")
    return domain


def _check_user_id(user_id: str) -> str:
    if not user_id.strip():
        raise ValueError("empty user_id")
    return user_id


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
