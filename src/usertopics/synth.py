"""Synthetic session corpora with planted topic structure, plus recovery
metrics.

Each synthetic user is planted in one topic; every topic session draws a
domain from that topic's word distribution. Session byte counts are
log-normal (median :data:`BYTES_MEDIAN`, log-space standard deviation
:data:`BYTES_SIGMA`) to mimic the heavy tail of real traffic. Generation
is per-user independent given derived seeds and therefore reproducible
bit for bit and order-stable.

The optional universal domain is injected into every user's traffic
(:data:`UNIVERSAL_SHARE` of its sessions). It reproduces the portal-site
situation where one domain is visited by everybody: inverse-document-
frequency weighting assigns it exactly zero weight, while plain row
normalization lets it dominate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._store import write_rows
from .ingest import SessionTable
from .records import _check_domain

_BASE_EPOCH = int(datetime(2014, 9, 1, tzinfo=timezone.utc).timestamp())

SESSION_DISTRIBUTIONS = ("fixed", "poisson", "uniform")
BYTES_MEDIAN = 1e4
BYTES_SIGMA = 1.5  # log-space standard deviation of session bytes
UNIVERSAL_SHARE = 0.3  # the universal domain's share of each user's sessions


def disjoint_topic_word(n_topics: int, n_domains: int) -> np.ndarray:
    """Row-stochastic matrix with disjoint, uniform per-topic supports."""
    if n_domains < n_topics:
        raise ValueError("need at least one domain per topic")
    mat = np.zeros((n_topics, n_domains))
    for t, block in enumerate(np.array_split(np.arange(n_domains), n_topics)):
        mat[t, block] = 1.0 / block.size
    return mat


def overlapping_topic_word(
    n_topics: int, n_domains: int, shared_mass: float
) -> np.ndarray:
    """Topics put ``shared_mass`` of their weight on one common domain pool.

    Domains split into n_topics exclusive blocks plus one shared block;
    each topic is uniform over its own block with the remaining mass and
    uniform over the shared block with ``shared_mass``.
    """
    if not 0.0 <= shared_mass < 1.0:
        raise ValueError("shared_mass must lie in [0, 1)")
    if n_domains < n_topics + 1:
        raise ValueError("need at least one domain per topic plus a shared pool")
    blocks = np.array_split(np.arange(n_domains), n_topics + 1)
    shared = blocks[-1]
    mat = np.zeros((n_topics, n_domains))
    for t in range(n_topics):
        mat[t, blocks[t]] = (1.0 - shared_mass) / blocks[t].size
        mat[t, shared] = shared_mass / shared.size
    return mat


def _as_given(value):
    return value


def _share(value) -> float:
    """float() of a JSON number or string in [0, 1), refusing a boolean."""
    if isinstance(value, bool) or not 0.0 <= float(value) < 1.0:
        raise ValueError(f"not a share in [0, 1): {value!r}")
    return float(value)


def _whole(value) -> int:
    """int() of a JSON number or string, refusing a boolean or a number with a fraction."""
    if isinstance(value, bool) or (int(value) != value and not isinstance(value, str)):
        raise ValueError(f"not a whole number: {value!r}")
    return int(value)


# JSON spec key (a dot reads one object down) -> the SynthSpec field it sets
# and the conversion of its value
_SPEC_KEYS = {
    "n_topics": ("n_topics", _whole),
    "n_domains": ("n_domains", _whole),
    "n_users": ("n_users", _whole),
    "sessions.dist": ("sessions_dist", _as_given),
    "sessions.lo": ("sessions_lo", _whole),
    "sessions.hi": ("sessions_hi", _whole),
    "universal_domain": ("universal_domain", _as_given),
    "seed": ("seed", _whole),
    # these two set no field: from_dict builds the topic-word matrix from them
    "topics.kind": ("kind", _as_given),
    "topics.share": ("share", _share),
}


@dataclass(frozen=True, eq=False)
class SynthSpec:
    """Parameters of the generative corpus."""

    n_topics: int
    n_domains: int
    n_users: int
    topic_word: np.ndarray  # T x W, rows sum to 1
    sessions_dist: str = "fixed"
    sessions_lo: int = 60
    sessions_hi: int = 60
    universal_domain: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sessions_dist not in SESSION_DISTRIBUTIONS:
            raise ValueError(f"unknown sessions_dist: {self.sessions_dist!r}")
        if self.n_topics < 1 or self.n_domains < 1 or self.n_users < 1:
            raise ValueError("n_topics, n_domains and n_users must be positive")
        if self.topic_word.shape != (self.n_topics, self.n_domains):
            raise ValueError("topic_word shape must be (n_topics, n_domains)")
        if np.any(self.topic_word < 0):
            raise ValueError("topic_word entries must be non-negative")
        if np.abs(self.topic_word.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("topic_word rows must sum to 1 within 1e-9")
        if not 1 <= self.sessions_lo <= self.sessions_hi < 2**63:  # numpy draws int64 counts
            raise ValueError("sessions.lo and sessions.hi must satisfy 1 <= lo <= hi < 2**63, "
                             f"got {self.sessions_lo} and {self.sessions_hi}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.universal_domain is not None:
            if not isinstance(self.universal_domain, str):
                raise ValueError("universal_domain must be a string")
            if self.universal_domain in self.domain_names:
                raise ValueError(f"universal_domain {self.universal_domain!r} is a topic domain")
            if self.universal_domain:
                _check_domain(self.universal_domain)

    @property
    def domain_names(self) -> tuple[str, ...]:
        """The names of the ``n_domains`` topic domains: ``dom0000``, ``dom0001``, ..."""
        return tuple(f"dom{j:04d}" for j in range(self.n_domains))

    @staticmethod
    def from_dict(raw: dict) -> "SynthSpec":
        """Build a spec from the JSON configuration layout (see from_file).

        Each key of ``_SPEC_KEYS`` that ``raw`` gives sets its field; a key
        left out keeps the field's default, except that ``sessions.hi``
        defaults to ``sessions.lo``. ``topics`` picks the topic-word matrix;
        a share is refused with ``disjoint`` topics. A key not in
        ``_SPEC_KEYS``, top-level or nested, is refused.
        """
        if not isinstance(raw, dict):
            raise ValueError("a synth spec is a JSON object")
        topics, sessions = raw.get("topics", {}), raw.get("sessions", {})
        if not isinstance(topics, dict) or not isinstance(sessions, dict):
            raise ValueError("spec keys topics and sessions must be JSON objects")
        nested = {f"{outer}.{key}": value for outer in ("topics", "sessions")
                  for key, value in raw.get(outer, {}).items()}
        unknown = set(raw) - {key.partition(".")[0] for key in _SPEC_KEYS}
        unknown |= set(nested) - set(_SPEC_KEYS)
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        given = {**raw, **nested}
        if "sessions.lo" in given:
            given.setdefault("sessions.hi", given["sessions.lo"])
        fields = {}
        for key, (name, convert) in _SPEC_KEYS.items():
            if key in given:
                try:
                    fields[name] = convert(given[key])
                except (ValueError, TypeError, OverflowError) as exc:
                    raise ValueError(f"{key}: {exc}") from None
            elif name in ("n_topics", "n_domains", "n_users"):
                raise ValueError(f"missing spec key: {key}")
        n_topics, n_domains = fields["n_topics"], fields["n_domains"]
        kind, share = fields.pop("kind", "disjoint"), fields.pop("share", None)
        if kind == "overlap":
            topic_word = overlapping_topic_word(n_topics, n_domains, 0.2 if share is None else share)
        elif kind != "disjoint":
            raise ValueError(f"unknown topics kind: {kind!r}")
        elif share is not None:
            raise ValueError("topics.share: disjoint topics share no domains")
        else:
            topic_word = disjoint_topic_word(n_topics, n_domains)
        return SynthSpec(topic_word=topic_word, **fields)

    @staticmethod
    def from_file(path: str | Path) -> "SynthSpec":
        with open(path, encoding="utf-8") as fh:
            return SynthSpec.from_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Planted per-user topics. It also keeps each session's access point,
    which only the written log carries."""

    user_ids: tuple[str, ...]
    dominant: np.ndarray  # the planted topic of each user
    access_points: np.ndarray  # per session row, in 0..49

    def log_text(self) -> dict:
        """The session-log columns the model does not read, as
        ``write_sessions_csv`` takes them: (texts, each row's index into them)."""
        same = np.broadcast_to(0, self.access_points.size)
        return {"location": ([f"ap{j:03d}" for j in range(50)], self.access_points),
                "isp": (["campus"], same), "service_class": (["web"], same)}


def _draw_session_count(spec: SynthSpec, rng: np.random.Generator) -> int:
    if spec.sessions_dist == "fixed":
        return spec.sessions_lo
    if spec.sessions_dist == "poisson":
        return max(1, int(rng.poisson(spec.sessions_lo)))
    return int(rng.integers(spec.sessions_lo, spec.sessions_hi + 1))


def generate(spec: SynthSpec) -> tuple[SessionTable, GroundTruth]:
    """Sample a session corpus and its planted topic labels.

    Each user draws from an independent generator derived from
    (``spec.seed``, user index), so output never depends on generation
    order. The per-user draws are joined into columns once.
    """
    dominant = np.empty(spec.n_users, dtype=np.int64)
    counts = np.empty(spec.n_users, dtype=np.int64)
    n_universal = np.zeros(spec.n_users, dtype=np.int64)
    parts: dict[str, list[np.ndarray]] = {
        name: [] for name in ("word", "size", "duration", "location", "requests")
    }
    for idx in range(spec.n_users):
        rng = np.random.default_rng((spec.seed, idx))
        dominant[idx] = rng.integers(spec.n_topics)
        try:  # a count numpy cannot draw, or whose draws cannot be held, names its key
            n_sessions = counts[idx] = _draw_session_count(spec, rng)
            if spec.universal_domain:
                n_universal[idx] = max(1, int(round(UNIVERSAL_SHARE * n_sessions)))
            n_topic = n_sessions - n_universal[idx]
            rng.random(n_topic)  # unused; without it every later draw, and so every corpus, shifts
            parts["word"].append(rng.random(n_topic))
            parts["size"].append(rng.standard_normal(n_sessions))
            parts["duration"].append(rng.integers(30, 900, size=n_sessions))
            parts["location"].append(rng.integers(0, 50, size=n_sessions))
            parts["requests"].append(rng.poisson(4.0, size=n_sessions))
        except (ValueError, MemoryError) as exc:
            key = "sessions.hi" if spec.sessions_dist == "uniform" else "sessions.lo"
            raise ValueError(f"{key}: cannot draw the sessions of user {idx}: {exc}") from None
    draws = {name: np.concatenate(arrays) for name, arrays in parts.items()}
    users = np.repeat(np.arange(spec.n_users), counts)
    first_row = np.concatenate([[0], np.cumsum(counts)[:-1]])
    session_idx = np.arange(users.size) - np.repeat(first_row, counts)

    # topic sessions draw a domain from their user's topic's word distribution
    topics = np.repeat(dominant, counts - n_universal)
    topic_domains = np.empty(topics.size, dtype=np.int64)
    topic_cum = np.cumsum(spec.topic_word, axis=1)
    for t in np.unique(topics):
        mask = topics == t
        topic_domains[mask] = np.searchsorted(topic_cum[t], draws["word"][mask], side="right")
    # each user's topic sessions come first, then its universal ones (code n_domains)
    domains = np.full(users.size, spec.n_domains, dtype=np.int64)
    domains[session_idx < (counts - n_universal)[users]] = topic_domains.clip(
        0, spec.n_domains - 1
    )
    # numpy's standard normal draws stay within ±13.8, so a byte count stays below 10**13
    size = np.exp(np.log(BYTES_MEDIAN) + BYTES_SIGMA * draws["size"])
    user_ids = tuple(f"u{idx:05d}" for idx in range(spec.n_users))
    table = SessionTable.encoded(
        columns={
            "user_id": users,
            "start_time": _BASE_EPOCH + users * 7 + session_idx * 3600,
            "duration": draws["duration"].astype(np.float64),
            "domain": domains,
            "http_requests": 1 + draws["requests"],
            "bytes": np.maximum(1, np.rint(size)).astype(np.int64),
        },
        names={"user_id": user_ids, "domain": (*spec.domain_names, spec.universal_domain)},
    )
    return table, GroundTruth(user_ids, dominant, access_points=draws["location"])


def write_truth(truth: GroundTruth, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_rows(path, [("user_id", "topic"), *zip(truth.user_ids, truth.dominant.tolist())])


# --------------------------------------------------------------------------
# recovery metrics
# --------------------------------------------------------------------------


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected pair-counting agreement between two partitions.

    1.0 for identical partitions (up to relabeling), around 0 for
    independent ones; can go negative. Degenerate cases where the
    correction denominator vanishes (both partitions trivial and equal)
    return 1.0 by convention.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError(f"partition lengths differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n == 0:
        raise ValueError("partitions must be non-empty")
    contingency: dict[tuple, int] = {}
    count_a: dict = {}
    count_b: dict = {}
    for la, lb in zip(a, b):
        contingency[(la, lb)] = contingency.get((la, lb), 0) + 1
        count_a[la] = count_a.get(la, 0) + 1
        count_b[lb] = count_b.get(lb, 0) + 1
    index = sum(_comb2(v) for v in contingency.values())
    sum_a = sum(_comb2(v) for v in count_a.values())
    sum_b = sum(_comb2(v) for v in count_b.values())
    total = _comb2(n)
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))
