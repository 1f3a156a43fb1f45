"""Cluster analysis reports: topic labels, gender, birth years, spending.

Reports are emitted as plot-ready tabular text plus one combined JSON
summary; numeric values are printed with 6 significant digits. Rerunning a
report on identical inputs is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._store import write_json, write_rows
from .matrix import FeatureMatrix
from .records import GENDERS, UserTable


def _fmt(x: float) -> str:
    return f"{x:.6g}"


@dataclass(frozen=True, eq=False)
class ClusterTopicReport:
    """Per-cluster mean weights and the top-weighted domains."""

    sizes: np.ndarray  # cluster sizes, sum equals the clustered user count
    mean_weights: np.ndarray  # k x n_domains, zeros included in the mean
    top: list[list[tuple[str, float]]]  # per cluster, descending weight
    labels: list[str | None]  # top-1 domain per cluster, None if no weight
    domains: tuple[str, ...]
    provenance: str


def cluster_topics(
    f: FeatureMatrix, labels: np.ndarray, k: int, top_n: int = 10
) -> ClusterTopicReport:
    """Mean feature weight per (cluster, domain) and top-``top_n`` lists.

    ``labels`` holds each row's cluster in [0, k). The mean divides by the
    full cluster size, structural zeros included. Only domains with a
    nonzero mean are ranked; ties break by domain name. The cluster label
    is the heaviest domain.
    """
    if f.n_users != labels.shape[0]:
        raise ValueError(f"matrix has {f.n_users} rows but {labels.shape[0]} labels")
    sizes = np.bincount(labels, minlength=k)
    sums = np.zeros((k, f.n_domains))
    np.add.at(sums, (labels[f.entry_rows], f.indices), f.data)
    means = sums / np.maximum(sizes, 1)[:, None]
    top: list[list[tuple[str, float]]] = []
    names: list[str | None] = []
    for g in range(k):
        nonzero = np.flatnonzero(means[g] != 0.0)
        ranked = sorted(nonzero, key=lambda j: (-means[g, j], f.domains[j]))
        entries = [(f.domains[j], float(means[g, j])) for j in ranked[:top_n]]
        top.append(entries)
        names.append(entries[0][0] if entries else None)
    return ClusterTopicReport(sizes=sizes, mean_weights=means, top=top, labels=names,
                              domains=f.domains, provenance=f.provenance)


def top_domain_union(report: ClusterTopicReport) -> list[str]:
    """Union of every cluster's top list, name-ascending (plot axis)."""
    return sorted({name for entries in report.top for name, _ in entries})


@dataclass(frozen=True, eq=False)
class GenderReport:
    males: np.ndarray  # per cluster
    females: np.ndarray
    unknown: np.ndarray
    fractions: list[float | None]  # males / (males + females); None if no known
    overall_fraction: float | None


def gender_breakdown(
    labels: np.ndarray, k: int, user_ids, demographics: UserTable
) -> GenderReport:
    """Male fraction per cluster and overall.

    Users absent from the demographic data count as unknown; unknowns are
    excluded from the fraction denominator and reported separately. A
    cluster with no known genders gets fraction None, not zero.
    """
    codes = demographics.lookup("gender", user_ids, GENDERS.index("unknown"))
    counts = np.bincount(codes * k + labels, minlength=len(GENDERS) * k)
    males, females, unknown = counts.reshape(len(GENDERS), k)
    fractions: list[float | None] = []
    for g in range(k):
        known = males[g] + females[g]
        fractions.append(float(males[g] / known) if known else None)
    total_known = int(males.sum() + females.sum())
    overall = float(males.sum() / total_known) if total_known else None
    return GenderReport(males=males, females=females, unknown=unknown, fractions=fractions,
                        overall_fraction=overall)


@dataclass(frozen=True, eq=False)
class BirthYearReport:
    years: tuple[int, ...]  # ascending
    counts: np.ndarray  # k x len(years)
    normalized: np.ndarray  # rows sum to 1 for clusters with any data


def birth_year_distribution(
    labels: np.ndarray, k: int, user_ids, demographics: UserTable
) -> BirthYearReport:
    """Counts per (cluster, birth year); missing years are excluded."""
    years = demographics.lookup("birth_year", user_ids, 0)
    given = years != 0
    values, pos = np.unique(years[given], return_inverse=True)
    counts = np.bincount(labels[given] * values.size + pos, minlength=k * values.size)
    counts = counts.reshape(k, values.size)
    row_totals = counts.sum(axis=1)
    normalized = counts / np.maximum(row_totals, 1)[:, None]
    return BirthYearReport(years=tuple(values.tolist()), counts=counts, normalized=normalized)


@dataclass(frozen=True, eq=False)
class SpendReport:
    edges: np.ndarray
    counts: np.ndarray  # k x n_bins, per-cluster rows sum to cluster size
    means: np.ndarray  # per-cluster mean of per-user totals
    totals: np.ndarray  # per-user total spend, aligned with user_ids


def spend_distribution(
    labels: np.ndarray, k: int, user_ids, transactions: UserTable
) -> SpendReport:
    """Per-user total spend histogrammed and averaged per cluster.

    Users without transactions count as total 0. Ten equal-width bins span
    [0, max total] (the last bin is closed so every total lands somewhere).
    """
    totals = transactions.lookup("amount", user_ids, 0.0)
    top = float(totals.max()) if totals.size and totals.max() > 0 else 1.0
    edges = np.linspace(0.0, top, 11)
    n_bins = edges.size - 1
    pos = np.searchsorted(edges, totals, side="right") - 1
    pos = np.clip(pos, 0, n_bins - 1)  # closed outer bins: everything tallies
    counts = np.zeros((k, n_bins), dtype=np.int64)
    np.add.at(counts, (labels, pos), 1)
    sums = np.zeros(k)
    np.add.at(sums, labels, totals)
    sizes = np.bincount(labels, minlength=k)
    means = sums / np.maximum(sizes, 1)
    return SpendReport(edges=edges, counts=counts, means=means, totals=totals)


# --------------------------------------------------------------------------
# writers
# --------------------------------------------------------------------------


def write_topic_report(path: str | Path, report: ClusterTopicReport) -> None:
    rows = [("cluster", "size", "label", "rank", "domain", "mean_weight")]
    for g, entries in enumerate(report.top):
        label = report.labels[g] or ""
        if not entries:
            rows.append((g, report.sizes[g], label, "", "", ""))
        for rank, (domain, weight) in enumerate(entries, start=1):
            rows.append((g, report.sizes[g], label, rank, domain, _fmt(weight)))
    write_rows(path, rows, comments=(f"provenance: {report.provenance}",))


def write_gender_report(path: str | Path, report: GenderReport) -> None:
    counts = (report.males, report.females, report.unknown)
    rows = [
        (g, *(c[g] for c in counts), "" if frac is None else _fmt(frac))
        for g, frac in enumerate(report.fractions)
    ]
    overall = report.overall_fraction
    write_rows(path, [
        ("cluster", "males", "females", "unknown", "male_fraction"),
        *rows,
        ("overall", *(c.sum() for c in counts), "" if overall is None else _fmt(overall)),
    ])


def write_birth_year_report(path: str | Path, report: BirthYearReport) -> None:
    write_rows(path, [
        ("cluster", "birth_year", "count", "fraction"),
        *((g, report.years[i], report.counts[g, i], _fmt(report.normalized[g, i]))
          for g, i in zip(*np.nonzero(report.counts))),
    ])


def write_spend_report(path: str | Path, report: SpendReport) -> None:
    edges = [_fmt(e) for e in report.edges]
    write_rows(path, [
        ("cluster", "mean_spend", "bin_low", "bin_high", "count"),
        *((g, _fmt(report.means[g]), edges[b], edges[b + 1], report.counts[g, b])
          for g, b in np.ndindex(report.counts.shape)),
    ])


def _json6(x: float | None) -> float | None:
    """``x`` rounded to the 6 significant digits the text reports show."""
    return None if x is None else float(_fmt(x))


def summary_dict(topics: ClusterTopicReport, gender: GenderReport, birth: BirthYearReport,
                 spend: SpendReport) -> dict:
    """Combined machine-readable summary of all reports."""
    return {
        "provenance": topics.provenance,
        "cluster_sizes": [int(s) for s in topics.sizes],
        "labels": topics.labels,
        "top_domains": [
            [{"domain": d, "mean_weight": _json6(w)} for d, w in entries]
            for entries in topics.top
        ],
        "top_domain_union": top_domain_union(topics),
        "gender": {
            "male_fraction_per_cluster": [_json6(f) for f in gender.fractions],
            "overall_male_fraction": _json6(gender.overall_fraction),
        },
        "birth_years": {"years": list(birth.years), "counts": birth.counts.tolist()},
        "spend": {"edges": [_json6(e) for e in spend.edges],
                  "mean_per_cluster": [_json6(m) for m in spend.means]},
    }


def write_summary(path: str | Path, summary: dict) -> None:
    write_json(Path(path), summary)
