"""Workload definitions and the benchmark's own side inputs.

Each workload is a synth spec (the seed comes from the command line) plus
the analysis command that runs after ``usertopics ingest``. The corpora are
smaller than the reference corpora (criterion 7 uses 5,000 users): one
ingest + analysis takes about 3.5 s on a 2-core machine, so a 45-second run
collects a dozen samples, and each workload still spends most of its time
in the layer it is meant to stress.

The ARI floors sit below the lowest value observed over 30 corpora at
these sizes. Recovery is well below 1.0 and varies by corpus, so a floor
catches a broken pipeline; the artifact hashes catch any change in output.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # synth spec without "seed"
    analysis: tuple[str, ...]  # cluster command; the harness adds --workspace
    side_inputs: bool  # write demographics + transactions and pass them to cluster
    ari_floor: float  # lowest accepted ARI of the assignments against the truth
    smoke_spec: dict  # tiny corpus for --smoke
    smoke_analysis: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="campus-logs",
            spec={
                "n_topics": 8,
                "n_domains": 400,
                "n_users": 800,
                "topics": {"kind": "overlap", "share": 0.2},
                "sessions": {"dist": "poisson", "lo": 150},
                "universal_domain": "portal.example",
            },
            # the reference defaults
            analysis=("cluster", "-M", "80", "-K", "8", "--restarts", "10", "--seed", "0"),
            side_inputs=True,
            # ARI 0.35-0.82 over synth seeds 0-29
            ari_floor=0.2,
            smoke_spec={
                "n_topics": 4,
                "n_domains": 40,
                "n_users": 120,
                "topics": {"kind": "overlap", "share": 0.2},
                "sessions": {"dist": "poisson", "lo": 60},
                "universal_domain": "portal.example",
            },
            smoke_analysis=("cluster", "-M", "8", "-K", "4", "--restarts", "2", "--seed", "0"),
        ),
        Workload(
            name="wide-rank",
            spec={
                "n_topics": 10,
                "n_domains": 1000,
                "n_users": 1200,
                "sessions": {"dist": "fixed", "lo": 40},
            },
            # Unscaled, the 190 noise dimensions of M=200 swamp 10 topics at this
            # size (ARI 0.02-0.2); scaled by the singular values, ARI is
            # 0.47-1.0 over synth seeds 0-29.
            analysis=(
                "cluster", "-M", "200", "-K", "10", "--restarts", "2", "--seed", "0",
                "--scale-features",
            ),
            side_inputs=False,
            ari_floor=0.3,
            smoke_spec={
                "n_topics": 4,
                "n_domains": 520,
                "n_users": 520,
                "sessions": {"dist": "fixed", "lo": 30},
            },
            smoke_analysis=(
                "cluster", "-M", "10", "-K", "4", "--restarts", "2", "--seed", "0",
                "--scale-features",
            ),
        ),
    )
}

_EPOCH = datetime(2014, 9, 1, tzinfo=timezone.utc)


def write_side_inputs(n_users: int, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Demographics (one row per synth user) and a few transactions per user.

    User ids follow synth's ``u%05d`` scheme so every row joins a session
    user. Values are drawn from PCG64 seeded by ``seed``.
    """
    rng = np.random.default_rng((seed, 0xD3))
    demo_path = out_dir / "demographics.csv"
    tx_path = out_dir / "transactions.csv"
    genders = np.array(["male", "female", "unknown"])
    degrees = np.array(["bachelor", "master", "phd"])
    with open(demo_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "gender", "birth_year", "enrol_year", "degree_type"])
        gender = rng.choice(genders, size=n_users, p=[0.48, 0.48, 0.04])
        birth = rng.integers(1988, 1998, size=n_users)
        enrol = birth + 18 + rng.integers(0, 3, size=n_users)
        degree = rng.choice(degrees, size=n_users, p=[0.7, 0.25, 0.05])
        for i in range(n_users):
            writer.writerow([f"u{i:05d}", gender[i], birth[i], enrol[i], degree[i]])
    with open(tx_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "timestamp", "amount"])
        counts = rng.integers(1, 6, size=n_users)
        for i in range(n_users):
            offsets = np.sort(rng.integers(0, 30 * 86400, size=counts[i]))
            amounts = np.round(rng.gamma(2.0, 7.5, size=counts[i]), 2)
            for off, amount in zip(offsets, amounts):
                stamp = (_EPOCH + timedelta(seconds=int(off))).isoformat()
                writer.writerow([f"u{i:05d}", stamp, repr(float(amount))])
    return demo_path, tx_path
