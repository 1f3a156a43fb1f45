"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live) and enforces its runtime budget.
"""

import contextlib
import csv
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import usertopics
from usertopics import cli
from usertopics.clustering import kmeans, sweep_k
from usertopics.ingest import build_profile_matrix, sessionize
from usertopics.lsa import orthonormality_residual, truncated_svd, user_features
from usertopics.synth import (
    SynthSpec,
    adjusted_rand_index,
    disjoint_topic_word,
    generate,
    overlapping_topic_word,
)
from usertopics.weighting import row_normalize, tfidf

import oracles
from helpers import (
    CLUSTER_OUTPUTS,
    make_event,
    matrix_from_dense,
    random_dense_positive,
    session_table,
)
from oracles import (
    dense_to_feature,
    optimal_inertia,
    reconstruct,
    spearman_rho,
    tfidf_oracle,
    to_records,
)


@contextlib.contextmanager
def criterion(number, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None and elapsed > budget_s:
        print(f"ACCEPTANCE {number} ({name}): FAIL over budget "
              f"({elapsed:.2f}s > {budget_s}s)")
        pytest.fail(f"criterion {number} exceeded {budget_s}s: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s")


def pipeline_ari(spec, m, k, restarts, kmeans_seed):
    sessions, truth = generate(spec)
    feature = tfidf(build_profile_matrix(sessions))
    feats = user_features(truncated_svd(feature, m))
    result = kmeans(feats, k, restarts=restarts, seed=kmeans_seed)
    pred = {u: int(l) for u, l in zip(feature.users, result.assignments)}
    tru = {u: int(t) for u, t in zip(truth.user_ids, truth.dominant)}
    users = list(feature.users)
    return adjusted_rand_index([pred[u] for u in users], [tru[u] for u in users])


def test_criterion_1_tfidf_exactness():
    """Log TF-IDF matches an arbitrary-precision scalar oracle to 1e-12."""
    rng = np.random.default_rng(101)
    with criterion(1, "tfidf-exactness", budget_s=1.0):
        worst = 0.0
        for _ in range(20):
            dense = random_dense_positive(rng, max_users=10, max_domains=10)
            f = tfidf(matrix_from_dense(dense))
            arr = f.toarray()
            # map back into the dense column space (all-zero columns are
            # dropped by construction and never carry oracle entries)
            got = np.zeros(dense.shape)
            for jm, name in enumerate(f.domains):
                got[:, int(name[1:])] = arr[:, jm]
            expected = tfidf_oracle(dense.tolist())
            checked = np.zeros_like(got, dtype=bool)
            for (i, j), val in expected.items():
                worst = max(worst, abs(got[i, j] - float(val)))
                checked[i, j] = True
            assert np.all(got[~checked] == 0.0)
        assert worst <= 1e-12, f"max abs error {worst:.3e}"


def test_criterion_2_popular_domain_suppression():
    """A domain visited by everyone: zero weight under tfidf, top label
    under row normalization."""
    with criterion(2, "popular-domain-suppression", budget_s=10.0):
        spec = SynthSpec(
            n_topics=4,
            n_domains=40,
            n_users=120,
            topic_word=disjoint_topic_word(4, 40),
            sessions_lo=40,
            sessions_hi=40,
            universal_domain="portal.example",
            seed=21,
        )
        sessions, _ = generate(spec)
        profile = build_profile_matrix(sessions)
        j_univ = profile.domains.index("portal.example")
        assert profile.column_counts()[j_univ] == profile.n_users

        feature = tfidf(profile)
        assert not np.any(feature.indices == j_univ)  # structurally zero
        assert np.all(feature.toarray()[:, j_univ] == 0.0)

        from usertopics.reporting import cluster_topics

        def top_report(fm):
            feats = user_features(truncated_svd(fm, 4))
            result = kmeans(feats, 4, restarts=10, seed=0)
            return cluster_topics(fm, result.assignments, result.k, top_n=10)

        rep_tfidf = top_report(feature)
        tfidf_tops = {d for entries in rep_tfidf.top for d, _ in entries}
        assert "portal.example" not in tfidf_tops

        rep_rownorm = top_report(row_normalize(profile))
        assert any(lab == "portal.example" for lab in rep_rownorm.labels)


def test_criterion_3_svd_oracle_equivalence():
    """Randomized truncation agrees with the exact decomposition."""
    rng = np.random.default_rng(301)
    with criterion(3, "svd-oracle-equivalence", budget_s=30.0):
        for trial in range(20):
            n = int(rng.integers(30, 201))
            d = int(rng.integers(30, 201))
            rho = float(rng.uniform(0.5, 0.8))
            r = min(n, d)
            qa, _ = np.linalg.qr(rng.standard_normal((n, r)))
            qb, _ = np.linalg.qr(rng.standard_normal((d, r)))
            dense = (qa * rho ** np.arange(r)) @ qb.T
            f = dense_to_feature(dense)

            sigma_exact = np.linalg.svd(dense, compute_uv=False)
            rand = truncated_svd(f, 10, method="randomized", seed=trial)
            rel = np.abs(rand.sigma - sigma_exact[:10]) / sigma_exact[:10]
            assert rel.max() <= 1e-6, f"trial {trial}: rel err {rel.max():.2e}"
            assert orthonormality_residual(rand.u) <= 1e-6
            assert orthonormality_residual(rand.v) <= 1e-6

            exact = truncated_svd(f, 10, method="exact")
            err = np.linalg.norm(dense - reconstruct(exact))
            tail = float(np.sqrt((sigma_exact[10:] ** 2).sum()))
            assert abs(err - tail) <= 1e-8


def test_criterion_4_kmeans_desk_scale_optimality():
    """Best-of-50 restarts matches exhaustive partition enumeration."""
    rng = np.random.default_rng(401)
    with criterion(4, "kmeans-optimality", budget_s=60.0):
        for trial in range(50):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 1))
            pts = rng.standard_normal((n, dim))
            best = optimal_inertia(pts, k)
            got = kmeans(pts, k, restarts=50, seed=trial).inertia
            assert abs(got - best) <= 1e-9, (
                f"trial {trial}: n={n} d={dim} k={k} got {got!r} optimal {best!r}"
            )


def test_criterion_5_inertia_trend():
    """Sweeping k on a 500-user corpus: non-increasing inertia, strict drop."""
    with criterion(5, "inertia-trend", budget_s=60.0):
        spec = SynthSpec(
            n_topics=8,
            n_domains=120,
            n_users=500,
            topic_word=disjoint_topic_word(8, 120),
            sessions_lo=50,
            sessions_hi=50,
            seed=51,
        )
        sessions, _ = generate(spec)
        feature = tfidf(build_profile_matrix(sessions))
        feats = user_features(truncated_svd(feature, 8))
        results = sweep_k(feats, 1, 13, restarts=10, seed=0)
        inertias = [r.inertia for r in results]
        assert len(inertias) == 13
        assert all(b <= a for a, b in zip(inertias, inertias[1:])), inertias
        assert inertias[12] < inertias[0]


def test_criterion_6_end_to_end_topic_recovery():
    """Planted 8-topic corpus: exact recovery, robust to 20% overlap."""
    with criterion(6, "topic-recovery", budget_s=300.0):
        disjoint = SynthSpec(
            n_topics=8,
            n_domains=300,
            n_users=2000,
            topic_word=disjoint_topic_word(8, 300),
            sessions_lo=55,
            sessions_hi=55,
            seed=61,
        )
        assert pipeline_ari(disjoint, m=8, k=8, restarts=10, kmeans_seed=0) == 1.0

        overlapping = SynthSpec(
            n_topics=8,
            n_domains=300,
            n_users=2000,
            topic_word=overlapping_topic_word(8, 300, 0.2),
            sessions_lo=55,
            sessions_hi=55,
            seed=62,
        )
        ari = pipeline_ari(overlapping, m=8, k=8, restarts=10, kmeans_seed=0)
        assert ari >= 0.8, f"overlap ARI {ari:.4f}"


def test_criterion_7_runtime_vs_rank_trend(tmp_path):
    """Pipeline runtime grows with the truncation rank (rank correlation of
    the least CPU time of the repeats per M)."""
    with criterion(7, "runtime-vs-rank", budget_s=None):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "n_topics": 10,
            "n_domains": 1000,
            "n_users": 5000,
            "sessions": {"dist": "fixed", "lo": 40},
            "seed": 71,
        }))
        synth_out = tmp_path / "synth"
        ws = tmp_path / "ws"
        assert cli.main(["synth", "--spec", str(spec), "--out-dir", str(synth_out)]) == 0
        assert cli.main([
            "ingest", "--workspace", str(ws),
            "--sessions", str(synth_out / "sessions.csv"),
        ]) == 0
        assert cli.main([
            "bench-m", "--workspace", str(ws), "--m-list", "100,200,400,800",
            "--repeats", "3", "-K", "8", "--restarts", "2",
            "--max-iter", "60", "--tol", "1e-4",
        ]) == 0
        # the least CPU time of three repeats per M: other load on the machine
        # stretches a repeat's wall time, but hardly the CPU time it spends
        with open(ws / "bench_m.txt", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ms = [int(row["m"]) for row in rows]
        cpu = [float(row["total_cpu_min_s"]) for row in rows]
        wall = [float(row["total_min_s"]) for row in rows]
        assert ms == [100, 200, 400, 800]
        rho = spearman_rho(ms, cpu)
        assert rho >= 0.8, f"spearman {rho:.2f} over CPU minima {cpu} (wall minima {wall})"


CRITERION_8_CLUSTER = ["cluster", "-M", "4", "-K", "4", "--seed", "17"]
CRITERION_8_SPEC = {
    "n_topics": 4,
    "n_domains": 60,
    "n_users": 300,
    "sessions": {"dist": "fixed", "lo": 40},
    "seed": 81,
}


def synth_workspace(tmp_path, spec):
    """Synthesize and ingest the corpus of ``spec``; returns the workspace."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    synth_out = tmp_path / "synth"
    ws = tmp_path / "ws"
    assert cli.main(["synth", "--spec", str(spec_path), "--out-dir", str(synth_out)]) == 0
    assert cli.main([
        "ingest", "--workspace", str(ws),
        "--sessions", str(synth_out / "sessions.csv"),
    ]) == 0
    return ws


def test_criterion_8_cluster_determinism(tmp_path):
    """Identical config + seed: bit-identical outputs, manifest aside."""
    with criterion(8, "determinism", budget_s=120.0):
        ws = synth_workspace(tmp_path, CRITERION_8_SPEC)
        args = CRITERION_8_CLUSTER + ["--workspace", str(ws)]
        assert cli.main(args) == 0
        keep = tmp_path / "first_run"
        keep.mkdir()
        for name in CLUSTER_OUTPUTS:
            shutil.copy(ws / name, keep / name)
        manifest1 = json.loads((ws / "manifest.json").read_text())
        manifest1.pop("timings")
        assert cli.main(args) == 0
        for name in CLUSTER_OUTPUTS:
            assert (ws / name).read_bytes() == (keep / name).read_bytes(), name
        manifest2 = json.loads((ws / "manifest.json").read_text())
        manifest2.pop("timings")
        assert manifest1 == manifest2


# (spec, cluster arguments): the criterion-8 corpus, then one corpus per SVD
# path large enough for OpenBLAS to split the factorization over two
# threads; unpinned, their factors differ between one thread and two
BLAS_THREAD_SESSIONS = {"sessions": {"dist": "fixed", "lo": 30}}
BLAS_THREAD_CASES = {
    "criterion-8": (CRITERION_8_SPEC, CRITERION_8_CLUSTER),
    "exact": (
        {**CRITERION_8_SPEC, **BLAS_THREAD_SESSIONS, "n_users": 600, "n_domains": 300},
        ["cluster", "-M", "20", "-K", "4", "--seed", "17"],
    ),
    "randomized": (
        {**CRITERION_8_SPEC, **BLAS_THREAD_SESSIONS, "n_users": 700, "n_domains": 600,
         "seed": 82},
        ["cluster", "-M", "150", "-K", "4", "--seed", "17"],
    ),
}


def test_cluster_outputs_independent_of_blas_threads(tmp_path):
    """Each corpus gives the same bytes on one OpenBLAS thread as on two."""
    package_root = str(Path(usertopics.__file__).resolve().parents[1])
    for case, (spec, cluster_args) in BLAS_THREAD_CASES.items():
        (tmp_path / case).mkdir()
        ws = synth_workspace(tmp_path / case, spec)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [package_root, env.get("PYTHONPATH")])
            )
            out = tmp_path / case / f"threads_{threads}"
            argv = cluster_args + ["--workspace", str(ws), "--out-dir", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "usertopics.cli", *argv],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out)
        for name in CLUSTER_OUTPUTS:
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), (
                case, name
            )


def test_criterion_9_conservation_and_idempotence():
    """Byte totals survive aggregation; sessionization is a fixed point."""
    with criterion(9, "conservation-idempotence", budget_s=30.0):
        for seed in (91, 92):
            spec = SynthSpec(
                n_topics=3,
                n_domains=30,
                n_users=150,
                topic_word=disjoint_topic_word(3, 30),
                sessions_lo=10,
                sessions_hi=60,
                sessions_dist="uniform",
                seed=seed,
            )
            sessions, _ = generate(spec)
            matrix = build_profile_matrix(sessions)
            assert float(matrix.data.sum()) == float(sum(sessions.columns["bytes"].tolist()))

        rng = np.random.default_rng(93)
        for _ in range(1000):
            n_events = int(rng.integers(1, 40))
            events = [
                make_event(
                    user=f"u{int(rng.integers(3))}",
                    t=int(rng.integers(0, 4000)),
                    domain=("a.com", "b.com", "c.com")[int(rng.integers(3))],
                    bytes=int(rng.integers(0, 1000)),
                    requests=int(rng.integers(0, 5)),
                )
                for _ in range(n_events)
            ]
            gap = float(rng.choice([60.0, 300.0, 900.0]))
            once = to_records(sessionize(session_table(events), gap))
            assert oracles.resessionize(once, gap) == once
            assert sum(s.bytes for s in once) == sum(e.bytes for e in events)