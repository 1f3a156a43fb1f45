import math

import numpy as np
import pytest

from usertopics.clustering import kmeans
from usertopics.ingest import build_profile_matrix
from usertopics.lsa import truncated_svd, user_features
from usertopics.records import DemographicRecord, TransactionRecord
from usertopics.reporting import (
    birth_year_distribution,
    cluster_topics,
    gender_breakdown,
    spend_distribution,
    top_domain_union,
)
from usertopics.synth import SynthSpec, disjoint_topic_word, generate
from usertopics.weighting import row_normalize, tfidf

from oracles import dense_to_feature


def labels_and_k(labels, k=None):
    """The (labels, k) arguments of the report functions."""
    labels = np.asarray(labels, dtype=np.int64)
    return labels, k or int(labels.max()) + 1


class TestClusterTopics:
    def test_identical_rows(self):
        f = dense_to_feature([[1.0, 0.0], [1.0, 0.0]])
        rep = cluster_topics(f, *labels_and_k([0, 0]), top_n=2)
        assert rep.labels == ["d0000"]
        assert rep.top[0][0] == ("d0000", 1.0)

    def test_singleton_cluster_argmax(self):
        f = dense_to_feature([[0.2, 0.9], [0.8, 0.1]])
        rep = cluster_topics(f, *labels_and_k([0, 1]))
        assert rep.labels == ["d0001", "d0000"]

    def test_zeros_count_in_denominator(self):
        f = dense_to_feature([[1.0, 0.0], [0.0, 0.0]])
        rep = cluster_topics(f, *labels_and_k([0, 0]))
        assert rep.mean_weights[0, 0] == 0.5

    def test_misaligned_shapes(self):
        f = dense_to_feature([[1.0]])
        with pytest.raises(ValueError):
            cluster_topics(f, *labels_and_k([0, 1]))

    def test_sizes_sum_to_users(self):
        f = dense_to_feature(np.eye(5))
        rep = cluster_topics(f, *labels_and_k([0, 1, 0, 1, 2]))
        assert rep.sizes.sum() == 5

    def test_tie_breaks_by_domain_name(self):
        f = dense_to_feature([[0.5, 0.5]])
        rep = cluster_topics(f, *labels_and_k([0]))
        assert [d for d, _ in rep.top[0]] == ["d0000", "d0001"]

    def test_permutation_invariant_means(self, rng):
        dense = rng.random((6, 4))
        labels = np.array([0, 1, 0, 1, 0, 1])
        rep1 = cluster_topics(dense_to_feature(dense), *labels_and_k(labels))
        perm = rng.permutation(6)
        rep2 = cluster_topics(dense_to_feature(dense[perm]), *labels_and_k(labels[perm]))
        assert np.allclose(rep1.mean_weights, rep2.mean_weights, atol=1e-12)

    def test_universal_domain_contrast(self):
        # one domain visited by everyone: invisible to tfidf top lists,
        # dominant under row normalization
        spec = SynthSpec(
            n_topics=3,
            n_domains=30,
            n_users=60,
            topic_word=disjoint_topic_word(3, 30),
            sessions_lo=40,
            sessions_hi=40,
            universal_domain="portal.example",
            seed=5,
        )
        sessions, _ = generate(spec)
        profile = build_profile_matrix(sessions)

        def pipeline(feature):
            feats = user_features(truncated_svd(feature, 3, method="exact"))
            c = kmeans(feats, 3, restarts=10, seed=0)
            return cluster_topics(feature, c.assignments, c.k, top_n=10)

        rep_tfidf = pipeline(tfidf(profile))
        all_tfidf_tops = {d for entries in rep_tfidf.top for d, _ in entries}
        assert "portal.example" not in all_tfidf_tops

        rep_rownorm = pipeline(row_normalize(profile))
        assert "portal.example" in rep_rownorm.labels

    def test_union_axis(self):
        f = dense_to_feature([[1.0, 0.0], [0.0, 1.0]])
        rep = cluster_topics(f, *labels_and_k([0, 1]))
        assert top_domain_union(rep) == ["d0000", "d0001"]


DEMO = [
    DemographicRecord("u0", "male", 1995),
    DemographicRecord("u1", "male", 1995),
    DemographicRecord("u2", "female", 1996),
    DemographicRecord("u3", "female"),
    DemographicRecord("u4", "male", 1990),
    DemographicRecord("u5", "unknown"),
]


class TestGenderBreakdown:
    def test_even_split(self):
        rep = gender_breakdown(np.array([0, 0, 0, 0]), 1, ["u0", "u1", "u2", "u3"], DEMO)
        assert rep.fractions[0] == 0.5

    def test_all_male(self):
        rep = gender_breakdown(np.array([0, 0, 0]), 1, ["u0", "u1", "u4"], DEMO)
        assert rep.fractions[0] == 1.0

    def test_unknown_cluster_fraction_absent(self):
        rep = gender_breakdown(np.array([0, 0]), 1, ["u5", "unlisted"], DEMO)
        assert rep.fractions[0] is None
        assert rep.unknown[0] == 2

    def test_overall(self):
        users = ["u0", "u1", "u2", "u3", "u5"]
        rep = gender_breakdown(np.array([0, 1, 0, 1, 0]), 2, users, DEMO)
        assert rep.overall_fraction == pytest.approx(0.5)


class TestBirthYears:
    def test_single_year(self):
        rep = birth_year_distribution(np.array([0, 0]), 1, ["u0", "u1"], DEMO)
        assert rep.years == (1995,)
        assert rep.counts.tolist() == [[2]]

    def test_missing_years_excluded(self):
        rep = birth_year_distribution(np.array([0, 0]), 1, ["u0", "u3"], DEMO)
        assert rep.counts.sum() == 1

    def test_normalized_rows(self):
        rep = birth_year_distribution(np.array([0, 0, 1]), 2, ["u0", "u2", "u4"], DEMO)
        assert np.allclose(rep.normalized.sum(axis=1), [1.0, 1.0])


TX = [
    TransactionRecord("u0", 0, 10.0),
    TransactionRecord("u0", 1, 15.0),
    TransactionRecord("u2", 2, 40.0),
]


class TestSpend:
    def test_totals(self):
        rep = spend_distribution(np.array([0, 0]), 1, ["u0", "u2"], TX)
        assert rep.totals.tolist() == [25.0, 40.0]

    def test_no_transactions_mean_zero(self):
        rep = spend_distribution(np.array([0]), 1, ["u9"], TX)
        assert rep.means[0] == 0.0

    def test_histogram_counts_sum_to_cluster_sizes(self):
        rep = spend_distribution(np.array([0, 1, 0]), 2, ["u0", "u2", "unseen"], TX)
        assert rep.counts.sum(axis=1).tolist() == [2, 1]

    def test_totals_independent_of_transaction_order(self, rng):
        # two-decimal amounts, whose running + sums differ by order in the last bits
        users = [f"u{i}" for i in range(6)]
        tx = [TransactionRecord(u, 0, round(float(a), 2))
              for u in users for a in rng.gamma(2.0, 7.5, size=12)]
        labels = np.zeros(len(users), dtype=np.int64)
        want = spend_distribution(labels, 1, users, tx).totals
        assert want.tolist() == [math.fsum(t.amount for t in tx if t.user_id == u) for u in users]
        for _ in range(50):
            shuffled = [tx[i] for i in rng.permutation(len(tx))]
            assert spend_distribution(labels, 1, users, shuffled).totals.tobytes() == want.tobytes()


class TestDeterminism:
    def test_reports_bit_identical(self, rng):
        dense = rng.random((8, 5))
        labels = rng.integers(0, 3, size=8)
        f = dense_to_feature(dense)
        a = cluster_topics(f, labels, 3)
        b = cluster_topics(f, labels, 3)
        assert np.array_equal(a.mean_weights, b.mean_weights)
        assert a.top == b.top and a.labels == b.labels
