import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from usertopics.clustering import kmeans
from usertopics.ingest import (
    DEMOGRAPHIC_COLUMNS,
    TRANSACTION_COLUMNS,
    build_profile_matrix,
    parse_demographics,
    parse_transactions,
)
from usertopics.lsa import truncated_svd, user_features
from usertopics.reporting import (
    birth_year_distribution,
    cluster_topics,
    gender_breakdown,
    spend_distribution,
    top_domain_union,
)
from usertopics.synth import SynthSpec, disjoint_topic_word, generate
from usertopics.weighting import row_normalize, tfidf

from oracles import (
    birth_year_distribution_join,
    dense_to_feature,
    gender_breakdown_join,
    parse_side_rows,
    spend_distribution_join,
)


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


def side_text(columns, rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([columns, *rows])
    return out.getvalue()


DEMO = parse_demographics(io.StringIO(side_text(DEMOGRAPHIC_COLUMNS, [
    ("u0", "male", "1995", "", ""),
    ("u1", "male", "1995", "", ""),
    ("u2", "female", "1996", "", ""),
    ("u3", "female", "", "", ""),
    ("u4", "male", "1990", "", ""),
    ("u5", "unknown", "", "", ""),
]))).records


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


TX = parse_transactions(io.StringIO(side_text(TRANSACTION_COLUMNS, [
    ("u0", "1970-01-01T00:00:00Z", "10.0"),
    ("u0", "1970-01-01T00:00:01Z", "15.0"),
    ("u2", "1970-01-01T00:00:02Z", "40.0"),
]))).records


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


class TestDeterminism:
    def test_reports_bit_identical(self, rng):
        dense = rng.random((8, 5))
        labels = rng.integers(0, 3, size=8)
        f = dense_to_feature(dense)
        a = cluster_topics(f, labels, 3)
        b = cluster_topics(f, labels, 3)
        assert np.array_equal(a.mean_weights, b.mean_weights)
        assert a.top == b.top and a.labels == b.labels


# ids that sort next to each other, differ only by a trailing NUL, or are not ASCII
JOIN_USERS = ("u1", "u1\x00", "u10", "u2", "é", "ü2", "用户")


def report_fields(report) -> dict:
    """A report's fields, each array as (dtype, shape, bytes)."""
    return {
        name: (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, np.ndarray) else value
        for name, value in vars(report).items()
    }


@st.composite
def joined_side_inputs(draw):
    """(clustered user ids in any order, labels, k, demographics text,
    transactions text). The side files may list users that were not
    clustered, miss clustered ones, and repeat a user."""
    users = draw(st.lists(st.sampled_from(JOIN_USERS), unique=True))
    k = draw(st.integers(min_value=1, max_value=3))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=len(users), max_size=len(users)))
    demo = draw(st.lists(st.tuples(
        st.sampled_from(JOIN_USERS), st.sampled_from(["male", "female", "unknown", "", "FEMALE"]),
        st.sampled_from(["", "1990", "1995", "2001"]), st.just(""), st.just("")), max_size=12))
    tx = draw(st.lists(st.tuples(
        st.sampled_from(JOIN_USERS), st.just("2014-09-01T10:00:00Z"),
        st.sampled_from(["0", "0.1", "1.5", "12.25", "3", "1e-5", "7.3"])), max_size=20))
    return (users, np.array(labels, dtype=np.int64), k,
            side_text(DEMOGRAPHIC_COLUMNS, demo), side_text(TRANSACTION_COLUMNS, tx))


@given(joined_side_inputs())
@example((["u1", "u1\x00", "é", "u3"], np.array([0, 1, 1, 0]), 2,
          side_text(DEMOGRAPHIC_COLUMNS, [("u1\x00", "male", "1990", "", ""),
                                          ("u1", "female", "1995", "", ""),
                                          ("é", "male", "", "", ""), ("é", "female", "2001", "", ""),
                                          ("only-here", "male", "1990", "", "")]),
          side_text(TRANSACTION_COLUMNS, [("u1", "2014-09-01T10:00:00Z", "0.1"),
                                          ("u1\x00", "2014-09-01T10:00:00Z", "7.3"),
                                          ("u1", "2014-09-01T10:00:00Z", "0.2"),
                                          ("only-here", "2014-09-01T10:00:00Z", "3")])))
def test_reports_over_tables_match_record_joins(inputs):
    users, labels, k, demo_text, tx_text = inputs
    demo = parse_demographics(io.StringIO(demo_text)).records
    tx = parse_transactions(io.StringIO(tx_text)).records
    demo_rows = parse_side_rows(DEMOGRAPHIC_COLUMNS, io.StringIO(demo_text))[0]
    tx_rows = parse_side_rows(TRANSACTION_COLUMNS, io.StringIO(tx_text))[0]
    for report, join, table, rows in (
        (gender_breakdown, gender_breakdown_join, demo, demo_rows),
        (birth_year_distribution, birth_year_distribution_join, demo, demo_rows),
        (spend_distribution, spend_distribution_join, tx, tx_rows),
    ):
        got = report(labels, k, tuple(users), table)
        assert report_fields(got) == report_fields(join(labels, k, users, rows)), report.__name__
