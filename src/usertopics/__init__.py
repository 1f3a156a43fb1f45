"""Cluster network users by browsing behaviour.

Pipeline: session logs -> users-by-domains profile matrix -> logarithmic
TF-IDF weighting -> truncated-SVD topic extraction -> k-means++ clustering
-> demographic reports. See the ``usertopics`` command-line entry point for
the end-to-end workflow.
"""

__version__ = "0.1.0"

from .clustering import Clustering, inertia, kmeans, kmeanspp_init, sweep_k
from .ingest import (
    ParseError,
    ParseReport,
    SessionTable,
    build_profile_matrix,
    normalize_domain,
    parse_demographics,
    parse_raw_events,
    parse_sessions,
    parse_transactions,
    resessionize,
    sessionize,
)
from .lsa import (
    LsaModel,
    canonicalize_signs,
    load_model,
    reconstruct,
    save_model,
    truncated_svd,
    user_features,
)
from .matrix import (
    DomainStats,
    FeatureMatrix,
    ProfileMatrix,
    domain_stats,
    matrix_checksum,
    rank_domains,
    read_matrix,
    write_matrix,
)
from .records import DemographicRecord, RawEvent, SessionRecord, TransactionRecord
from .reporting import (
    birth_year_distribution,
    cluster_topics,
    gender_breakdown,
    spend_distribution,
)
from .synth import (
    GroundTruth,
    SynthSpec,
    adjusted_rand_index,
    disjoint_topic_word,
    generate,
    overlapping_topic_word,
    purity,
)
from .weighting import (
    drop_zero_rows,
    idf,
    negative_fraction,
    row_normalize,
    tf,
    tfidf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
