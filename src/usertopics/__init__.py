"""Cluster network users by browsing behaviour.

Pipeline: session logs -> users-by-domains profile matrix -> logarithmic
TF-IDF weighting -> truncated-SVD topic extraction -> k-means++ clustering
-> demographic reports. Use it through the ``usertopics`` command line
(the end-to-end workflow) or through its submodules
(``from usertopics.ingest import parse_sessions``); the package root
re-exports nothing.
"""

__version__ = "0.1.0"
