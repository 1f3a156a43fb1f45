"""Run one usertopics CLI command with spans around the package's layers.

Usage:
    python3 pipebench/worker.py OUT.json CLI-ARG...

Spans are recorded from outside the program: before the command starts,
every function listed in LAYERS is looked up by name and replaced by a
wrapper, both in its defining module and in every usertopics module that
bound the same object by name (``from .matrix import read_matrix``), so the
span is taken wherever the name is looked up. A listed name that no longer
exists is reported as absent and its metrics stay zero.

OUT.json receives the in-process wall time of ``cli.main``, per-layer
calls with inclusive and self time, counters, the sum of the root spans,
and the absent names; the exit code is the command's. Spans are kept in memory and written
when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter


def _count_parse(args, report):
    return {"ingest.rows": len(report.records), "ingest.rows_rejected": report.n_errors}


def _count_bytes(key):
    def count(args, paths):
        return {key: sum(os.path.getsize(p) for p in paths)}

    return count


def _count_csr(args, out):
    # 2 flops (multiply, add) per stored entry and dense column
    nnz = len(args[2])
    return {"kernels.csr_products": 1, "kernels.csr_gflop": 2.0 * nnz * out.shape[1] / 1e9}


COUNTERS = (
    "ingest.rows",
    "ingest.rows_rejected",
    "matrix.bytes_written",
    "lsa.bytes_written",
    "kernels.csr_products",
    "kernels.csr_gflop",
)

# (layer, "module:function" names, counter over (args, result) or None)
LAYERS = (
    ("synth.generate", ("usertopics.synth:generate",), None),
    ("synth.write", ("usertopics.ingest:write_sessions_csv", "usertopics.synth:write_truth"), None),
    (
        "ingest.parse",
        ("usertopics.ingest:parse_sessions", "usertopics.ingest:parse_raw_events"),
        _count_parse,
    ),
    ("ingest.sessionize", ("usertopics.ingest:sessionize",), None),
    (
        "ingest.parse_side",
        ("usertopics.ingest:parse_demographics", "usertopics.ingest:parse_transactions"),
        None,
    ),
    ("ingest.aggregate", ("usertopics.ingest:build_profile_matrix",), None),
    ("matrix.stats", ("usertopics.matrix:domain_stats", "usertopics.matrix:rank_domains"), None),
    ("matrix.write", ("usertopics.matrix:write_matrix",), _count_bytes("matrix.bytes_written")),
    ("matrix.read", ("usertopics.matrix:read_matrix",), None),
    ("matrix.checksum", ("usertopics.matrix:matrix_checksum",), None),
    ("weighting.tfidf", ("usertopics.weighting:tfidf",), None),
    ("weighting.row_normalize", ("usertopics.weighting:row_normalize",), None),
    ("lsa.svd", ("usertopics.lsa:truncated_svd",), None),
    ("lsa.qr", ("numpy.linalg:qr",), None),
    ("lsa.dense_svd", ("numpy.linalg:svd",), None),
    ("lsa.save", ("usertopics.lsa:save_model",), _count_bytes("lsa.bytes_written")),
    ("kernels.csr", ("usertopics._kernels:csr_matmat", "usertopics._kernels:csr_tmatmat"), _count_csr),
    ("kernels.tf", ("usertopics._kernels:tf_values",), None),
    ("kernels.share", ("usertopics._kernels:share_values",), None),
    ("kernels.assign", ("usertopics._kernels:kmeans_assign",), None),
    ("kernels.update", ("usertopics._kernels:kmeans_update",), None),
    ("kernels.dsq", ("usertopics._kernels:dsq_update",), None),
    ("clustering.kmeans", ("usertopics.clustering:kmeans",), None),
    ("clustering.seed", ("usertopics.clustering:kmeanspp_init",), None),
    ("clustering.write", ("usertopics.clustering:write_clustering",), None),
    (
        "reporting.build",
        tuple(
            f"usertopics.reporting:{name}"
            for name in (
                "cluster_topics",
                "gender_breakdown",
                "birth_year_distribution",
                "spend_distribution",
                "summary_dict",
            )
        ),
        None,
    ),
    (
        "reporting.write",
        tuple(
            f"usertopics.reporting:{name}"
            for name in (
                "write_topic_report",
                "write_gender_report",
                "write_birth_year_report",
                "write_spend_report",
                "write_summary",
            )
        ),
        None,
    ),
)


class Tracer:
    """In-memory spans: [layer, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, layer, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([layer, time.perf_counter(), 0.0, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                self.counts.update(count(args, result))
            return result

        traced.pipebench_layer = layer
        return traced

    def install(self, layers) -> list[str]:
        """Wrap every listed function; return the names that do not exist."""
        package = [m for name, m in sys.modules.items() if name.partition(".")[0] == "usertopics"]
        absent = []
        for layer, targets, count in layers:
            for target in targets:
                mod_name, _, attr = target.partition(":")
                try:
                    module = importlib.import_module(mod_name)
                except ImportError:
                    absent.append(target)
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    absent.append(target)
                    continue
                if hasattr(original, "pipebench_layer"):  # alias of a wrapped function
                    continue
                traced = self._wrap(layer, original, count)
                setattr(module, attr, traced)
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, traced)
        return absent

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, inclusive time (outermost spans of the layer) and self time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (layer, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child[idx]
            while parent >= 0 and self.spans[parent][0] != layer:
                parent = self.spans[parent][3]
            if parent < 0:
                row["total_s"] += end - start
        return out

    def root_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from usertopics import cli

    tracer = Tracer()
    absent = tracer.install(LAYERS)
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "main_s": main_s,
                    "root_s": tracer.root_s(),
                    "layers": tracer.layers(),
                    "counts": dict(tracer.counts),
                    "absent": absent,
                },
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
