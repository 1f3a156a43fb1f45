"""Command-line pipeline: synth, ingest, cluster, sweep-k, bench-m.

Each command works against a workspace directory with well-known file
names, writes a JSON manifest recording every parameter plus per-stage
wall-clock timings and peak memory, and is deterministic given its
configuration and seed (timing fields aside). The manifest is removed when
the command starts and written last, so it marks a complete run. A lock
file keeps concurrent writers out of a workspace. Each command imports only
the stage modules it runs, so it pays no start-up time for the others.

Exit codes: 0 success, 1 usage or configuration error, 2 data error (bad
input data, or a file or directory that cannot be read or written).
Environment override: USERTOPICS_OUT (output directory default).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from ._store import WorkspaceLocked, workspace_lock, write_json, write_rows
from .matrix import (
    FEATURE_PROVENANCES, domain_stats, matrix_checksum, matrix_sidecar, rank_domains,
    read_matrix, write_matrix,
)
from .records import DEFAULT_GAP_SECONDS, PROFILE_METRICS, UserTable

log = logging.getLogger(__name__)

PROFILE_PREFIX = "profile"
FEATURE_PREFIX = "feature"
LSA_PREFIX = "lsa"

# reference defaults: 5-minute gap, byte metric, natural log, M=80, K=8,
# sweep 1..13, 10 restarts
DEFAULT_M = 80
DEFAULT_K = 8
DEFAULT_K_RANGE = (1, 13)
DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-6
DEFAULT_M_LIST = "100,200,300,400,500,600,700,800"
DEFAULT_BENCH_REPEATS = 5


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _env_out() -> str | None:
    return os.environ.get("USERTOPICS_OUT") or None


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise UsageError(f"missing required {what} path")
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} file not found: {p}")
    return p


def _write_manifest(path: Path, args, results: dict, watch: _Stopwatch, **parsed):
    """Write a run's manifest: ``params`` holds every parsed argument, updated
    by ``parsed`` (values the command derived, such as bench-m's M list)."""
    params = {key: val for key, val in vars(args).items() if key not in ("func", "command")}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    manifest = {
        "command": args.command,
        "version": __version__,
        "kernel_backend": _kernels.BACKEND,
        "params": {**params, **parsed},
        "results": results,
        "timings": {"stages_s": watch.stages, "total_s": watch.total(), "peak_rss_mb": rss_mb},
    }
    write_json(path, manifest)


class _Stopwatch:
    def __init__(self):
        self.stages: dict[str, float] = {}
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        yield
        self.stages[name] = time.perf_counter() - start

    def total(self) -> float:
        return time.perf_counter() - self._t0


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_synth(args) -> int:
    from . import ingest, synth

    out_dir = Path(args.out_dir)
    spec_path = _require_file(args.spec, "spec")
    try:
        spec = synth.SynthSpec.from_file(spec_path)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError, MemoryError) as exc:
        raise UsageError(f"malformed synth spec {spec_path}: {exc}") from exc
    with workspace_lock(out_dir):
        (out_dir / "synth_manifest.json").unlink(missing_ok=True)
        watch = _Stopwatch()
        with watch.stage("generate"):
            try:
                sessions, truth = synth.generate(spec)
            except (ValueError, MemoryError) as exc:
                raise UsageError(f"synth spec {spec_path}: {exc}") from exc
        with watch.stage("write"):
            ingest.write_sessions_csv(sessions, out_dir / "sessions.csv", truth.log_text())
            synth.write_truth(truth, out_dir / "truth.csv")
        _write_manifest(
            out_dir / "synth_manifest.json",
            args,
            {
                "n_sessions": len(sessions),
                "n_users": spec.n_users,
                "n_topics": spec.n_topics,
                "n_domains": spec.n_domains,
                "universal_domain": spec.universal_domain,
            },
            watch,
            seed=spec.seed,
        )
    print(f"generated {len(sessions)} sessions for {spec.n_users} users -> {out_dir}")
    return 0


def _parse_session_input(args, path: Path):
    from . import ingest

    options = dict(
        delimiter=args.delimiter, fail_fast=args.fail_fast, truncate_domains=args.truncate_domains
    )
    if args.raw_events:
        report = ingest.parse_raw_events(path, **options)
        return ingest.sessionize(report.records, gap_threshold=args.gap), report
    report = ingest.parse_sessions(path, **options)
    return report.records, report


def cmd_ingest(args) -> int:
    from . import ingest

    workspace = Path(args.workspace)
    if args.raw_events:
        path = _require_file(args.raw_events, "raw events")
    else:
        path = _require_file(args.sessions, "sessions")
    with workspace_lock(workspace):
        (workspace / "ingest_manifest.json").unlink(missing_ok=True)
        watch = _Stopwatch()
        try:
            with watch.stage("parse"):
                sessions, report = _parse_session_input(args, path)
            with watch.stage("aggregate"):
                matrix = ingest.build_profile_matrix(sessions, metric=args.metric)
        except (ingest.ParseError, ValueError) as exc:
            raise DataError(str(exc)) from exc
        with watch.stage("stats"):
            stats = domain_stats(matrix)
            ranked = rank_domains(stats)
        with watch.stage("write"):
            write_matrix(matrix, workspace / PROFILE_PREFIX)
            pos = {d: j for j, d in enumerate(stats.domains)}
            write_rows(
                workspace / "domain_stats.txt",
                [("domain", "median", "n_users_visited", "total"),
                 *((d, f"{stats.median[j]:.6g}", stats.n_visitors[j], f"{stats.total[j]:.6g}")
                   for d, j in zip(ranked, map(pos.get, ranked)))],
                comments=(f"n_users: {matrix.n_users}", f"n_domains: {matrix.n_domains}",
                          f"nonzero_median_fraction: {stats.nonzero_median_fraction:.6g}"),
            )
        _write_manifest(
            workspace / "ingest_manifest.json",
            args,
            {
                "n_sessions": len(sessions),
                "n_users": matrix.n_users,
                "n_domains": matrix.n_domains,
                "nnz": matrix.nnz,
                "parse_errors": report.n_errors,
                "parse_errors_by_kind": dict(report.errors_by_code),
                "parse_warnings": len(report.warnings),
                "nonzero_median_fraction": stats.nonzero_median_fraction,
                "profile_checksum": matrix_checksum(matrix),
            },
            watch,
        )
    print(f"ingested {matrix.n_users} users x {matrix.n_domains} domains "
          f"({matrix.nnz} entries, {report.n_errors} bad rows) -> {workspace}")
    return 0


def _recorded_checksum(workspace: Path) -> str:
    """``results.profile_checksum`` of the workspace's ingest manifest."""
    path = workspace / "ingest_manifest.json"
    try:
        checksum = json.loads(path.read_bytes())["results"]["profile_checksum"]
    except FileNotFoundError:
        raise DataError(f"no ingest manifest under {workspace}: run ingest again") from None
    except (ValueError, RecursionError, KeyError, TypeError):
        checksum = None
    if not isinstance(checksum, str):
        raise DataError(f"{path} records no results.profile_checksum: run ingest again")
    return checksum


@contextlib.contextmanager
def _open_workspace(args):
    """Load the workspace's profile and check its :func:`matrix_checksum`
    against the one ``ingest_manifest.json`` records, then hold the output
    directory's lock and remove its manifest, which the command writes again
    when it completes. A missing manifest or a mismatch is a data error.

    Yields (output directory, profile, its checksum, stopwatch with the
    ``load`` stage).
    """
    workspace = Path(args.workspace)
    out_dir = Path(args.out_dir) if args.out_dir else workspace
    prefix = workspace / PROFILE_PREFIX
    if not matrix_sidecar(prefix).is_file():
        raise DataError(f"no ingested profile matrix under {workspace}")
    watch = _Stopwatch()
    with watch.stage("load"):
        try:
            profile = read_matrix(prefix)
        except (ValueError, OSError) as exc:
            raise DataError(f"corrupt profile matrix under {workspace}: {exc}") from exc
        checksum = _recorded_checksum(workspace)
        if matrix_checksum(profile) != checksum:
            raise DataError(f"profile matrix under {workspace} does not match its ingest manifest")
    with workspace_lock(out_dir):
        (out_dir / "manifest.json").unlink(missing_ok=True)
        yield out_dir, profile, checksum, watch


def _run(args, profile, watch: _Stopwatch, m: int, k: int):
    """Weight, check M and K, factorize: the chain cluster, sweep-k and bench-m share.

    ``k`` is the largest cluster count the caller will ask for. Returns the
    feature matrix, the sign-canonical LSA model, the user features and the
    k-means keyword arguments.
    """
    from . import lsa, weighting

    try:
        with watch.stage("weighting"):
            if args.weighting == "tfidf":
                feature = weighting.tfidf(profile)
            else:
                feature = weighting.row_normalize(profile)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if feature.nnz == 0:  # e.g. every user visits every domain, so every IDF is 0
        raise DataError(f"the {args.weighting} feature matrix stores no entries")
    limit = min(feature.n_users, feature.n_domains)
    if not 1 <= m <= limit:
        raise UsageError(f"M={m} outside [1, {limit}] for this matrix")
    if not 1 <= k <= feature.n_users:
        raise UsageError(f"K={k} outside [1, {feature.n_users}] weighted users")
    with watch.stage("lsa"):
        try:
            model = lsa.truncated_svd(feature, m, seed=args.seed)
        except np.linalg.LinAlgError as exc:
            raise DataError(f"truncated SVD failed: {exc}") from exc
        model = lsa.canonicalize_signs(model)
        features = lsa.user_features(model, scale=args.scale_features)
    kmeans_kw = dict(restarts=args.restarts, max_iter=args.max_iter, tol=args.tol, seed=args.seed)
    return feature, model, features, kmeans_kw


def _parse_reports(args, watch: _Stopwatch):
    """The demographics and transactions tables, empty where not given, and
    each given file's parse counts; timed as the ``side_inputs`` stage when
    a file is given."""
    tables = {"demographics": UserTable((), {}), "transactions": UserTable((), {})}
    counts = {}
    given = [name for name in tables if getattr(args, name)]
    with watch.stage("side_inputs") if given else contextlib.nullcontext():
        for name in given:
            from . import ingest

            parse = getattr(ingest, f"parse_{name}")
            path = _require_file(getattr(args, name), name)
            try:
                report = parse(path, delimiter=args.delimiter, fail_fast=args.fail_fast)
            except ingest.ParseError as exc:
                raise DataError(str(exc)) from exc
            tables[name] = report.records
            counts[name] = {"parse_errors": report.n_errors, "parse_warnings": len(report.warnings),
                            "parse_errors_by_kind": dict(report.errors_by_code)}
    return tables["demographics"], tables["transactions"], counts


def _write_reports(out_dir: Path, feature, labels, k: int, demo, tx, top_n: int):
    from . import reporting

    topics = reporting.cluster_topics(feature, labels, k, top_n=top_n)
    gender = reporting.gender_breakdown(labels, k, feature.users, demo)
    birth = reporting.birth_year_distribution(labels, k, feature.users, demo)
    spend = reporting.spend_distribution(labels, k, feature.users, tx)
    reporting.write_topic_report(out_dir / "report_topics.txt", topics)
    reporting.write_gender_report(out_dir / "report_gender.txt", gender)
    reporting.write_birth_year_report(out_dir / "report_birth_years.txt", birth)
    reporting.write_spend_report(out_dir / "report_spend.txt", spend)
    summary = reporting.summary_dict(topics, gender, birth, spend)
    reporting.write_summary(out_dir / "summary.json", summary)
    return topics


def cmd_cluster(args) -> int:
    from . import clustering as clus
    from . import lsa, weighting

    with _open_workspace(args) as (out_dir, profile, checksum, watch):
        demo, tx, side_counts = _parse_reports(args, watch)
        feature, model, features, kmeans_kw = _run(args, profile, watch, args.m, args.k)
        with watch.stage("cluster"):
            result = clus.kmeans(features, args.k, **kmeans_kw)
        with watch.stage("report"):
            topics = _write_reports(
                out_dir, feature, result.assignments, result.k, demo, tx, args.top_n
            )
        with watch.stage("write"):
            write_matrix(feature, out_dir / FEATURE_PREFIX)
            lsa.save_model(model, out_dir / LSA_PREFIX)
            clus.write_clustering(result, feature.users, out_dir)
        # LAPACK's rank cut-off: sigma_i above sigma_1 * max(N_u, N_d) * eps
        cutoff = model.sigma[0] * max(feature.n_users, feature.n_domains) * np.finfo(float).eps
        _write_manifest(out_dir / "manifest.json", args, {
            "profile_checksum": checksum,
            "n_users": feature.n_users,
            "n_domains": feature.n_domains,
            "feature_nnz": feature.nnz,
            "numerical_rank": int(np.count_nonzero(model.sigma > cutoff)),
            "dropped_zero_users": profile.n_users - feature.n_users,
            "negative_weight_fraction": weighting.negative_fraction(feature),
            "svd_method": model.method,
            "svd_blas_threads": _kernels.svd_blas_threads(),
            "inertia": result.inertia,
            "iterations_run": result.iterations_run,
            "kmeans_runs": [dataclasses.asdict(run) for run in result.runs],
            "cluster_sizes": [int(s) for s in np.bincount(result.assignments, minlength=result.k)],
            "labels": topics.labels,
            **side_counts,
        }, watch)
    print(f"clustered {feature.n_users} users into K={args.k} (M={args.m}, "
          f"{args.weighting}); inertia {result.inertia:.6g} -> {out_dir}")
    return 0


def cmd_sweep_k(args) -> int:
    from . import clustering as clus

    if args.k_min < 1 or args.k_max < args.k_min:
        raise UsageError(f"bad K range [{args.k_min}, {args.k_max}]")
    with _open_workspace(args) as (out_dir, profile, checksum, watch):
        _, _, features, kmeans_kw = _run(args, profile, watch, args.m, args.k_max)
        with watch.stage("sweep"):
            results = clus.sweep_k(features, args.k_min, args.k_max, **kmeans_kw)
        write_rows(out_dir / "sweep_k.txt",
                   [("k", "inertia"), *((res.k, f"{res.inertia:.6g}") for res in results)])
        _write_manifest(out_dir / "manifest.json", args, {
            "profile_checksum": checksum,
            "svd_blas_threads": _kernels.svd_blas_threads(),
            "inertia": {str(r.k): r.inertia for r in results},
            "kmeans_runs": {str(r.k): [dataclasses.asdict(x) for x in r.runs] for r in results},
        }, watch)
    for res in results:
        print(f"K={res.k:3d}  inertia={res.inertia:.6g}")
    return 0


BENCH_STAGES = ("weighting", "lsa", "cluster", "total")


def cmd_bench_m(args) -> int:
    from . import clustering as clus

    try:
        m_list = [int(tok) for tok in args.m_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad M list {args.m_list!r}") from exc
    if not m_list:
        raise UsageError("empty M list")
    rows = []
    with _open_workspace(args) as (out_dir, profile, checksum, watch):
        for m in m_list:
            times = {stage: [] for stage in BENCH_STAGES}
            cpu = []  # process CPU seconds, all threads: steadier than wall time under load
            for _ in range(args.repeats):
                rep, cpu0 = _Stopwatch(), time.process_time()
                _, _, features, kmeans_kw = _run(args, profile, rep, m, args.k)
                with rep.stage("cluster"):
                    clus.kmeans(features, args.k, **kmeans_kw)
                for stage, seconds in rep.stages.items():
                    times[stage].append(seconds)
                times["total"].append(rep.total())
                cpu.append(time.process_time() - cpu0)
            row = {"m": m}
            for stage, samples in times.items():
                row[f"{stage}_median_s"] = statistics.median(samples)
            row.update(total_min_s=min(times["total"]), total_max_s=max(times["total"]),
                       total_cpu_min_s=min(cpu), total_cpu_max_s=max(cpu))
            rows.append(row)
        header = list(rows[0])
        write_rows(out_dir / "bench_m.txt", [header, *(
            [row["m"], *(f"{row[key]:.6g}" for key in header[1:])] for row in rows)])
        results = {"rows": rows, "svd_blas_threads": _kernels.svd_blas_threads(),
                   "profile_checksum": checksum}
        _write_manifest(out_dir / "manifest.json", args, results, watch, m_list=m_list)
    for row in rows:
        print(f"M={row['m']:4d}  total median {row['total_median_s']:.3f}s "
              f"(min {row['total_min_s']:.3f}s, max {row['total_max_s']:.3f}s)")
    return 0


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------


def _checked(convert, rule: str, ok):
    """argparse type: ``convert`` the text, then require ``ok`` of the value."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value" names it
    return parse


_positive_int = _checked(int, "at least 1", lambda v: v >= 1)
_positive_float = _checked(float, "positive", lambda v: v > 0)
_non_negative_int = _checked(int, "at least 0", lambda v: v >= 0)
_tolerance = _checked(float, "finite and at least 0", lambda v: math.isfinite(v) and v >= 0)


def _add_pipeline_flags(p):
    """The workspace and model flags of cluster, sweep-k and bench-m."""
    p.add_argument("--workspace", required=True, help="ingested workspace")
    p.add_argument("--out-dir", default=_env_out(),
                   help="output directory (default: the workspace)")
    p.add_argument("--weighting", choices=FEATURE_PROVENANCES, default="tfidf")
    p.add_argument("--scale-features", action="store_true",
                   help="scale user features by the singular values")
    p.add_argument("--restarts", type=_positive_int, default=DEFAULT_RESTARTS)
    p.add_argument("--max-iter", type=_non_negative_int, default=DEFAULT_MAX_ITER)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--seed", type=_non_negative_int, default=0, help="random seed")


def _delimiter(text: str) -> str:
    """argparse type: a field delimiter the csv module accepts."""
    try:
        csv.reader([], delimiter=text)
    except (TypeError, ValueError, csv.Error) as exc:
        raise argparse.ArgumentTypeError(f"bad delimiter {text!r}: {exc}") from None
    return text


def build_parser() -> _Parser:
    parser = _Parser(prog="usertopics", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic session corpus")
    p.add_argument("--spec", required=True, help="JSON spec path")
    p.add_argument("--out-dir", default=_env_out(), required=_env_out() is None,
                   help="output directory (env: USERTOPICS_OUT)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse logs and build the profile matrix")
    p.add_argument("--workspace", required=True, help="workspace directory to create")
    source = p.add_mutually_exclusive_group()  # cmd_ingest requires one of the two
    source.add_argument("--sessions", help="session CSV path")
    source.add_argument("--raw-events", help="raw event CSV path (sessionized on the fly)")
    p.add_argument("--gap", type=_positive_float, default=DEFAULT_GAP_SECONDS,
                   help="sessionization gap threshold in seconds")
    p.add_argument("--metric", choices=list(PROFILE_METRICS), default="bytes")
    p.add_argument("--delimiter", type=_delimiter, default=",")
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--truncate-domains", action="store_true",
                   help="cut domains down to a registrable suffix heuristically")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="weight, factorize, cluster and report")
    p.add_argument("-M", "--m", dest="m", type=int, default=DEFAULT_M)
    p.add_argument("-K", "--k", dest="k", type=int, default=DEFAULT_K)
    _add_pipeline_flags(p)
    p.add_argument("--demographics", help="demographics CSV path")
    p.add_argument("--transactions", help="transactions CSV path")
    p.add_argument("--top-n", type=_positive_int, default=10)
    p.add_argument("--delimiter", type=_delimiter, default=",")
    p.add_argument("--fail-fast", action="store_true")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep-k", help="inertia for a range of cluster counts")
    p.add_argument("-M", "--m", dest="m", type=int, default=DEFAULT_M)
    p.add_argument("--k-min", type=int, default=DEFAULT_K_RANGE[0])
    p.add_argument("--k-max", type=int, default=DEFAULT_K_RANGE[1])
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("bench-m", help="runtime of the pipeline for several ranks")
    p.add_argument("--m-list", default=DEFAULT_M_LIST,
                   help="comma-separated truncation ranks")
    p.add_argument("--repeats", type=_positive_int, default=DEFAULT_BENCH_REPEATS)
    p.add_argument("-K", "--k", dest="k", type=int, default=DEFAULT_K)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_bench_m)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, WorkspaceLocked) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path the command cannot create, read or replace
        path = exc.filename2 or exc.filename
        message = f"{path}: {exc.strerror}" if path else exc
        print(f"data error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
