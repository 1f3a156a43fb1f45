#!/usr/bin/env python3
"""Pipeline benchmark: from a session log file to clusters and reports.

Usage (from the repository root):
    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --smoke

One run of one workload (workloads.py; the reasons are in BENCHMARK.json):

1. Set-up: generate five corpora, with synth seeds 5N to 5N+4 for
   ``--seed N`` (``usertopics synth`` plus, on campus-logs, the
   benchmark's demographics and transactions files), and report the
   median wall time of the five as ``setup_s``. K-means work varies from
   corpus to corpus, so one run's medians span five of them.
2. For ``--seconds`` seconds, cycling through the corpora, repeat on a
   fresh workspace: ``usertopics ingest``, then the workload's ``cluster``
   command; start no iteration that would end after the window. Every command runs in a fresh interpreter, as a user
   invokes it, so interpreter and BLAS start-up are part of its wall time.
   Peak memory is each command process's ``ru_maxrss``.
3. Check the outputs: exit codes, the ingest manifest, the adjusted Rand
   index against the planted truth (per-workload floor), and a sha256
   over the workspace artifacts
   (manifests aside) that must be equal on every iteration on one corpus
   and in every earlier result of the same workload, seed and source.
   Inputs must hash the same as in those earlier results too.
4. Print one line per metric, then the result as one JSON line, and write
   the same data with the environment and every sample to
   ``pipebench/results/`` so runs form a trajectory.

With ``--trace 1`` the iterations alternate between plain commands and
commands run under worker.py, which records spans around each layer's
functions. The per-layer metrics are medians over the traced iterations;
``trace.overhead_s`` is the traced minus the plain median of ``total_s``.

``--smoke`` runs every workload in both modes on a tiny corpus and checks
that every metric named in BENCHMARK.json is printed and every check
passes. An operation is one CLI command; it fails on a non-zero exit or a
failed output check, and ``error_rate`` is failed over attempted.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
WORK = BENCH / "work"

SETUP_REPEATS = 5
RUN_LIMIT_S = 165.0  # a run must exit within 180 s
SMOKE_SEED = 1
FROM_IMPORTED = ("matrix.read_s", "matrix.write_s", "matrix.stats_s", "matrix.checksum_calls")

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, write_side_inputs  # noqa: E402
from worker import COUNTERS, LAYERS  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _median(values):
    return statistics.median(values) if values else 0.0


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


@dataclass
class Command:
    argv: list[str]
    rc: int
    wall_s: float
    rss_mb: float
    trace: dict | None
    log: Path

    def last_line(self) -> str:
        lines = self.log.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


def run_command(argv, work: Path, tag: str, traced: bool, deadline: float) -> Command:
    """Run one CLI command in a fresh interpreter; wall time is measured here."""
    log = work / f"{tag}.log"
    trace_path = work / f"{tag}.trace.json"
    argv = [str(a) for a in argv]
    if traced:
        cmd = [sys.executable, str(WORKER), str(trace_path), *argv]
    else:
        cmd = [sys.executable, "-m", "usertopics.cli", *argv]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = json.loads(trace_path.read_text()) if traced and trace_path.is_file() else None
    return Command(argv, proc.returncode, wall, usage.ru_maxrss / 1024.0, trace, log)


_WARM_CODE = """
import numpy as np
a = np.random.default_rng(0).standard_normal((1000, 220))
np.linalg.qr(a)
np.linalg.svd(a[:400], full_matrices=False)
np.linalg.svd(a, full_matrices=False)
"""


def _warm_lapack(deadline: float) -> None:
    """Page the LAPACK code the commands call into the OS page cache.

    After the library's pages were evicted, the first dense SVD of a
    process took 1.0 s instead of 0.09 s. Users pay that once per cold
    cache, not per command, so it is paid here, before timing.
    """
    subprocess.run([sys.executable, "-c", _WARM_CODE], check=True, timeout=max(deadline - time.monotonic(), 1))


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------


@dataclass
class Sample:
    traced: bool
    ingest_s: float
    analyze_s: float
    peak_rss_mb: float
    ari: float | None
    layers: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.ingest_s + self.analyze_s


class Run:
    def __init__(self, name: str, seed: int, trace: bool, smoke: bool, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.work = work
        self.spec = self.workload.smoke_spec if smoke else self.workload.spec
        # several corpora per run, so one run's medians span several data sets
        self.corpus_seeds = [seed * SETUP_REPEATS + g for g in range(SETUP_REPEATS)]
        self.analysis = self.workload.smoke_analysis if smoke else self.workload.analysis
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.analyses = 0
        self.failures: list[str] = []
        self.absent: set[str] = set()
        self.inputs_sha256: dict[str, str] = {}
        self.artifact_sha256: dict[str, str] = {}

    def record(self, cmd: Command | None, what: str, problems=()) -> bool:
        """Count one operation; a skipped command (``cmd`` None) counts as failed."""
        self.attempted += 1
        problems = list(problems)
        if cmd is None:
            problems.insert(0, "not run")
        else:
            if cmd.rc != 0:
                problems.insert(0, f"exit {cmd.rc}: {cmd.last_line()}")
            if cmd.trace is not None:
                self.absent.update(cmd.trace["absent"])
        self.failed += bool(problems)
        for problem in problems:
            self.failures.append(f"{what}: {problem}")
        return not problems

    def command(self, argv, tag, traced) -> Command:
        return run_command(argv, self.work, tag, traced, self.deadline)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> tuple[list[Path], list[float], list[dict]]:
        """Generate one corpus per seed in ``corpus_seeds``; time each."""
        corpora, walls, traces = [], [], []
        for seed in self.corpus_seeds:
            out = self.work / f"inputs{seed}"
            out.mkdir()
            spec_path = self.work / f"spec{seed}.json"
            spec_path.write_text(json.dumps(dict(self.spec, seed=seed)))
            cmd = self.command(["synth", "--spec", spec_path, "--out-dir", out], f"synth{seed}", self.trace)
            start = time.perf_counter()
            if cmd.rc == 0 and self.workload.side_inputs:
                write_side_inputs(self.spec["n_users"], seed, out)
            walls.append(cmd.wall_s + time.perf_counter() - start)
            if self.record(cmd, f"synth seed {seed}"):
                corpora.append(out)
                self.inputs_sha256[out.name] = _sha256_files(self._input_files(out))
            if cmd.trace is not None:
                traces.append(_layer_values([cmd]))
        return corpora, walls, traces

    def _input_files(self, out: Path):
        names = ["sessions.csv", "truth.csv"]
        if self.workload.side_inputs:
            names += ["demographics.csv", "transactions.csv"]
        return [out / name for name in names]

    # -- one iteration -----------------------------------------------------

    def iteration(self, inputs: Path, idx: int, traced: bool) -> Sample | None:
        """ingest + analysis on one corpus; ``inputs`` is its directory."""
        ws = self.work / f"ws{idx}"
        ingest = self.command(
            ["ingest", "--workspace", ws, "--sessions", inputs / "sessions.csv"], f"ingest{idx}", traced
        )
        ok = self.record(ingest, f"ingest #{idx}", self._check_ingest(ws) if ingest.rc == 0 else ())
        if not ok:
            self.record(None, f"analysis #{idx}")
            shutil.rmtree(ws, ignore_errors=True)
            return None
        argv = [*self.analysis, "--workspace", ws]
        if self.workload.side_inputs:
            argv += ["--demographics", inputs / "demographics.csv"]
            argv += ["--transactions", inputs / "transactions.csv"]
        analysis = self.command(argv, f"analysis{idx}", traced)
        ari = None
        problems = []
        if analysis.rc == 0:
            ari, problems = self._check_analysis(ws, inputs)
        self.analyses += 1
        self.record(analysis, f"{self.analysis[0]} #{idx}", problems)
        shutil.rmtree(ws)
        return Sample(
            traced=traced,
            ingest_s=ingest.wall_s,
            analyze_s=analysis.wall_s,
            peak_rss_mb=max(ingest.rss_mb, analysis.rss_mb),
            ari=ari,
            layers=_layer_values([ingest, analysis]) if traced else {},
        )

    def _check_ingest(self, ws: Path) -> list[str]:
        results = json.loads((ws / "ingest_manifest.json").read_text())["results"]
        problems = []
        if results["parse_errors"]:
            problems.append(f"{results['parse_errors']} rows rejected from a clean log")
        if results["n_users"] != self.spec["n_users"]:
            problems.append(f"{results['n_users']} users, expected {self.spec['n_users']}")
        return problems

    def _check_analysis(self, ws: Path, inputs: Path):
        from usertopics.synth import adjusted_rand_index

        problems = []
        ari = None
        truth = _read_pairs(inputs / "truth.csv")
        assigned = _read_pairs(ws / "assignments.csv")
        users = sorted(truth)
        if sorted(assigned) != users:
            problems.append("assignments do not cover the synthetic users")
        else:
            ari = adjusted_rand_index([truth[u] for u in users], [assigned[u] for u in users])
            if ari < self.workload.ari_floor:
                problems.append(f"ARI {ari:.4f} below the floor {self.workload.ari_floor}")
        artifacts = sorted(
            p for p in ws.iterdir() if p.is_file() and not p.name.endswith("manifest.json")
        )
        digest = _sha256_files(artifacts)
        if self.artifact_sha256.setdefault(inputs.name, digest) != digest:
            problems.append("artifacts differ from the first iteration on this corpus")
        return ari, problems


def _read_pairs(path: Path) -> dict[str, str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {row[0]: row[1] for row in rows[1:] if row}


def _layer_values(cmds) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (its commands summed)."""
    values = Counter({name: 0.0 for name in _layer_metric_names()})
    for cmd in cmds:
        trace = cmd.trace
        if trace is None:
            continue
        for layer, row in trace["layers"].items():
            values[f"{layer}_s"] += row["total_s"]
            values[f"{layer}_calls"] += row["calls"]
        values.update(trace["counts"])
        if cmd.argv[0] != "synth":
            # command wall time = start-up + layer spans + cli self time
            values["cli.self_s"] += trace["main_s"] - trace["root_s"]
            values["process.startup_s"] += cmd.wall_s - trace["main_s"]
    return dict(values)


def _layer_metric_names() -> list[str]:
    names = [f"{layer}_{kind}" for layer, _, _ in LAYERS for kind in ("s", "calls")]
    return names + list(COUNTERS) + ["cli.self_s", "process.startup_s"]


# --------------------------------------------------------------------------
# environment and result
# --------------------------------------------------------------------------


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_threads(blas: dict):
    """OpenBLAS's own thread count via ctypes, or None if it cannot be asked."""
    import ctypes

    import numpy

    if "openblas" not in str(blas.get("name", "")).lower():
        return None
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        from usertopics import _kernels

        backend = _kernels.BACKEND
    except ImportError:
        backend = "absent"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "blas_threads": _blas_threads(blas),
        "kernel_backend": backend,
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def source_digest() -> str:
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py"))
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _earlier_results(run: Run, digest: str):
    for path in sorted(RESULTS.glob("*.json")):
        try:
            old = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if (old.get("workload"), old.get("seed"), old.get("source_digest")) == (
            run.workload.name, run.seed, digest
        ):
            yield path, old


def _disagree(old: dict, new: dict) -> bool:
    return any(old[key] != new[key] for key in old.keys() & new.keys())


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    bench = load_benchmark()
    for key in [k for k in os.environ if k.startswith("USERTOPICS_")]:
        del os.environ[key]  # seed, output and backend overrides: the CLI defaults run
    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    run = Run(name, seed, trace, smoke, work)
    sys.path.insert(0, str(SRC))
    try:
        corpora, setup_walls, setup_traces = run.setup()
        samples: list[Sample] = []
        _warm_lapack(run.deadline)
        measure_end = time.monotonic() + seconds
        idx = 0
        while corpora:
            started = time.monotonic()
            inputs = corpora[idx % len(corpora)]
            sample = run.iteration(inputs, idx, traced=trace and idx % 2 == 1)
            idx += 1
            if sample is not None:
                samples.append(sample)
            now = time.monotonic()
            took = now - started
            both_kinds = not trace or len({s.traced for s in samples}) == 2
            # start no iteration that would end after the window or the deadline
            if (now + took > measure_end and both_kinds) or now + 1.5 * took > run.deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    if not plain or (trace and not traced):
        run.failures.append("no complete iteration before the time limit")
    end_to_end = {
        "setup_s": setup_walls,
        "ingest_s": [s.ingest_s for s in plain],
        "analyze_s": [s.analyze_s for s in plain],
        "total_s": [s.total_s for s in plain],
        "peak_rss_mb": [s.peak_rss_mb for s in plain],
    }
    aris = [s.ari for s in samples if s.ari is not None]
    traced_layers = [s.layers for s in traced]
    layer_samples = {
        key: [t[key] for t in (setup_traces if key.startswith("synth.") else traced_layers)]
        for key in _layer_metric_names()
    }
    if trace:
        layer_samples["trace.overhead_s"] = [
            _median([s.total_s for s in traced]) - _median([s.total_s for s in plain])
        ]

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    source = layer_samples if trace else end_to_end
    unknown = [m["name"] for m in wanted if m["name"] not in source]
    if unknown:
        raise SystemExit(f"BENCHMARK.json names metrics this harness does not produce: {unknown}")
    metrics = {m["name"]: {"value": _median(source[m["name"]]), "unit": m["unit"]} for m in wanted}

    if not smoke:
        digest = source_digest()
        for path, old in _earlier_results(run, digest):
            if _disagree(old.get("inputs_sha256", {}), run.inputs_sha256):
                run.failures.append(f"inputs differ from {path.name}")
                run.failed = run.attempted
            if _disagree(old.get("artifact_sha256", {}), run.artifact_sha256):
                # every iteration matched the first, so every analysis differs
                run.failures.append(f"artifacts differ from {path.name}")
                run.failed = max(run.failed, run.analyses)
    failed = run.failed
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "smoke": smoke,
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "spec": run.spec,
        "analysis": list(run.analysis),
        "environment": environment(),
        "result": result,
        "error_rate": failed / max(run.attempted, 1),
        "failures": run.failures,
        "ari": aris,
        "ari_floor": run.workload.ari_floor,
        "corpus_seeds": run.corpus_seeds,
        "inputs_sha256": run.inputs_sha256,
        "artifact_sha256": run.artifact_sha256,
        "absent": sorted(run.absent),
        "samples": {"end_to_end": end_to_end, "layers": layer_samples},
    }
    if trace:
        record["tracing"] = {
            "plain_total_s": [s.total_s for s in plain],
            "traced_total_s": [s.total_s for s in traced],
        }
    if not smoke:
        record["source_digest"] = digest
        RESULTS.mkdir(parents=True, exist_ok=True)
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
        out = RESULTS / f"{stamp}-{name}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def report(record: dict) -> None:
    """Human-readable lines; the last line of stdout is the JSON result."""
    result = record["result"]
    samples = record["samples"]["layers" if record["trace"] else "end_to_end"]
    for name, metric in result["metrics"].items():
        values = samples[name]
        print(f"{name} = {metric['value']:.6g} {metric['unit']} (median of {len(values)})")
    if record["ari"]:
        print(f"ari = {statistics.median(record['ari']):.4f} (median of {len(record['ari'])}, "
              f"floor {record['ari_floor']})")
    print(f"error_rate = {record['error_rate']:.4g} ({result['failed']} of {result['attempted']} operations)")
    if record["absent"]:
        print(f"absent (reported as 0): {', '.join(record['absent'])}")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))


def smoke() -> int:
    bench = load_benchmark()
    bad = []
    for name in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, SMOKE_SEED, 0.0, trace, smoke=True)
            result = record["result"]
            wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
            print(f"--- {name} trace={int(trace)}")
            report(record)
            if list(result["metrics"]) != wanted:
                bad.append(f"{name} trace={int(trace)}: metric names differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                bad.append(f"{name} trace={int(trace)}: {record['failures']}")
            # names that cli and lsa bind with ``from .matrix import ...``
            unseen = [m for m in FROM_IMPORTED if trace and not result["metrics"][m]["value"]]
            if unseen:
                bad.append(f"{name}: no spans where the name is bound by import: {unseen}")
    for line in bad:
        print(f"SMOKE FAILED {line}", file=sys.stderr)
    print("smoke ok" if not bad else "smoke failed")
    return 1 if bad else 0


def main() -> int:
    # on SIGTERM, unwind: the running command is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="all workloads, tiny corpora, name checks")
    args = parser.parse_args()
    if not (SRC / "usertopics" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no usertopics source under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required without --smoke")
    if args.seconds < 0 or args.seed < 0:
        parser.error("--seconds and --seed must be non-negative")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
