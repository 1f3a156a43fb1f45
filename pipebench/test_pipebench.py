"""Self-tests of the benchmark harness.

Run from the repository root:
    python3 -m pytest pipebench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(args, cwd, **env):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        env={**os.environ, **env},
    )


def test_smoke_prints_every_metric_and_passes_its_checks():
    out = _run([str(BENCH / "run.py"), "--smoke"], ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "smoke ok"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "pipebench", ignore=shutil.ignore_patterns("results", "work"))
    args = ["pipebench/run.py", "--workload", "wide-rank", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = _run(args, tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_missing_layer_names_are_reported_absent():
    code = (
        "import worker, usertopics.cli as cli\n"
        "tracer = worker.Tracer()\n"
        "absent = tracer.install([('x', ('usertopics.gone:f', 'usertopics.matrix:gone',"
        " 'usertopics.matrix:read_matrix'), None)])\n"
        "print(absent, cli.read_matrix.pipebench_layer)\n"
    )
    out = _run(["-c", code], BENCH, PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['usertopics.gone:f', 'usertopics.matrix:gone'] x"
