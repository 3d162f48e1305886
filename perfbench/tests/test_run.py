"""End to end: the smoke set, tracing invariance, and the benchmark file."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from perfbench.workloads import E2E, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _smoke_set(tmp_path: Path, trace: int, seed: int = 0) -> tuple[dict, float]:
    out = tmp_path / f"smoke-{trace}-{seed}.json"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", str(seed), "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), elapsed


def test_smoke_sets_are_correct_fast_and_outputs_ignore_tracing_and_seed(tmp_path):
    untraced, untraced_s = _smoke_set(tmp_path, 0)
    traced, traced_s = _smoke_set(tmp_path, 1)
    other_seed, _ = _smoke_set(tmp_path, 0, seed=1)
    assert untraced_s < 60 and traced_s < 60
    assert untraced["fingerprint"]["cpu_count"] >= 1
    for workload in WORKLOADS:
        plain, with_trace = untraced["workloads"][workload], traced["workloads"][workload]
        assert plain["correct"] and with_trace["correct"], (plain, with_trace)
        assert plain["failed"] == 0 and plain["attempted"] > 0
        assert set(plain["metrics"]) == {name for name, _, _ in E2E}
        assert set(with_trace["metrics"]) == {name for name, _, _ in PER_LAYER}
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain["metrics"]
        digests = {
            with_trace["detail"]["digest"], with_trace["detail"]["traced_digest"],
            other_seed["workloads"][workload]["detail"]["digest"],
        }
        assert digests == {plain["detail"]["digest"]}


def test_benchmark_file_matches_the_code():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]] == list(E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
