"""Smoke test: every workload at its smallest size, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import EXACT_COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = {m["name"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"] for m in SPEC["per_layer"]}


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_reports_every_gated_metric(workload: str) -> None:
    code, out = run(workload, 0)
    result = json.loads(out.splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == GATED
    assert "failed_share" in out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counters_repeat_exactly(workload: str) -> None:
    results = []
    for _ in range(2):
        code, out = run(workload, 1)
        assert code == 0
        results.append(json.loads(out.splitlines()[-1]))
    assert set(results[0]["metrics"]) == LAYERS
    for name in EXACT_COUNTERS:
        assert results[0]["metrics"][name] == results[1]["metrics"][name]


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = run("element", 0, cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
