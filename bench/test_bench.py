"""Smoke test of the benchmark itself.

Runs a few ops of every workload, untraced and traced, and checks that
none fails and that the printed metrics are exactly the ones
BENCHMARK.json declares.  Not part of the tier-1 suite (``testpaths`` is
``tests``); run it with ``python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OPS = 4


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def traced_counts(workload: str) -> dict:
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", "1", "--max-ops", str(OPS))
    assert proc.returncode == 0, proc.stderr
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("counts "))
    return json.loads(line.split(" ", 1)[1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_few_ops_succeed_with_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--max-ops", str(OPS))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == OPS
    assert result["failed"] == 0 and result["correct"] is True
    assert "error_rate 0.0 ratio" in lines
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_counts_repeat_for_a_seed():
    assert traced_counts("mesh-roundtrip") == traced_counts("mesh-roundtrip")


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", ".work-*", "__pycache__"))
    proc = bench("--workload", "mesh-roundtrip", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
