"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest bench

The smoke workload (2 users x 64 elements x 20 snapshots) goes through
run_bench.py in both modes and must emit every metric BENCHMARK.json
names, with its unit.
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
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import summarize  # noqa: E402


def _bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_named_metric_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec[section]}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and set(m) == {"value", "unit"}


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", ["crowd", "sparse", "wide"])
def test_jitter_keeps_the_component_structure(name):
    from auramimo import parse_config

    for seed in range(20):
        workloads.check_structure(name, parse_config(workloads.make_config(name, seed)))


def test_same_seed_same_config_other_seed_other_config():
    assert workloads.make_config("crowd", 5) == workloads.make_config("crowd", 5)
    assert workloads.make_config("crowd", 5) != workloads.make_config("crowd", 6)


def test_self_time_excludes_direct_children():
    spans = [
        {"id": 0, "name": "run", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "stage", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "leaf", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "stage", "parent": 0, "start": 5.0, "end": 7.0},
    ]
    summary = summarize(spans)
    assert summary["run"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert summary["stage"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert summary["leaf"]["self_s"] == 1.0
