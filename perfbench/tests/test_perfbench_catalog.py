"""BENCHMARK.json, the metric catalogue and the printed results agree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.catalog import END_TO_END, PER_LAYER, TABLE_ONLY
from perfbench.layers import cache_metrics, report_metrics, span_metrics
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_the_catalogue():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert not set(TABLE_ONLY) & (set(END_TO_END) | set(PER_LAYER))


def test_setup_time_carries_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_layer_helpers_cover_the_per_layer_catalogue():
    class Info:
        hits = misses = invalidations = 0

    produced = set(span_metrics([])) | set(report_metrics([])) | set(cache_metrics(Info()))
    run_context = {
        "sketches.update_block_worker_s.distinct",
        "sketches.update_block_worker_s.point",
        "lifecycle.leaked_workers",
        "lifecycle.leaked_shm",
        "host.calib_s",
        "telemetry.traced_over_untraced",
    }
    assert produced | run_context == set(PER_LAYER)
    assert not produced & run_context


@pytest.mark.parametrize("trace, catalogue", [(0, END_TO_END), (1, PER_LAYER)])
def test_printed_metrics_match_benchmark_json(trace, catalogue):
    command = BENCHMARK["command"] + [
        "--workload", "usample-microbatch", "--seed", "7", "--seconds", "1",
        "--trace", str(trace),
    ]
    command[0] = sys.executable
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == catalogue
