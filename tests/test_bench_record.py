"""The performance trajectory ``BENCH_<k>.json``: each record that
``scripts/bench_record.py`` appended has the recorder's keys, and its
perfbench part the benchmark's workloads and end-to-end metrics.  The
numbers are the machine's and are not checked."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"))

RECORD = {"commit", "dirty", "time", "note", "machine", "perfbench", "tier1", "kernels",
          "cold_cli"}
MACHINE = {"cores", "python", "numpy", "platform", "dont_write_bytecode",
           "PYTHONDONTWRITEBYTECODE", "src_bytecode"}
WORKLOAD = {"exit", "printed", "recorder_summary"}
SUMMARY = {"pass_count", "first_pass_s", "later_passes_median_s"}
PASSES = {"measured", "reference_speed", "probes", "config_s"}
RESULT = {"correct", "attempted", "failed", "metrics"}
TIER1 = {"command", "exit", "wall_s", "counts", "slowest"}


def test_the_trajectory_starts_at_bench_1():
    assert FILES and FILES[0].name == "BENCH_1.json"


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_every_record_has_the_recorders_keys(path):
    records = json.loads(path.read_text())
    assert isinstance(records, list) and records
    for record in records:
        assert set(record) == RECORD
        assert set(record["machine"]) == MACHINE
        assert set(record["perfbench"]) == {"seed", "seconds", "workloads"}
        # one seed and run length for the whole trajectory, so records compare
        assert record["perfbench"]["seed"] == 1
        assert record["perfbench"]["seconds"] == BENCHMARK["run_seconds"]
        workloads = record["perfbench"]["workloads"]
        assert list(workloads) == [w["name"] for w in BENCHMARK["workloads"]]
        for run in workloads.values():
            assert set(run) == WORKLOAD and set(run["recorder_summary"]) == SUMMARY
            *_, passes, result = run["printed"]
            assert set(passes) == PASSES and set(result) == RESULT
            assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
        assert set(record["tier1"]) == TIER1
        assert set(record["kernels"]) == {"exit", "lines"}
        assert set(record["cold_cli"]) == {"exit", "lines", "nodes", "cli_cold_nodes"}
