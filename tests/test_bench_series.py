"""The committed performance series: one BENCH_<workload>.json per workload of
BENCHMARK.json, whose every entry names each end-to-end metric, run by run and
in its summary, and BENCH_tier1.json, the test suite's durations per checkout.
Neither the harness nor the suite is run here."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_series_names_every_end_to_end_metric(workload):
    series = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert series["workload"] == workload
    assert series["harness"]["command"] and series["harness"]["bench_tree"]
    assert series["entries"]
    for entry in series["entries"]:
        assert entry["commit"] and entry["machine"]
        assert len(entry["runs"]) == len(entry["seeds"]) > 0
        for run in entry["runs"]:
            assert set(METRICS) <= set(run["result"]["metrics"])
        for name in METRICS:
            q = entry["summary"][name]
            assert q["q1"] <= q["median"] <= q["q3"]


def test_tier1_series_records_runs_and_machine():
    series = json.loads((ROOT / "BENCH_tier1.json").read_text())
    assert "--durations=0" in series["command"]
    assert {"nproc", "python", "numpy", "blas", "blas_threads"} <= set(series["machine"])
    assert series["entries"]
    for entry in series["entries"]:
        assert entry["commit"] and len(entry["runs"]) == 3
        for run in entry["runs"]:
            assert run["pytest_total_s"] > 0
            assert run["collected"] == run["passed"] + run["failed"] > 0
            assert len(run["failed_tests"]) == run["failed"]
            slow = [d["seconds"] for d in run["slowest_10"]]
            assert len(slow) == 10 and slow == sorted(slow, reverse=True)
        q = entry["summary"]["pytest_total_s"]
        assert q["q1"] <= q["median"] <= q["q3"]
