"""Smoke tests of the benchmark: every workload at a tiny size, traced and not."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_package()
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """(untraced, traced) record of one tiny run per workload, same seed."""
    out = tmp_path_factory.mktemp("perfbench")
    found = {}
    for name, spec in workloads.WORKLOADS.items():
        found[name] = tuple(
            run.run(name, 7, 0, trace, size=spec.tiny, probes=1, out_dir=out)
            for trace in (False, True))
    return found


def test_workloads_match_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(records, name):
    result = records[name][0]["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_repeats_untraced_answers(records, name):
    plain, traced = records[name]
    assert [p["traced"] for p in traced["passes"]] == [False, True]
    assert {p["fingerprint"] for p in traced["passes"]} == {plain["fingerprint"]}
    assert traced["counts"] == plain["counts"]
    assert traced["result"]["correct"]
    assert 0 < traced["per_layer"]["trace.self_frac"] <= 1.0


def test_every_per_layer_metric_is_measured_by_some_workload(records):
    """A metric name no workload produces would silently read 0."""
    measured = {name for _, traced in records.values()
                for name, value in traced["per_layer"].items() if value}
    # zero at the tiny sizes: no N=10 games, no cache hits, no false accusals
    zero_when_tiny = {f"ifpc.{v}_round_{k}.N10" for v in ("local", "pauli")
                      for k in ("ms", "calls")}
    zero_when_tiny |= {"mechanisms.pmw_cache_hits", "ifpc.psi_max"}
    assert {m["name"] for m in SPEC["per_layer"]} - measured <= zero_when_tiny


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learner",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

