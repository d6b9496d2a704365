"""Self-test of the benchmark at smoke size.

    python3 -m pytest -q perfbench/test_selftest.py

Covers every workload in both modes, checks that each metric named in
BENCHMARK.json is reported, that a corrupted output is counted as a
failure, and that the benchmark refuses to run without the program.
"""
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
from workloads import ROOT, SIZES, SMOKE_SIZES, WORK, prepare_inputs

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(SIZES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SIZES))
def test_every_metric_is_reported(workload, trace):
    record = run.measure(workload, seed=5, seconds=0, trace=trace, sizes=SMOKE_SIZES)
    assert record["failed"] == 0, record["checks"]
    assert record["attempted"] > 0
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(record["metrics"]) == wanted


def test_corrupted_fold_prediction_raises_fail_ratio():
    record = run.measure("panel", seed=5, seconds=0, trace=0, sizes=SMOKE_SIZES)
    assert record["failed"] == 0, record["checks"]
    out = WORK / "runs" / "panel"
    report = json.loads((out / "report.json").read_text())
    report["folds"][3]["pred_model"] += 1e-6
    (out / "report.json").write_text(json.dumps(report))
    results = checks.run_checks("panel", out, prepare_inputs("panel", 5, SMOKE_SIZES))
    attempted, failed = run.tally([0] * 5, results)
    assert failed / attempted > 0
    assert [name for name, reason in results if reason] == ["loocv_report.json"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quickstart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
