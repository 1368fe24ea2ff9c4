"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_bench.py

Tracing must not change what it measures: traced and untraced repetitions
give identical estimates, and the per-level counts the `evaluate_batch`
wrappers see equal the estimator's `trace.eval_counts` (or the CSV
`evals_l*` columns for the CLI workload).
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_SAMPLES = {
    "linear-sis": 200,
    "diffusion1d-mlsis": 200,
    "flowcell2d-sis": 20,
    "diffusion1d-mlsus-workers2": 200,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_reproduces_untraced_run(name, tmp_path):
    tiny = dataclasses.replace(WORKLOADS[name], n_samples=TINY_SAMPLES[name], min_reps=2)
    reps, metrics, units, checks, extra = run.measure_traced(tiny, 7, 0.0, str(tmp_path))
    assert checks["traced_equals_untraced"]["passed"]
    counts = checks["wrapper_counts_equal_estimator_counts"]
    assert counts["passed"], counts
    assert counts["estimator"], "the workload evaluated nothing"
    assert set(metrics) == set(units)
    assert len(reps) == 2 * len(extra["untraced_reps"])


def test_result_line_has_the_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "linear-sis",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "linear-sis",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
