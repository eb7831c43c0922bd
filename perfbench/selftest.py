"""Smoke test of the serving benchmark itself.

Run from the repository root (not part of the library's test suite)::

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at tiny scale, traced and untraced; the printed metric
names and units must match ``BENCHMARK.json``, and the correctness gate must
refuse a wrong estimate.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads and puts src/ on sys.path)
import gate  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def declared(key: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[key]}


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_the_declared_metrics(name, trace, monkeypatch):
    # One front per run: the throwaway set-ups (5 s each to close over tcp)
    # are what make a full run long, not what this test is about.
    one_front = dataclasses.replace(workloads.WORKLOADS[name], setup_reps=1)
    monkeypatch.setitem(workloads.WORKLOADS, name, one_front)
    record = run.run(Namespace(workload=name, seed=7, seconds=1.0, trace=trace))
    result = record["result"]
    assert set(result) == RESULT_KEYS
    units = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    # A one-second stream is too short for the accuracy checks (privacy noise
    # still dominates, most of all in a tenant's ε/16 cross slot); full-length
    # runs meet them, and test_gate_refuses_a_wrong_estimate covers the gate.
    failed = [
        check for check in record["checks"]
        if not check["ok"] and "risk" not in check["check"]
    ]
    assert failed == []
    assert result["attempted"] >= 1
    assert record["failed_calls"] == record["unseen_refreshes"] == 0
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_cli_prints_the_result_object_last():
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fast-refresh",
         "--seed", "3", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(declared("end_to_end"))


def test_gate_refuses_a_wrong_estimate():
    inputs = workloads.make_inputs(workloads.WORKLOADS["exact-ingest"], seed=5)
    points = 3 * workloads.POOL // 2
    moments = gate.sent_moments(inputs.xs, inputs.ys, points)
    best = gate.constrained_least_squares(moments, radius=1.0)

    def failures(theta, covered=points):
        checks = gate.check_estimate("t", theta, covered, moments, radius=1.0)
        return {name for name, ok, _ in checks if not ok}

    assert failures(best) == set()
    assert failures(np.zeros_like(best)) == {
        "t: risk below the risk of theta = 0",
        "t: risk within tolerance of the reference",
    }
    assert "t: theta inside the constraint set" in failures(2.0 * best / np.linalg.norm(best))
    assert failures(best, covered=points - 1) == {"t: covered_steps == T"}
    assert "t: theta finite" in failures(np.full_like(best, np.nan))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert "metrics" not in completed.stdout
