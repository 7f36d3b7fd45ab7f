"""Smoke test of the benchmark harness: every op, oracle check and span of
each workload at tiny sizes, traced and untraced, in a few seconds each."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(*args, cwd=ROOT, run=RUN):
    return subprocess.run([sys.executable, run, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    res = _run("--workload", workload, "--seed", "5", "--seconds", "0",
               "--trace", str(trace), "--smoke")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, (report["checks"], report["errors"])
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    names = {c["name"] for c in report["checks"]}
    assert any(n.endswith(".deterministic") for n in names)
    if trace:
        assert "span_coverage" in names
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_fails_without_the_package(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, the harness
    exits nonzero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    res = _run("--workload", "threshold", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path, run=str(tmp_path / "perfbench" / "run.py"))
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
