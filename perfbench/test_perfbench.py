"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q

Each workload runs end to end, untraced and traced, through the same
command the benchmark is run with; a deliberately corrupted expected
output, altered in-process after set-up, must be counted as failed,
never passed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(workload, trace=0, seed=3, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def names(kind):
    return [m["name"] for m in DECLARED[kind]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, stdout = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == names("end_to_end")
    for metric in DECLARED["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    assert "failed_ratio" in stdout


def _corrupt(workload, monkeypatch):
    """Alter every expected output of a set-up *workload*."""
    import oracle

    replicate = oracle.replicate

    def wrong(*args):
        result = replicate(*args)
        return dataclasses.replace(
            result, resource_transitions=result.resource_transitions + 1
        )

    monkeypatch.setattr(oracle, "replicate", wrong)  # campaign
    if hasattr(workload, "commands"):  # cli-cold
        workload.commands = [(argv, out + b"!") for argv, out in workload.commands]
    if hasattr(workload, "expected"):  # server-mix
        workload.expected = {job: text + "!" for job, text in workload.expected.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_output_is_a_failure(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import run
    from common import SRC

    monkeypatch.syspath_prepend(str(SRC))
    load = run._workload(workload)(3, tmp_path)
    try:
        load.setup()
        _corrupt(load, monkeypatch)
        phase = load.measure(1)
    finally:
        load.close()
    assert phase.failed == phase.attempted >= 1


#: Per-layer counts that must be non-zero and repeat exactly per seed.
EXACT = {
    "campaign": ["sim.calls", "sim.transitions", "sim.fault_events"],
    "cli-cold": ["engine.batches", "engine.tasks", "sim.transitions"],
    "server-mix": ["journal.appends", "engine.tasks", "sim.transitions",
                   "solvers.steady_state_calls"],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_repeats_counts(workload):
    first, _ = bench(workload, trace=1)
    second, _ = bench(workload, trace=1)
    for result in (first, second):
        assert result["correct"]
        assert list(result["metrics"]) == names("per_layer")
        assert result["metrics"]["trace.overhead"]["value"] > 0
    for name in EXACT[workload]:
        count = first["metrics"][name]["value"]
        assert count > 0, name
        assert count == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
