"""Shared pieces of the benchmark: paths, statistics, processes, layers."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from reference import Calibrator, spawn_sample

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Fresh interpreter that imports the program and builds the Travel
#: Agency model and both campaign scenarios: the work any process pays
#: before its first evaluation.
SETUP_PROBE = (
    "import repro.cli, repro.workloads as w\n"
    "from repro.ta import TravelAgencyModel\n"
    "m = TravelAgencyModel(architecture='redundant').hierarchical_model\n"
    "[w.fault_scenario_factories()[s](m) for s in ('lan-host', 'web-degraded')]\n"
)


def program_env() -> Dict[str, str]:
    """Environment for a ``repro`` subprocess built from ``src/``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (the ``numpy`` default)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def timed_run(argv, timeout=120.0) -> Tuple[float, subprocess.CompletedProcess]:
    """Run *argv* to exit; returns (spawn-to-exit seconds, process)."""
    started = time.perf_counter()
    proc = subprocess.run(
        argv, env=program_env(), capture_output=True, timeout=timeout,
    )
    return time.perf_counter() - started, proc


def setup_probes(repeats: int = 3) -> float:
    """Calibrated median spawn-to-exit time of :data:`SETUP_PROBE`."""
    calibrator = Calibrator(spawn_sample)
    times = []
    for _ in range(repeats):
        elapsed, proc = timed_run([sys.executable, "-c", SETUP_PROBE])
        if proc.returncode != 0:
            raise RuntimeError(
                "set-up probe failed: " + proc.stderr.decode()[-400:]
            )
        times.append(calibrator.calibrate(elapsed))
    return median(times)


@dataclass
class Phase:
    """What one measured phase of a workload produced."""

    latencies: List[float] = field(default_factory=list)  # s, successes
    calibrated: List[float] = field(default_factory=list)  # the same
    attempted: int = 0
    failed: int = 0
    work: float = 0.0  # workload-defined units done by the successes
    samples: Dict[str, List[float]] = field(default_factory=dict)
    traces: List[dict] = field(default_factory=list)  # span dumps

    def op(self, seconds: float, ok: bool, calibrated: float) -> None:
        """One operation: its raw and its calibrated wall time."""
        self.attempted += 1
        if ok:
            self.latencies.append(seconds)
            self.calibrated.append(calibrated)
        else:
            self.failed += 1

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


# -- per-layer numbers from span dumps ---------------------------------

def _durations(dump, names, outermost=False):
    """Total seconds of spans named in *names* in one dump.

    With *outermost*, spans nested under another span of *names* are
    skipped, so a layer that calls itself is not counted twice.
    """
    by_id = {span[0]: span for span in dump["spans"]}
    total = 0.0
    for span_id, parent, name, start, end, _ in dump["spans"]:
        if name not in names:
            continue
        if outermost:
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] not in names:
                ancestor = by_id.get(ancestor[1])
            if ancestor is not None:
                continue
        total += end - start
    return total


def layer_metrics(phase: Phase) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced phase.

    Times are milliseconds per workload operation, so each layer reads
    against the operation's own wall time; counts are totals over the
    traced phase, which runs a fixed amount of work.
    """
    dumps = phase.traces

    def spent(*names, outermost=False):
        return sum(_durations(d, set(names), outermost) for d in dumps)

    def count(name):
        return sum(
            span[5].get(name, 0)
            for d in dumps for span in d["spans"] if span[5]
        )

    batches = [b for d in dumps for b in d.get("batches", [])]
    capacity = sum(b["capacity"] for b in batches)

    def share(bucket):
        return sum(b[bucket] for b in batches) / capacity if capacity else 0.0

    # Replications run in pool workers show up as campaign batches: their
    # busy time is simulator time, their wall time is the campaign's.
    pooled = [b for b in batches if b["phase"].startswith("campaign ")]
    sim_s = spent("sim") + sum(b["compute"] for b in pooled)
    sim_wall = spent("sim") + sum(b["elapsed"] for b in pooled)
    per_op = 1000.0 / max(phase.attempted, 1)
    processes = [d for d in dumps if any(s[2] == "cli.main" for s in d["spans"])]
    interp = sum(
        d["wall"] - _durations(d, {"cli.import", "cli.main", "bench.install"})
        for d in processes
    )
    transitions = count("sim.transitions")
    out = {
        "cli.import_ms": (spent("cli.import") * per_op, "ms"),
        "cli.main_ms": (spent("cli.main") * per_op, "ms"),
        "cli.interp_ms": (interp * per_op, "ms"),
        "workloads.compute_ms": (
            spent("workloads.compute", "campaign.run", outermost=True)
            * per_op, "ms"),
        "workloads.render_ms": (spent("workloads.render") * per_op, "ms"),
        "engine.batches": (count("engine.batches"), "count"),
        "engine.tasks": (count("engine.tasks"), "count"),
        "engine.map_ms": (spent("engine.map", outermost=True) * per_op, "ms"),
        "engine.pool_ms": (spent("engine.pool") * per_op, "ms"),
        "engine.compute_share": (share("compute"), "ratio"),
        "engine.ipc_share": (share("ipc"), "ratio"),
        "engine.idle_share": (share("idle"), "ratio"),
        "sim.calls": (count("sim.calls"), "count"),
        "sim.transitions": (transitions, "count"),
        "sim.fault_events": (count("sim.fault_events"), "count"),
        "sim.ms": (sim_s * per_op, "ms"),
        "sim.transitions_per_s": (
            transitions / sim_s if sim_s > 0 else 0.0, "1/s"),
        "campaign.self_ms": (
            (spent("campaign.run") - sim_wall) * per_op, "ms"),
        "journal.appends": (count("journal.appends"), "count"),
        "journal.append_ms": (spent("journal.append") * per_op, "ms"),
        "solvers.steady_state_calls": (
            count("solvers.steady_state_calls"), "count"),
        "solvers.steady_state_ms": (
            spent("solvers.steady_state") * per_op, "ms"),
        "webservice.unavailability_ms": (
            spent("webservice.unavailability") * per_op, "ms"),
        "bayes.compare_ms": (spent("bayes.compare") * per_op, "ms"),
    }
    for kind in ("sweep", "policies", "cloud", "campaign"):
        jobs = [
            end - start
            for d in dumps for _, _, name, start, end, _ in d["spans"]
            if name == f"work.{kind}"
        ]
        out[f"work.{kind}_ms"] = (
            1000.0 * sum(jobs) / len(jobs) if jobs else 0.0, "ms"
        )
    return out


def load_dump(path: Path, wall: float = 0.0, since: float = 0.0) -> dict:
    """A span dump, keeping only spans and batches that began at *since*.

    ``time.perf_counter`` is the system-wide monotonic clock here, so a
    traced process's stamps compare with the benchmark's own.
    """
    with open(path) as handle:
        dump = json.load(handle)
    dump["spans"] = [s for s in dump["spans"] if s[3] >= since]
    dump["batches"] = [b for b in dump["batches"] if b["end"] >= since]
    dump["wall"] = wall
    return dump
