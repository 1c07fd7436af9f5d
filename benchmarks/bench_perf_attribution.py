"""Performance attribution — the coverage claim.

An :class:`~repro.obs.AttributionReport` decomposes a batch's capacity
(``slots x elapsed``) into compute, serialization, IPC, idle, and cache
— and the five buckets must account for ``>= 95%`` of measured
wall-time.  The bench runs the Fig. 11 grid through the engine serially
and with ``workers=2`` (the configuration whose 0.06x "speedup" in
``BENCH_engine.json`` motivated attribution in the first place) and
asserts coverage on both, recording the parallel run's bucket shares —
the numeric explanation of where the speedup went.

The disabled-kernel overhead of :mod:`repro.obs.perf` (and its
``profiled`` cost) is measured by the one disabled-mode guard,
``bench_obs_overhead.py``.

Results land in ``benchmarks/artifacts/BENCH_perf.json``; the committed
``benchmarks/BENCH_perf.json`` records what a CI runner measured.
"""

import json
import time
from pathlib import Path

from conftest import emit
from repro.availability import WebServiceModel
from repro.engine import EvaluationEngine
from repro.obs import PerfRecorder, instrumented
from repro.reporting import format_table

COVERAGE_FLOOR = 0.95   # the attribution buckets must explain >= 95%

SERVER_RANGE = tuple(range(1, 11))
FAILURE_RATES = (1e-2, 1e-3, 1e-4)
ARRIVAL_RATES = (50.0, 100.0, 150.0)

BASELINE = Path(__file__).parent / "BENCH_perf.json"


def unavailability(spec):
    """One grid cell; module-level so worker processes can unpickle it."""
    arrival_rate, failure_rate, servers = spec
    return WebServiceModel(
        servers=int(servers),
        arrival_rate=arrival_rate,
        service_rate=100.0,
        buffer_capacity=10,
        failure_rate=failure_rate,
        repair_rate=1.0,
    ).unavailability()


def _cells():
    return [
        (alpha, lam, nw)
        for alpha in ARRIVAL_RATES
        for lam in FAILURE_RATES
        for nw in SERVER_RANGE
    ]


def _attributed_run(workers):
    """Run the grid under a fresh recorder; returns (report, outputs)."""
    recorder = PerfRecorder()
    with instrumented(perf=recorder):
        engine = EvaluationEngine(workers=workers)
    batch = engine.map(unavailability, _cells(), phase="fig11-grid")
    assert len(recorder.batches) == 1
    return recorder.batches[0], list(batch.outputs)


def test_perf_attribution_coverage(benchmark):
    def _grid_runs():
        started = time.perf_counter()
        serial = _attributed_run(workers=1)
        serial_seconds = time.perf_counter() - started
        started = time.perf_counter()
        parallel = _attributed_run(workers=2)
        parallel_seconds = time.perf_counter() - started
        return serial, serial_seconds, parallel, parallel_seconds

    (
        (serial_report, serial_outputs), serial_seconds,
        (parallel_report, parallel_outputs), parallel_seconds,
    ) = benchmark.pedantic(_grid_runs, rounds=1)

    # Attribution never touches results: parallel == serial, bit for bit.
    assert parallel_outputs == serial_outputs
    assert serial_report.coverage >= COVERAGE_FLOOR
    assert parallel_report.coverage >= COVERAGE_FLOOR

    record = {
        "benchmark": "perf-attribution",
        "seconds": {
            "grid_serial": round(serial_seconds, 6),
            "grid_workers2": round(parallel_seconds, 6),
        },
        "cells": len(_cells()),
        "attribution_coverage_serial": round(serial_report.coverage, 4),
        "attribution_coverage_workers2": round(parallel_report.coverage, 4),
        "parallel_efficiency_workers2": round(
            parallel_report.parallel_efficiency, 4
        ),
        "compute_share_workers2": round(parallel_report.share("compute"), 4),
        "ipc_share_workers2": round(parallel_report.share("ipc"), 4),
        "idle_share_workers2": round(parallel_report.share("idle"), 4),
        "coverage_floor": COVERAGE_FLOOR,
    }
    out_dir = Path(__file__).parent / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_perf.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for label, report in (
        ("serial", serial_report), ("workers=2", parallel_report)
    ):
        emit(format_table(
            ["bucket", "seconds", "share"],
            [
                [name, f"{getattr(report, name):.6f}",
                 f"{report.share(name):.1%}"]
                for name in ("compute", "serialization", "ipc", "idle",
                             "cache")
            ],
            title=(
                f"Fig. 11 grid attribution ({label}) — coverage "
                f"{report.coverage:.1%}"
            ),
        ))

    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        assert baseline["benchmark"] == record["benchmark"]
        assert baseline["coverage_floor"] == COVERAGE_FLOOR
