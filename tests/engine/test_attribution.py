"""Tests for engine performance attribution (repro.obs.perf wiring)."""

import os

import pytest

from repro.engine import EvaluationEngine, TaskGraph
from repro.obs import PerfRecorder, instrumented


def _cube(x):
    return x ** 3


def _add(a, b):
    return a + b


def _des_burst(n):
    """A task that runs a DES kernel (ambient perf reaches the worker)."""
    from repro.sim import Simulator

    sim = Simulator()
    state = {"left": int(n)}

    def tick():
        state["left"] -= 1
        if state["left"]:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run()
    return sim.events_processed


def _graph(recorder=None, workers=1):
    with instrumented(perf=recorder):
        engine = EvaluationEngine(workers=workers)
    graph = TaskGraph()
    graph.add("a", _cube, args=(2.0,))
    graph.add("b", _cube, args=(3.0,))
    graph.add("c", _add, deps=("a", "b"))
    return engine.run_graph(graph, phase="test-graph").values


class TestSerialAttribution:
    def test_map_produces_one_report(self):
        recorder = PerfRecorder()
        with instrumented(perf=recorder):
            engine = EvaluationEngine()
        batch = engine.map(_cube, [1.0, 2.0, 3.0], phase="unit-map")
        assert list(batch.outputs) == [1.0, 8.0, 27.0]
        (report,) = recorder.batches
        assert report.phase == "unit-map"
        assert report.tasks == 3
        assert report.slots == 1
        assert report.coverage >= 0.95
        # Serial execution happens in this process.
        assert [w.pid for w in report.per_worker] == [os.getpid()]

    def test_outputs_identical_with_and_without_perf(self):
        items = [1.0, 2.0, 3.0, 4.0]
        plain = list(EvaluationEngine().map(_cube, items).outputs)
        with instrumented(perf=PerfRecorder()):
            engine = EvaluationEngine()
        profiled = list(engine.map(_cube, items).outputs)
        assert profiled == plain

    def test_graph_produces_report(self):
        recorder = PerfRecorder()
        results = _graph(recorder)
        assert results["c"] == pytest.approx(35.0)
        (report,) = recorder.batches
        assert report.phase == "test-graph"
        assert report.tasks == 3
        assert report.coverage >= 0.95

    def test_graph_results_identical_with_and_without_perf(self):
        assert _graph(PerfRecorder()) == _graph(None)

    def test_disabled_engine_records_nothing(self):
        engine = EvaluationEngine()
        engine.map(_cube, [1.0])
        assert engine._perf is None

    def test_task_profiler_ticks(self):
        recorder = PerfRecorder(task_interval=1)
        with instrumented(perf=recorder):
            engine = EvaluationEngine()
        engine.map(_cube, [1.0, 2.0], phase="p")
        assert recorder.profiler.task_ticks == 2
        leaves = {stack[-1] for stack in recorder.profiler.samples}
        assert "task:p" in leaves


class TestParallelAttribution:
    def test_workers2_coverage_and_buckets(self):
        recorder = PerfRecorder()
        with instrumented(perf=recorder):
            engine = EvaluationEngine(workers=2)
        items = list(range(1, 13))
        batch = engine.map(_des_burst, items, phase="parallel-des")
        assert list(batch.outputs) == items
        (report,) = recorder.batches
        assert report.slots >= 2
        assert report.tasks == 12
        assert report.coverage >= 0.95
        # The identity: buckets sum to capacity (slots x elapsed).
        # Tolerance is wall-clock float epsilon (~2e-7 s at the current
        # epoch), not a modelling slack.
        assert report.accounted == pytest.approx(
            report.capacity, abs=1e-5
        )
        assert report.queue_depth_samples  # sampled while waiting

    def test_worker_kernel_accounting_merges_back(self):
        recorder = PerfRecorder()
        with instrumented(perf=recorder):
            engine = EvaluationEngine(workers=2)
        engine.map(_des_burst, [50, 60], phase="kernels")
        # 110 DES events ran inside pool workers; their accounting came
        # back through the perf record protocol.
        assert recorder.kernel.total_events == 110
        assert recorder.kernel.counts  # event-type names survived

    def test_parallel_outputs_identical_with_perf(self):
        items = [10, 20, 30]
        plain = list(
            EvaluationEngine(workers=2).map(_des_burst, items).outputs
        )
        with instrumented(perf=PerfRecorder()):
            engine = EvaluationEngine(workers=2)
        profiled = list(engine.map(_des_burst, items).outputs)
        assert profiled == plain == items

    def test_serialization_bytes_counted(self):
        recorder = PerfRecorder()
        with instrumented(perf=recorder):
            engine = EvaluationEngine(workers=2)
        engine.map(_cube, [1.0, 2.0], phase="ser")
        (report,) = recorder.batches
        assert report.serialized_bytes > 0
        assert report.serialization_measured >= 0.0


class TestCacheAttribution:
    def test_cache_time_lands_in_cache_bucket(self, tmp_path):
        recorder = PerfRecorder()
        items = [1.0, 2.0, 3.0]
        keys = [f"k-{x}" for x in items]
        with instrumented(perf=recorder):
            engine = EvaluationEngine(cache_dir=tmp_path)
            engine.map(_cube, items, keys=keys)
            warm = EvaluationEngine(cache_dir=tmp_path)
            warm.map(_cube, items, keys=keys)
        cold, hot = recorder.batches
        assert cold.cache_measured >= 0.0
        assert hot.cache_measured > 0.0  # lookups were timed
