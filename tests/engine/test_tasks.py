"""Tests for evaluation task graphs."""

import numpy as np
import pytest

from repro.engine import (
    EvaluationEngine,
    TaskGraph,
    ctmc_steady_state_task,
    derived_task,
    queueing_batch_task,
)
from repro.errors import EngineError


def _one():
    return 1.0


def _double(x):
    return 2.0 * x


def _add(a, b):
    return a + b


class TestTaskGraph:
    def test_add_and_lookup(self):
        graph = TaskGraph()
        task = graph.add("a", _one)
        assert graph.task("a") is task
        assert "a" in graph
        assert len(graph) == 1
        assert graph.names == ("a",)

    def test_duplicate_name_rejected(self):
        graph = TaskGraph()
        graph.add("a", _one)
        with pytest.raises(EngineError, match="duplicate"):
            graph.add("a", _one)

    def test_empty_name_rejected(self):
        with pytest.raises(EngineError):
            TaskGraph().add("", _one)

    def test_non_callable_rejected(self):
        with pytest.raises(EngineError, match="callable"):
            TaskGraph().add("a", 42)

    def test_unknown_task_lookup(self):
        with pytest.raises(EngineError, match="no task named"):
            TaskGraph().task("ghost")

    def test_topological_order_respects_dependencies(self):
        graph = TaskGraph()
        graph.add("sink", _add, deps=("left", "right"))
        graph.add("left", _one)
        graph.add("right", _double, deps=("left",))
        order = graph.topological_order()
        assert set(order) == {"left", "right", "sink"}
        assert order.index("left") < order.index("right")
        assert order.index("right") < order.index("sink")

    def test_topological_order_is_deterministic(self):
        graph = TaskGraph()
        for name in ("c", "a", "b"):
            graph.add(name, _one)
        # Independent tasks keep insertion order (tie-breaking rule).
        assert graph.topological_order() == ("c", "a", "b")

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph()
        graph.add("a", _one, deps=("ghost",))
        with pytest.raises(EngineError, match="unknown task"):
            graph.topological_order()

    def test_cycle_rejected(self):
        graph = TaskGraph()
        graph.add("a", _double, deps=("b",))
        graph.add("b", _double, deps=("a",))
        with pytest.raises(EngineError, match="cycle"):
            graph.topological_order()


class TestHelperConstructors:
    def test_ctmc_task_key_covers_the_generator(self):
        states = (2, 1, 0)
        generator = np.array([
            [-0.02, 0.02, 0.0],
            [1.0, -1.01, 0.01],
            [0.0, 1.0, -1.0],
        ])
        g1, g2 = TaskGraph(), TaskGraph()
        t1 = ctmc_steady_state_task(g1, "pi", states, generator)
        perturbed = generator.copy()
        perturbed[0, 1] *= 1.0 + 1e-12
        t2 = ctmc_steady_state_task(g2, "pi", states, perturbed)
        assert t1.key is not None
        assert t1.key != t2.key

    def test_queueing_task_key_covers_the_points(self):
        g1, g2 = TaskGraph(), TaskGraph()
        t1 = queueing_batch_task(g1, "pk", [0.5, 1.0], [4, 4], [10, 10])
        t2 = queueing_batch_task(g2, "pk", [0.5, 1.0], [4, 4], [10, 11])
        assert t1.key != t2.key

    def test_derived_tasks_are_never_cached(self):
        graph = TaskGraph()
        graph.add("a", _one)
        task = derived_task(graph, "cell", _double, deps=("a",))
        assert task.key is None
        assert task.deps == ("a",)


class TestGraphEndToEnd:
    def build(self):
        """pi (CTMC solve) + pk (queueing batch) -> one derived cell."""
        graph = TaskGraph()
        states = (1, 0)
        generator = np.array([[-0.01, 0.01], [1.0, -1.0]])
        ctmc_steady_state_task(graph, "pi", states, generator)
        queueing_batch_task(graph, "pk", [1.0], [1], [10])
        derived_task(graph, "cell", _combine_cell, deps=("pi", "pk"))
        return graph

    def test_graph_composes_model_layers(self):
        result = EvaluationEngine().run_graph(self.build())
        pi, pk = result["pi"], result["pk"]
        assert pi[1] + pi[0] == pytest.approx(1.0)
        expected = pi[1] * (1.0 - float(pk[0]))
        assert result["cell"] == pytest.approx(expected)

    def test_keyed_tasks_are_memoized_across_runs(self):
        engine = EvaluationEngine()
        first = engine.run_graph(self.build())
        second = engine.run_graph(self.build())
        assert second.values["cell"] == first.values["cell"]
        # Both keyed tasks hit; only the derived cell re-ran.
        assert second.cache_stats.hits == 2
        assert second.executed == 1

    def test_parallel_graph_matches_serial(self):
        serial = EvaluationEngine(workers=1).run_graph(self.build())
        parallel = EvaluationEngine(workers=2).run_graph(self.build())
        assert parallel.values["cell"] == serial.values["cell"]
        assert np.array_equal(parallel.values["pk"], serial.values["pk"])

        # A dependent chain a -> b -> c beside an independent d: each
        # link is released to the pool only once its dependency settles.
        def chain():
            graph = TaskGraph()
            graph.add("c", _add, args=(0.5,), deps=("b",))
            graph.add("a", _one)
            graph.add("b", _double, deps=("a",))
            graph.add("d", _double, args=(3.0,))
            return graph

        serial = EvaluationEngine(workers=1).run_graph(chain())
        parallel = EvaluationEngine(workers=2).run_graph(chain())
        assert parallel.values == serial.values == {
            "a": 1.0, "b": 2.0, "c": 2.5, "d": 6.0,
        }
        assert parallel.executed == 4


def _combine_cell(pi, pk):
    """Availability-style composition: P(up) * P(not blocked)."""
    return pi[1] * (1.0 - float(pk[0]))
