"""Outside-in spans around calls into the program's layers.

The benchmark does not change ``src/``.  It replaces a layer's public
function, as bound at the place its callers look it up, with a wrapper
that records a span (name, parent, start, end) and, where the layer's
work is countable from the call, a count.  Spans are kept in memory and
written out once, when the traced process ends.

Modules the traced program has not imported yet are patched by an
import hook the moment they finish executing, so installing the tracer
moves no lazy import of the program out of the phase that pays it.

This module must not import ``repro`` at import time: the bootstrap
installs the hook before the program's first import.
"""

from __future__ import annotations

import functools
import importlib.abc
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans with parent ids; a span may carry counts."""

    def __init__(self):
        # (id, parent id or 0, name, start, end, {counter: amount} or None)
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        """Record a span around the block; the block may fill its counts."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        counts = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, counts or None)
            )

    def wrap(self, name, fn, count=None):
        """*fn* inside a span; *count(result, args)* yields its counts.

        *name* is a string or a function of the call's positional
        arguments, for layers whose span name depends on the call.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            with recorder.span(label) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(result, args))
            return result

        return wrapper

    def dump(self, path, **extra):
        with open(path, "w") as handle:
            json.dump(dict(extra, spans=self.spans), handle)


# -- what is patched, and where ----------------------------------------

def _sim_counts(result, args):
    """Exact simulator work of one campaign cell, from its replications."""
    reps = result.replications
    yield "sim.calls", len(reps)
    yield "sim.transitions", sum(r.resource_transitions for r in reps)
    yield "sim.fault_events", sum(r.fault_events_applied for r in reps)


def _map_counts(result, args):
    yield "engine.batches", 1
    yield "engine.tasks", len(result.outputs)


def _graph_counts(result, args):
    yield "engine.batches", 1
    yield "engine.tasks", len(args[1])


def _one(counter):
    def count(result, args):
        yield counter, 1
    return count


def _job_span(args):
    return f"work.{args[0]}"


def _wrapped(name, count=None):
    """A patch that wraps the original in a span named *name*."""
    def replace(recorder, original):
        return recorder.wrap(name, original, count)
    return replace


def _server_factory(recorder, original):
    """``repro.server.ReproServer`` with the traced job runner.

    The server binds its runner as a default argument, so the call site
    to patch is the construction in the ``serve`` command.
    """
    def factory(**kwargs):
        from repro.server import work

        kwargs.setdefault(
            "runner", recorder.wrap(_job_span, work.execute_job)
        )
        return original(**kwargs)

    return factory


def _traced_pool(recorder, original):
    """``ProcessPoolExecutor`` with its start and stop in ``engine.pool`` spans.

    Start is the constructor and the first ``submit``, which launches
    the worker processes; stop is ``shutdown``, which joins them.
    """
    class TracedPool(original):
        _launched = False

        def __init__(self, *args, **kwargs):
            with recorder.span("engine.pool"):
                super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            if self._launched:
                return super().submit(fn, *args, **kwargs)
            self._launched = True
            with recorder.span("engine.pool"):
                return super().submit(fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            with recorder.span("engine.pool"):
                return super().shutdown(*args, **kwargs)

    return TracedPool


#: module -> [(owner attribute or None, attribute, patch)].  The owner is
#: a class in the module, for methods; *patch(recorder, original)* gives
#: the replacement.
PATCHES = {
    "repro.workloads": [
        (None, fn, _wrapped("workloads.compute"))
        for fn in ("run_fig_sweep", "run_fault_campaigns",
                   "run_policy_comparison", "run_cloud_comparison")
    ] + [
        (None, fn, _wrapped("workloads.render"))
        for fn in ("fig_sweep_text", "campaign_text",
                   "policy_comparison_text", "cloud_comparison_text")
    ],
    "repro.resilience.campaign": [
        (None, "run_campaign", _wrapped("campaign.cell", _sim_counts)),
        (None, "simulate_user_availability_over_time", _wrapped("sim")),
    ],
    "repro.resilience": [
        (None, "run_campaigns", _wrapped("campaign.run")),
    ],
    "repro.engine.executor": [
        ("EvaluationEngine", "map", _wrapped("engine.map", _map_counts)),
        ("EvaluationEngine", "run_graph",
         _wrapped("engine.map", _graph_counts)),
        (None, "ProcessPoolExecutor", _traced_pool),
    ],
    "repro.runtime.journal": [
        ("Journal", "append",
         _wrapped("journal.append", _one("journal.appends"))),
    ],
    "repro.markov.ctmc": [
        (None, "_robust_steady_state",
         _wrapped("solvers.steady_state", _one("solvers.steady_state_calls"))),
    ],
    "repro.availability.webservice": [
        ("WebServiceModel", "unavailability",
         _wrapped("webservice.unavailability")),
    ],
    "repro.bayes": [
        (None, "compare_cloud_scenarios", _wrapped("bayes.compare")),
    ],
    "repro.server": [
        (None, "ReproServer", _server_factory),
    ],
}


class Tracer:
    """Installs the wrappers of :data:`PATCHES` and can take them out."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._undo = []
        self._hook = None

    def _patch(self, module):
        for owner_name, attr, patch in PATCHES[module.__name__]:
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, patch(self.recorder, original))
            self._undo.append((owner, attr, original))

    def install(self):
        pending = [name for name in PATCHES if name not in sys.modules]
        for name in PATCHES:
            if name in sys.modules:
                self._patch(sys.modules[name])
        if pending:
            self._hook = _PatchOnImport(set(pending), self._patch)
            sys.meta_path.insert(0, self._hook)
        return self

    def uninstall(self):
        if self._hook is not None and self._hook in sys.meta_path:
            sys.meta_path.remove(self._hook)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs *patch(module)* right after a pending module executes."""

    def __init__(self, pending, patch):
        self._pending = pending
        self._patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname not in self._pending:
            return None
        self._pending.discard(fullname)
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        execute = spec.loader.exec_module
        patch = self._patch

        def exec_module(module):
            execute(module)
            patch(module)

        spec.loader.exec_module = exec_module
        return spec
