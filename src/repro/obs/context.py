"""Ambient activation of instrumentation — the no-op default.

Instrumented code in the hot layers (the DES kernel, the CTMC solvers,
the engine, journals, campaigns) never *requires* a registry or tracer:
each layer reads the ambient :class:`Instrumentation` once at a natural
boundary (object construction, function entry) and guards every
recording site with an ``is not None`` check.  With nothing activated —
the default — the entire subsystem reduces to that one pointer check,
which is what keeps disabled-mode overhead inside the benchmark-guarded
3% budget (``benchmarks/bench_obs_overhead.py``).

Activation is scoped per execution context — one
:class:`contextvars.ContextVar` — and is the only way instrumentation
reaches the code:

>>> from repro.obs import MetricsRegistry, instrumented
>>> registry = MetricsRegistry()
>>> with instrumented(metrics=registry):
...     pass  # everything constructed here records into `registry`

A thread started with :class:`threading.Thread` begins with no scope;
:func:`asyncio.to_thread` and asyncio tasks copy the caller's, so each
server job runs under its own scope.  The evaluation engine re-creates
an equivalent scope inside each worker process, so instrumented code
deep inside a task records into a worker-local registry that is merged
back by name.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - types only
    from .metrics import MetricsRegistry
    from .perf import PerfRecorder
    from .tracing import Tracer

__all__ = [
    "Instrumentation",
    "activate",
    "deactivate",
    "active",
    "active_metrics",
    "active_perf",
    "active_tracer",
    "instrumented",
]


@dataclass(frozen=True)
class Instrumentation:
    """The ambient bundle: metrics, a tracer, and/or a perf recorder."""

    metrics: Optional["MetricsRegistry"] = None
    tracer: Optional["Tracer"] = None
    perf: Optional["PerfRecorder"] = None


_ACTIVE: ContextVar[Optional[Instrumentation]] = ContextVar(
    "repro_instrumentation", default=None
)


def activate(instrumentation: Instrumentation) -> None:
    """Make *instrumentation* the ambient bundle of the current context."""
    _ACTIVE.set(instrumentation)


def deactivate() -> None:
    """Return the current context to the no-op default."""
    _ACTIVE.set(None)


def active() -> Optional[Instrumentation]:
    """The ambient bundle, or None when instrumentation is disabled."""
    return _ACTIVE.get()


def active_metrics() -> Optional["MetricsRegistry"]:
    """The ambient registry, or None."""
    bundle = _ACTIVE.get()
    return bundle.metrics if bundle is not None else None


def active_tracer() -> Optional["Tracer"]:
    """The ambient tracer, or None."""
    bundle = _ACTIVE.get()
    return bundle.tracer if bundle is not None else None


def active_perf() -> Optional["PerfRecorder"]:
    """The ambient performance recorder, or None."""
    bundle = _ACTIVE.get()
    return bundle.perf if bundle is not None else None


@contextmanager
def instrumented(
    metrics: Optional["MetricsRegistry"] = None,
    tracer: Optional["Tracer"] = None,
    perf: Optional["PerfRecorder"] = None,
) -> Iterator[Instrumentation]:
    """Activate an ambient bundle for the duration of the block.

    The previous bundle (usually None) is restored on exit, even on
    error, so scopes nest correctly.
    """
    bundle = Instrumentation(metrics=metrics, tracer=tracer, perf=perf)
    token = _ACTIVE.set(bundle)
    try:
        yield bundle
    finally:
        _ACTIVE.reset(token)
