"""The batch evaluation engine: parallel, cache-aware, resumable.

:class:`EvaluationEngine` executes homogeneous batches (:meth:`~EvaluationEngine.map`)
and heterogeneous :class:`~repro.engine.tasks.TaskGraph`\\ s
(:meth:`~EvaluationEngine.run_graph`) behind one set of guarantees:

**Determinism.**  Results are assembled by task index/name, never by
completion order, so a run with ``workers=4`` is bit-identical to
``workers=1``.  Stochastic tasks must draw from per-task
:class:`numpy.random.SeedSequence` streams carried in their arguments
(the campaign and DES helpers already do); the engine itself introduces
no randomness.

**Caching.**  Tasks carrying a content-addressed key
(:func:`~repro.engine.canonical_key`) are memoized in the engine's
:class:`~repro.engine.MemoCache`; per-run hit/miss/eviction deltas are
exposed on every result object.

**Cancellation.**  A :class:`~repro.runtime.CancellationToken` is polled
before every dispatch and between completions.  Cancellation is
cooperative at task granularity: in-flight worker tasks finish, pending
ones are dropped, and already-journaled results survive.

**Resume.**  With a journal attached, every completed task is durably
recorded (key + JSON value); re-running the same batch over the same
journal restores completed tasks and computes only the rest — the same
contract campaigns have, now for arbitrary parallel batches.

**Fault tolerance.**  Both entry points share one scheduler with one
*supervised* process-pool backend: a worker that dies mid-task (OOM
kill, segfault, chaos injection) breaks the pool, and the engine
responds by respawning a fresh pool and re-dispatching only the tasks
that had not completed — up to
``max_respawns`` pool generations before giving up with
:class:`~repro.errors.EngineError`.  Attaching a
:class:`~repro.engine.TaskRetryPolicy` additionally retries individual
tasks that fail with *retryable* exceptions (by default
:class:`~repro.errors.TransientTaskError`); exhausted retries re-raise
the last failure.  Both mechanisms preserve determinism — results are
still assembled by index/name, so a run that survived crashes is
bit-identical to an undisturbed serial run.

The serial loop is the reference implementation: the pool backend
must, and is tested to, reproduce its outputs bit for bit.  A batch
runs in-process when ``workers=1`` (the default) or when at most one
task misses the cache; otherwise it gets a pool of
``min(workers, misses)`` processes.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .._validation import check_positive_int
from ..errors import EngineError, ResumeError
from ..obs.clock import monotonic, walltime
from ..obs.context import active_metrics, active_perf, active_tracer
from ..runtime.budget import CancellationToken
from ..runtime.heartbeat import HeartbeatCallback, ProgressEvent
from ..runtime.journal import Journal, read_journal
from .cache import CacheStats, MemoCache
from .retry import TaskRetryPolicy
from .tasks import TaskGraph

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..chaos.plan import ChaosPlan
    from ..obs.perf import BatchPerf

__all__ = ["EvaluationEngine", "BatchResult", "GraphResult"]

JournalLike = Union[Journal, str, Path]


def _stats_delta(before: CacheStats, after: CacheStats) -> CacheStats:
    return CacheStats(
        lookups=after.lookups - before.lookups,
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        memory_hits=after.memory_hits - before.memory_hits,
        disk_hits=after.disk_hits - before.disk_hits,
        stores=after.stores - before.stores,
        evictions=after.evictions - before.evictions,
        corruptions=after.corruptions - before.corruptions,
        disk_write_failures=(
            after.disk_write_failures - before.disk_write_failures
        ),
    )


class _RunCounters:
    """Mutable fault-tolerance tallies for one engine run.

    Mutable on purpose: a pool pass that dies mid-flight must not lose
    the retries it already performed, so passes update this in place and
    the supervisor reads whatever survived.
    """

    __slots__ = ("executed", "retries", "respawns")

    def __init__(self):
        self.executed = 0
        self.retries = 0
        self.respawns = 0


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one :meth:`EvaluationEngine.map` call.

    Attributes
    ----------
    outputs:
        Task results in input order — independent of worker count and
        completion order.
    cache_stats:
        Hit/miss/eviction counters for *this* run (deltas, not the
        cache's lifetime totals).
    executed:
        Tasks actually computed this run.
    restored:
        Tasks restored from the journal instead of computed.
    workers:
        Worker processes used (1 = the serial reference backend).
    elapsed:
        Wall-clock seconds for the batch.
    retries:
        Task attempts re-run under the engine's
        :class:`~repro.engine.TaskRetryPolicy` after transient failures.
    respawns:
        Worker-pool generations spawned to replace dead workers (0 on an
        undisturbed run).
    """

    outputs: Tuple[Any, ...]
    cache_stats: CacheStats
    executed: int
    restored: int
    workers: int
    elapsed: float
    retries: int = 0
    respawns: int = 0

    def __len__(self) -> int:
        return len(self.outputs)


@dataclass(frozen=True)
class GraphResult:
    """Outcome of one :meth:`EvaluationEngine.run_graph` call.

    ``values`` maps every task name to its result; the remaining fields
    match :class:`BatchResult`.
    """

    values: Dict[str, Any]
    cache_stats: CacheStats
    executed: int
    workers: int
    elapsed: float
    retries: int = 0
    respawns: int = 0

    def __getitem__(self, name: str) -> Any:
        return self.values[name]


class _Entry(NamedTuple):
    """One task for the scheduler: a :meth:`~EvaluationEngine.map` item
    or a :class:`~repro.engine.tasks.TaskGraph` node.

    The task runs as ``fn(*args, *results of deps)``; ``deps`` index
    earlier entries.  ``attrs`` (``index=`` or ``task=``) label its
    spans, and ``label`` is the message of its heartbeat event.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...]
    key: Optional[str]
    deps: Tuple[int, ...]
    attrs: Dict[str, Any]
    label: str


def _worker_call(
    chaos: Optional["ChaosPlan"],
    index: int,
    instrument: bool,
    ctx: Optional[Dict[str, Any]],
    phase: str,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    perf: bool = False,
) -> Any:
    """Worker-side entry point of every pool task.  Module-level so it pickles.

    Runs the chaos plan's injection point first (which may kill this
    worker process or raise a transient fault).  Uninstrumented, it
    then returns ``fn(*args)``.  Instrumented, it runs the task under
    fresh ambient instrumentation: its own registry (merged back by
    name) and, when a :class:`~repro.obs.SpanContext` dict is shipped,
    its own tracer whose root span parents under the submitting span.
    With *perf*, it also builds a worker-local
    :class:`~repro.obs.PerfRecorder` — DES kernels constructed inside
    the task account per-event-type self-time into it — and ships back
    its execute window (pid + wall start + duration) for the parent's
    :class:`~repro.obs.AttributionReport`.  The instrumented call
    returns ``(value, metrics_snapshot, trace_payload, perf_record)``;
    the parent unwraps the value before assembly, so instrumented
    parallel outputs stay bit-identical to uninstrumented ones.
    """
    if chaos is not None:
        chaos.before_task(index, in_worker=True)
    if not instrument:
        return fn(*args)

    from ..obs.context import instrumented
    from ..obs.metrics import MetricsRegistry
    from ..obs.tracing import SpanContext, Tracer

    registry = MetricsRegistry()
    tracer = (
        Tracer(context=SpanContext.from_dict(ctx)) if ctx is not None else None
    )
    recorder = None
    if perf:
        from ..obs.perf import PerfRecorder

        recorder = PerfRecorder()
        recorder.profiler.tick_task(leaf=f"task:{phase}")
    with instrumented(metrics=registry, tracer=tracer, perf=recorder):
        wall_start = walltime()
        started = monotonic()
        if tracer is not None:
            with tracer.span("engine task", category="engine", phase=phase):
                value = fn(*args)
        else:
            value = fn(*args)
        duration = monotonic() - started
        registry.histogram(
            "engine_task_seconds",
            help="Wall-clock latency of engine-executed tasks.",
            phase=phase,
        ).observe(duration)
    payload = tracer.payload() if tracer is not None else None
    record = None
    if recorder is not None:
        from ..obs.perf import worker_perf_record

        record = worker_perf_record(recorder)
        record["wall_start"] = wall_start
        record["duration"] = duration
    return value, registry.to_dict(), payload, record


def _json_safe(value: Any) -> Any:
    """Round-trip *value* through JSON, or raise EngineError."""
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError):
        raise EngineError(
            "journaled batches need JSON-serializable task results; got "
            f"a value of type {type(value).__name__!r} (run without a "
            "journal, or reduce the task output to plain numbers first)"
        ) from None


class EvaluationEngine:
    """Cache-aware batch executor with serial and process-pool backends.

    Parameters
    ----------
    workers:
        Worker processes; ``1`` (default) runs everything in-process and
        is the reference backend for equality tests.
    cache:
        A shared :class:`~repro.engine.MemoCache`; built internally from
        *cache_dir*/*cache_size* when omitted.
    cache_dir:
        Optional on-disk cache directory (persists across processes and
        runs).
    cache_size:
        In-memory LRU capacity when the engine builds its own cache.
    cancellation:
        Optional :class:`~repro.runtime.CancellationToken`, polled at
        every dispatch and completion boundary.
    heartbeat:
        Optional progress callback (one event per completed task).
    retry:
        Optional :class:`~repro.engine.TaskRetryPolicy`.  Tasks failing
        with one of its retryable exception types are re-run (same
        worker pool, capped backoff) up to ``max_attempts`` times;
        anything else — and the last retryable failure once attempts are
        exhausted — propagates unchanged.
    chaos:
        Optional :class:`~repro.chaos.ChaosPlan` wired into every task
        (serial and worker-side), used by the deterministic chaos
        harness to inject worker kills and transient faults at planned
        task indices: a :meth:`map` item's index, or a graph task's
        position in :meth:`~repro.engine.tasks.TaskGraph.topological_order`.
        Production runs leave it None.
    max_respawns:
        Worker-pool generations the supervisor may spawn to replace dead
        workers before declaring the batch failed.

    Instrumentation comes from the ambient scope
    (:func:`repro.obs.instrumented`), read once at construction.  An
    ambient :class:`~repro.obs.MetricsRegistry` / :class:`~repro.obs.Tracer`
    gets per-phase task counts and latency histograms, the memo cache's
    per-run hit/miss/eviction deltas as counters, and spans around every
    batch and task — worker-process spans reattach under the submitting
    task's span, and worker registries merge back by name.  Exported
    traces keep each worker's pid on its spans, which is what
    ``repro trace-report`` aggregates into the per-worker utilization
    table (:meth:`repro.obs.analysis.TraceAnalysis.worker_utilization`).
    An ambient :class:`~repro.obs.PerfRecorder` gets an
    :class:`~repro.obs.AttributionReport` per batch decomposing
    ``workers x elapsed`` capacity into compute, serialization, IPC,
    idle, and cache time, and worker-side kernel accounting and
    profiler samples merge back like metrics do.  Instrumentation never
    changes outputs: parallel instrumented runs stay bit-identical to
    serial uninstrumented ones.

    Examples
    --------
    >>> from math import sqrt
    >>> engine = EvaluationEngine()
    >>> result = engine.map(sqrt, [1.0, 4.0, 9.0])
    >>> result.outputs
    (1.0, 2.0, 3.0)
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[MemoCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        cache_size: int = 4096,
        cancellation: Optional[CancellationToken] = None,
        heartbeat: Optional[HeartbeatCallback] = None,
        retry: Optional[TaskRetryPolicy] = None,
        chaos: Optional["ChaosPlan"] = None,
        max_respawns: int = 3,
    ):
        self.workers = check_positive_int(workers, "workers")
        self.retry = retry
        self.chaos = chaos
        self.max_respawns = check_positive_int(max_respawns, "max_respawns")
        if cache is not None and cache_dir is not None:
            raise EngineError(
                "pass either a prebuilt cache or a cache_dir, not both"
            )
        self.cache = (
            cache
            if cache is not None
            else MemoCache(maxsize=cache_size, cache_dir=cache_dir)
        )
        self.cancellation = cancellation
        self.heartbeat = heartbeat
        self._metrics = active_metrics()
        self._tracer = active_tracer()
        self._perf = active_perf()
        self._instrument = (
            self._metrics is not None
            or self._tracer is not None
            or self._perf is not None
        )

    # ------------------------------------------------------------------
    def _check(self) -> None:
        if self.cancellation is not None:
            self.cancellation.check()

    def _beat(self, phase: str, completed: int, total: int, message: str = ""):
        if self.heartbeat is not None:
            self.heartbeat(ProgressEvent(
                phase=phase, completed=completed, total=total, message=message
            ))

    @staticmethod
    def _require_picklable(fn: Callable) -> None:
        try:
            pickle.dumps(fn)
        except Exception as exc:
            raise EngineError(
                f"work function {fn!r} cannot be sent to worker processes "
                f"({exc}); use a module-level function, or run with "
                "workers=1"
            ) from exc

    # -- instrumentation helpers ---------------------------------------
    def _call_task(
        self, fn: Callable[..., Any], args: Tuple[Any, ...], phase: str,
        **attrs: Any,
    ) -> Any:
        """Run one task in-process, spanned and latency-timed."""
        if self._metrics is None and self._tracer is None:
            return fn(*args)
        started = monotonic()
        if self._tracer is not None:
            with self._tracer.span(
                "engine task", category="engine", phase=phase, **attrs
            ):
                value = fn(*args)
        else:
            value = fn(*args)
        if self._metrics is not None:
            self._metrics.histogram(
                "engine_task_seconds",
                help="Wall-clock latency of engine-executed tasks.",
                phase=phase,
            ).observe(monotonic() - started)
        return value

    @staticmethod
    def _timed_cache(
        bperf: Optional["BatchPerf"], op: Callable[..., Any], *args: Any,
    ) -> Any:
        """Run one cache lookup or put, timed into the cache bucket."""
        if bperf is None:
            return op(*args)
        started = monotonic()
        outcome = op(*args)
        bperf.add_cache(monotonic() - started)
        return outcome

    # -- fault tolerance helpers ---------------------------------------
    def _should_retry(self, exc: BaseException, attempt: int) -> bool:
        return (
            self.retry is not None
            and self.retry.is_retryable(exc)
            and attempt < self.retry.max_attempts
        )

    def _retry_pause(self, attempt: int) -> None:
        delay = self.retry.backoff_delay(attempt - 1)
        if delay > 0.0:
            time.sleep(delay)

    def _call_serial(
        self,
        entry: _Entry,
        args: Tuple[Any, ...],
        phase: str,
        position: int,
        counters: _RunCounters,
    ) -> Tuple[Any, int]:
        """Run one entry in-process under the retry policy.

        Returns ``(value, attempts)``.  Chaos injections (when a plan is
        attached) fire before each attempt, exactly as they do inside
        pool workers.
        """
        attempt = 1
        while True:
            try:
                if self.chaos is not None:
                    self.chaos.before_task(position, in_worker=False)
                return self._call_task(
                    entry.fn, args, phase, **entry.attrs
                ), attempt
            except BaseException as exc:
                if not self._should_retry(exc, attempt):
                    raise
                counters.retries += 1
                self._retry_pause(attempt)
                attempt += 1

    def _submit(
        self, pool: ProcessPoolExecutor, entry: _Entry, position: int,
        args: Tuple[Any, ...], phase: str,
    ):
        """Submit one entry to *pool* through :func:`_worker_call`.

        With a tracer, the submit span is recorded immediately (its
        duration is the submission cost); the worker's spans parent
        under its id and are re-based onto this timeline when the result
        is unwrapped.
        """
        ctx = None
        if self._tracer is not None:
            with self._tracer.span(
                "engine submit", category="engine", phase=phase,
                **entry.attrs,
            ):
                ctx = self._tracer.context().as_dict()
        return pool.submit(
            _worker_call, self.chaos, position, self._instrument, ctx, phase,
            entry.fn, args, self._perf is not None,
        )

    def _unwrap_instrumented(
        self, result: Tuple[Any, ...],
        batch: Optional["BatchPerf"] = None,
    ) -> Any:
        value, snapshot, payload, record = result
        if self._metrics is not None:
            self._metrics.merge_snapshot(snapshot)
        if self._tracer is not None and payload is not None:
            self._tracer.absorb(payload)
        if self._perf is not None and record is not None:
            self._perf.merge_worker(record)
            if batch is not None:
                batch.task_executed(
                    record["pid"], record["wall_start"], record["duration"]
                )
        return value

    def _time_serialization(
        self, batch: Optional["BatchPerf"], fn: Callable[..., Any],
        args: Tuple[Any, ...],
    ) -> None:
        """Measure what shipping this task costs in pickle time/bytes.

        The pool pickles ``(fn, args)`` itself on submit; re-pickling
        here is the measured proxy for that cost (only when a perf
        recorder is attached), credited to the serialization bucket.
        """
        if batch is None:
            return
        started = monotonic()
        try:
            payload = pickle.dumps((fn, args))
        except Exception:
            return
        batch.add_serialization(monotonic() - started, len(payload))

    def _record_run_metrics(
        self, phase: str, total: int, restored: int, delta: CacheStats,
        counters: _RunCounters,
    ) -> None:
        if self._metrics is None:
            return
        m = self._metrics
        executed = counters.executed
        m.counter(
            "engine_task_retries",
            help="Task attempts re-run after retryable failures.",
        ).inc(counters.retries)
        m.counter(
            "engine_worker_respawns",
            help="Worker pools respawned after a worker death.",
        ).inc(counters.respawns)
        m.counter(
            "engine_tasks", help="Tasks submitted to the engine.", phase=phase,
        ).inc(total)
        m.counter(
            "engine_tasks_executed",
            help="Tasks actually computed (not cached or restored).",
            phase=phase,
        ).inc(executed)
        m.counter(
            "engine_tasks_restored",
            help="Tasks restored from a resume journal.",
            phase=phase,
        ).inc(restored)
        m.counter(
            "engine_tasks_cached",
            help="Tasks satisfied by the memo cache before dispatch.",
            phase=phase,
        ).inc(total - executed - restored)
        for field in (
            "lookups", "hits", "misses", "memory_hits", "disk_hits",
            "stores", "evictions", "corruptions", "disk_write_failures",
        ):
            m.counter(
                f"engine_cache_{field}",
                help=f"Memo-cache {field.replace('_', ' ')} across engine runs.",
            ).inc(getattr(delta, field))

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        keys: Optional[Sequence[Optional[str]]] = None,
        phase: str = "batch",
        journal: Optional[JournalLike] = None,
        on_result: Optional[Callable[[int, Any], None]] = None,
    ) -> BatchResult:
        """Evaluate ``fn(item)`` for every item, in parallel when possible.

        Parameters
        ----------
        fn:
            Work function of one argument.  With ``workers > 1`` it must
            be picklable (module-level); its argument and result must be
            picklable too.
        items:
            Task inputs; output order follows input order exactly.
        keys:
            Optional per-item content-addressed cache keys (``None``
            entries bypass the cache).  A key must change whenever the
            item's result could — build them with
            :func:`~repro.engine.canonical_key` from the full spec.
        phase:
            Label for heartbeat events and journal records.
        journal:
            Optional journal (or path).  Completed tasks are appended as
            JSON records; a journal that already holds records for this
            phase/size resumes — restored tasks are not recomputed.
        on_result:
            Callback ``on_result(index, value)`` invoked once per task
            computed *this run* (not for cache/journal restores), in
            completion order.  Campaigns use it to journal their own
            richer records.

        Raises
        ------
        EngineError
            On unpicklable work functions under a process pool, or
            non-JSON-serializable results under a journal.
        ResumeError
            When the journal does not match this batch.
        """
        if self._tracer is None:
            return self._map(fn, items, keys, phase, journal, on_result)
        with self._tracer.span(f"map {phase}", category="engine"):
            return self._map(fn, items, keys, phase, journal, on_result)

    def _map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        keys: Optional[Sequence[Optional[str]]],
        phase: str,
        journal: Optional[JournalLike],
        on_result: Optional[Callable[[int, Any], None]],
    ) -> BatchResult:
        items = list(items)
        total = len(items)
        if keys is not None:
            keys = list(keys)
            if len(keys) != total:
                raise EngineError(
                    f"got {len(keys)} cache keys for {total} items"
                )
        started = monotonic()
        entries = [
            _Entry(fn, (item,), keys[index] if keys is not None else None,
                   (), {"index": index}, "")
            for index, item in enumerate(items)
        ]

        owns_journal = journal is not None and not isinstance(journal, Journal)
        restored: Dict[int, Any] = {}
        if journal is not None:
            path = journal.path if isinstance(journal, Journal) else Path(journal)
            restored = self._restore_from_journal(path, phase, total, keys)
            if owns_journal:
                journal = Journal(path)
            if journal.next_seq == 0:
                journal.append("batch_start", phase=phase, total=total)

        def record(
            index: int, value: Any, attempts: int,
            bperf: Optional["BatchPerf"],
        ) -> None:
            if journal is not None:
                append_started = monotonic() if bperf is not None else 0.0
                journal.append(
                    "task_result",
                    index=index,
                    key=entries[index].key,
                    value=_json_safe(value),
                    attempts=attempts,
                )
                if bperf is not None:
                    bperf.add_serialization(monotonic() - append_started)
            if on_result is not None:
                on_result(index, value)

        try:
            outputs, delta, counters = self._schedule(
                entries, phase, restored, record
            )
            if journal is not None and total:
                # Idempotent end marker (skipped when resuming past one).
                records = read_journal(journal.path, missing_ok=True)
                if not any(r.get("kind") == "batch_end" for r in records):
                    journal.append("batch_end", executed=counters.executed)
        finally:
            if owns_journal and journal is not None:
                journal.close()

        return BatchResult(
            outputs=tuple(outputs),
            cache_stats=delta,
            executed=counters.executed,
            restored=len(restored),
            workers=self.workers,
            elapsed=monotonic() - started,
            retries=counters.retries,
            respawns=counters.respawns,
        )

    @staticmethod
    def _restore_from_journal(
        path: Path,
        phase: str,
        total: int,
        keys: Optional[Sequence[Optional[str]]],
    ) -> Dict[int, Any]:
        records = read_journal(path, missing_ok=True)
        if not records:
            return {}
        start = records[0]
        if start.get("kind") != "batch_start":
            raise ResumeError(
                f"journal {path} was not written by the evaluation engine "
                "(first record is not batch_start)"
            )
        if start.get("phase") != phase or start.get("total") != total:
            raise ResumeError(
                f"journal {path} records batch {start.get('phase')!r} of "
                f"{start.get('total')} tasks, not {phase!r} of {total}"
            )
        restored: Dict[int, Any] = {}
        for record in records:
            if record.get("kind") != "task_result":
                continue
            index = int(record["index"])
            if not 0 <= index < total:
                raise ResumeError(
                    f"journal {path} holds task index {index} outside "
                    f"0..{total - 1}"
                )
            if keys is not None and record.get("key") != keys[index]:
                raise ResumeError(
                    f"journal {path} task {index} was computed under a "
                    "different cache key; the batch spec changed"
                )
            restored[index] = record["value"]
        return restored

    # ------------------------------------------------------------------
    def run_graph(self, graph: TaskGraph, phase: str = "graph") -> GraphResult:
        """Execute a :class:`~repro.engine.tasks.TaskGraph`.

        Tasks run as soon as their dependencies are available —
        independent tasks in parallel under a process pool.  Keyed tasks
        are memoized; results are returned by name.

        Raises
        ------
        EngineError
            On graph defects (via
            :meth:`~repro.engine.tasks.TaskGraph.topological_order`) or
            unpicklable task functions under a process pool.
        """
        if self._tracer is None:
            return self._run_graph(graph, phase)
        with self._tracer.span(f"run_graph {phase}", category="engine"):
            return self._run_graph(graph, phase)

    def _run_graph(self, graph: TaskGraph, phase: str) -> GraphResult:
        order = graph.topological_order()
        started = monotonic()
        position = {name: index for index, name in enumerate(order)}
        entries = []
        for name in order:
            task = graph.task(name)
            entries.append(_Entry(
                task.fn, task.args, task.key,
                tuple(position[dep] for dep in task.deps), {"task": name},
                name,
            ))
        results, delta, counters = self._schedule(entries, phase)
        return GraphResult(
            values=dict(zip(order, results)),
            cache_stats=delta,
            executed=counters.executed,
            workers=self.workers,
            elapsed=monotonic() - started,
            retries=counters.retries,
            respawns=counters.respawns,
        )

    # -- the scheduler --------------------------------------------------
    def _schedule(
        self,
        entries: Sequence[_Entry],
        phase: str,
        restored: Optional[Dict[int, Any]] = None,
        on_complete: Optional[
            Callable[[int, Any, int, Optional["BatchPerf"]], None]
        ] = None,
    ) -> Tuple[List[Any], CacheStats, _RunCounters]:
        """Run one batch of entries; the scheduler behind both entry points.

        Entries in *restored* take their value from it; keyed entries
        are looked up in the memo cache next.  The rest — the misses —
        run in-process, in entry order, when ``workers == 1`` or at most
        one entry misses (the serial reference loop); otherwise they go
        to the supervised pool (:meth:`_run_pool`).  Each computed value
        is cached, handed to ``on_complete(position, value, attempts,
        batch_perf)`` and reported as one heartbeat.

        Returns the values by entry position, the run's cache-stats
        delta and its counters.
        """
        restored = restored or {}
        total = len(entries)
        before = self.cache.stats
        bperf = (
            self._perf.start_batch(phase, self.workers, total)
            if self._perf is not None
            else None
        )
        results: List[Any] = [None] * total
        for position, value in restored.items():
            results[position] = value
        done = len(restored)
        misses: List[int] = []
        for position, entry in enumerate(entries):
            if position in restored:
                continue
            if entry.key is not None:
                hit, value = self._timed_cache(
                    bperf, self.cache.lookup, entry.key
                )
                if hit:
                    results[position] = value
                    done += 1
                    continue
            misses.append(position)

        self._beat(
            phase, done, total,
            f"{len(restored)} restored, {done - len(restored)} cached",
        )
        counters = _RunCounters()
        counters.executed = len(misses)

        def call_args(position: int) -> Tuple[Any, ...]:
            entry = entries[position]
            return entry.args + tuple(results[dep] for dep in entry.deps)

        def complete(position: int, value: Any, attempts: int) -> None:
            nonlocal done
            results[position] = value
            done += 1
            entry = entries[position]
            if entry.key is not None:
                self._timed_cache(bperf, self.cache.put, entry.key, value)
            if on_complete is not None:
                on_complete(position, value, attempts, bperf)
            self._beat(phase, done, total, entry.label)

        if self.workers == 1 or len(misses) <= 1:
            for position in misses:
                self._check()
                if bperf is not None:
                    self._perf.profiler.tick_task(leaf=f"task:{phase}")
                    wall_start = walltime()
                    exec_started = monotonic()
                value, attempts = self._call_serial(
                    entries[position], call_args(position), phase, position,
                    counters,
                )
                if bperf is not None:
                    bperf.task_executed(
                        os.getpid(), wall_start, monotonic() - exec_started
                    )
                complete(position, value, attempts)
        else:
            self._run_pool(entries, misses, call_args, complete, phase,
                           counters, bperf)

        if bperf is not None:
            bperf.finish()
        delta = _stats_delta(before, self.cache.stats)
        self._record_run_metrics(phase, total, len(restored), delta, counters)
        return results, delta, counters

    def _run_pool(
        self,
        entries: Sequence[_Entry],
        misses: Sequence[int],
        call_args: Callable[[int], Tuple[Any, ...]],
        complete: Callable[[int, Any, int], None],
        phase: str,
        counters: _RunCounters,
        bperf: Optional["BatchPerf"],
    ) -> None:
        """Supervised process-pool backend.

        Each *pool pass* drives one ``ProcessPoolExecutor`` until every
        remaining entry completes or the pool breaks (a worker died).  A
        broken pool costs one respawn from the ``max_respawns`` budget;
        the next pass re-dispatches exactly the entries that had not
        completed (settled dependencies stay settled, so no completed
        work is repeated), so supervised output is bit-identical to
        serial.
        """
        for fn in {id(entries[p].fn): entries[p].fn for p in misses}.values():
            self._require_picklable(fn)
        remaining: Set[int] = set(misses)
        dependents: Dict[int, List[int]] = {p: [] for p in misses}
        for position in misses:
            for dep in dict.fromkeys(entries[position].deps):
                if dep in remaining:
                    dependents[dep].append(position)
        attempts: Dict[int, int] = {}
        while remaining:
            try:
                self._pool_pass(entries, remaining, dependents, attempts,
                                call_args, complete, phase, counters, bperf)
            except BrokenExecutor:
                counters.respawns += 1
                if counters.respawns > self.max_respawns:
                    raise EngineError(
                        f"worker pool for {phase!r} died {counters.respawns} "
                        f"times (max_respawns={self.max_respawns}); giving "
                        f"up with {len(remaining)} tasks incomplete"
                    )

    def _pool_pass(
        self,
        entries: Sequence[_Entry],
        remaining: Set[int],
        dependents: Dict[int, List[int]],
        attempts: Dict[int, int],
        call_args: Callable[[int], Tuple[Any, ...]],
        complete: Callable[[int, Any, int], None],
        phase: str,
        counters: _RunCounters,
        bperf: Optional["BatchPerf"],
    ) -> None:
        max_workers = min(self.workers, len(remaining))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures: Dict[Any, int] = {}

            def ready(position: int) -> bool:
                return not any(
                    dep in remaining for dep in entries[position].deps
                )

            def submit(position: int) -> None:
                self._check()
                args = call_args(position)
                self._time_serialization(bperf, entries[position].fn, args)
                future = self._submit(pool, entries[position], position,
                                      args, phase)
                futures[future] = position

            try:
                # On a respawn pass this re-collects exactly the entries
                # whose dependencies are settled but which are not.
                for position in sorted(remaining):
                    if ready(position):
                        submit(position)
                while futures:
                    self._check()
                    if bperf is not None:
                        bperf.sample_queue_depth(len(futures))
                    finished, _ = wait(
                        set(futures), return_when=FIRST_COMPLETED
                    )
                    for future in finished:
                        position = futures.pop(future)
                        try:
                            value = future.result()
                        except BrokenExecutor:
                            raise  # dead worker: the supervisor respawns
                        except BaseException as exc:
                            attempt = attempts.get(position, 1)
                            if not self._should_retry(exc, attempt):
                                raise
                            attempts[position] = attempt + 1
                            counters.retries += 1
                            self._retry_pause(attempt)
                            submit(position)
                            continue
                        if self._instrument:
                            value = self._unwrap_instrumented(value, bperf)
                        remaining.discard(position)
                        complete(position, value, attempts.get(position, 1))
                        for dependent in dependents[position]:
                            if ready(dependent):
                                submit(dependent)
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
