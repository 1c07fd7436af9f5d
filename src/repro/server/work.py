"""Job kinds: spec validation and execution.

Each job kind maps a JSON spec (the POST body) onto one of the
library's canonical workloads from :mod:`repro.workloads`:

``sweep``
    A Fig. 11/12 sensitivity grid; the result's ``text`` is
    byte-identical to ``repro sweep`` stdout for the same flags.
``policies``
    The client-policy comparison; ``text`` matches ``repro policies``.
``campaign``
    A fault-injection campaign; ``text`` matches ``repro inject``.
``cloud``
    The cloud deployment comparison; ``text`` matches ``repro cloud``.
``probe``
    A synthetic job that holds a worker slot for ``hold`` seconds —
    traffic with *known* (exponential, if the client draws them so)
    service times, used to exercise the admission controller's
    M/M/c/K self-model under saturation.

Every job runs inside one ambient instrumentation scope
(:func:`repro.obs.instrumented`) holding the job's metrics registry,
so the engine and the library layers under it (CTMC solvers, campaigns,
Bayesian inference) record into it exactly as they do under the CLI's
``--metrics``.  The engine-backed kinds (``sweep``/``policies``/
``cloud``) accept an optional ``"profile": true`` spec key: the scope
then also holds a job-local :class:`~repro.obs.PerfRecorder` and the
result carries a ``profile`` document (attribution report, kernel
accounting, collapsed/speedscope flamegraph) served at
``GET /v1/jobs/<id>/profile``.

Specs are validated eagerly at submission time through the repo's
:mod:`repro._validation` helpers — a bad spec is a 400 before the job
ever enters the queue — and execution takes the engine's standard
cooperation points: a :class:`~repro.runtime.CancellationToken` checked
between cells and a heartbeat callback for progress events.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from .._validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
)
from ..errors import ValidationError
from .. import workloads

__all__ = ["JOB_KINDS", "parse_spec", "execute_job"]

#: Longest accepted probe hold, seconds (probes are test traffic).
MAX_PROBE_HOLD = 60.0


def _check_keys(spec: dict, allowed: frozenset, kind: str) -> None:
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown {kind} spec key(s) {unknown}; allowed: "
            f"{sorted(allowed)}"
        )


def _check_profile(spec: dict, kind: str) -> bool:
    """The optional ``profile`` spec key (performance attribution)."""
    profile = spec.get("profile", False)
    if not isinstance(profile, bool):
        raise ValidationError(
            f"{kind} spec key 'profile' must be a boolean, got "
            f"{profile!r}"
        )
    return profile


def _parse_sweep(spec: dict) -> dict:
    _check_keys(
        spec,
        frozenset({"figure", "arrival_rate", "servers_max", "workers",
                   "profile"}),
        "sweep",
    )
    figure = str(spec.get("figure", "11"))
    if figure not in ("11", "12"):
        raise ValidationError(
            f"figure must be '11' or '12', got {figure!r}"
        )
    return {
        "figure": figure,
        "arrival_rate": check_positive(
            spec.get("arrival_rate", 100.0), "arrival_rate"
        ),
        "servers_max": check_positive_int(
            spec.get("servers_max", 10), "servers_max"
        ),
        "workers": check_positive_int(spec.get("workers", 1), "workers"),
        "profile": _check_profile(spec, "sweep"),
    }


def _parse_policies(spec: dict) -> dict:
    _check_keys(
        spec,
        frozenset({"arrival_rate", "service_rate", "servers", "buffer",
                   "workers", "profile"}),
        "policies",
    )
    return {
        "arrival_rate": check_positive(
            spec.get("arrival_rate", 100.0), "arrival_rate"
        ),
        "service_rate": check_positive(
            spec.get("service_rate", 100.0), "service_rate"
        ),
        "servers": check_positive_int(spec.get("servers", 4), "servers"),
        "buffer": check_positive_int(spec.get("buffer", 10), "buffer"),
        "workers": check_positive_int(spec.get("workers", 1), "workers"),
        "profile": _check_profile(spec, "policies"),
    }


def _parse_campaign(spec: dict) -> dict:
    _check_keys(
        spec,
        frozenset({"scenario", "architecture", "user_class", "horizon",
                   "replications", "seed", "workers"}),
        "campaign",
    )
    scenario = str(spec.get("scenario", "null"))
    if scenario not in workloads.FAULT_SCENARIOS:
        raise ValidationError(
            f"scenario must be one of {sorted(workloads.FAULT_SCENARIOS)}, "
            f"got {scenario!r}"
        )
    architecture = str(spec.get("architecture", "redundant"))
    if architecture not in ("basic", "redundant"):
        raise ValidationError(
            f"architecture must be 'basic' or 'redundant', "
            f"got {architecture!r}"
        )
    user_class = str(spec.get("user_class", "both"))
    if user_class not in ("A", "B", "both"):
        raise ValidationError(
            f"user_class must be 'A', 'B', or 'both', got {user_class!r}"
        )
    seed = spec.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    return {
        "scenario": scenario,
        "architecture": architecture,
        "user_class": user_class,
        "horizon": check_positive(spec.get("horizon", 100.0), "horizon"),
        "replications": check_positive_int(
            spec.get("replications", 4), "replications"
        ),
        "seed": seed,
        "workers": check_positive_int(spec.get("workers", 1), "workers"),
    }


def _parse_cloud(spec: dict) -> dict:
    _check_keys(
        spec,
        frozenset({"arrival_rate", "service_rate", "zone_availability",
                   "workers", "profile"}),
        "cloud",
    )
    zone = check_positive(
        spec.get("zone_availability", 0.9995), "zone_availability"
    )
    check_in_range(zone, 0.0, 1.0, "zone_availability")
    return {
        "arrival_rate": check_positive(
            spec.get("arrival_rate", 100.0), "arrival_rate"
        ),
        "service_rate": check_positive(
            spec.get("service_rate", 100.0), "service_rate"
        ),
        "zone_availability": zone,
        "workers": check_positive_int(spec.get("workers", 1), "workers"),
        "profile": _check_profile(spec, "cloud"),
    }


def _parse_probe(spec: dict) -> dict:
    _check_keys(spec, frozenset({"hold"}), "probe")
    hold = check_non_negative(spec.get("hold", 0.0), "hold")
    check_in_range(hold, 0.0, MAX_PROBE_HOLD, "hold")
    return {"hold": hold}


#: kind -> spec parser; the route table is derived from this mapping.
JOB_KINDS: Dict[str, Callable[[dict], dict]] = {
    "sweep": _parse_sweep,
    "policies": _parse_policies,
    "campaign": _parse_campaign,
    "cloud": _parse_cloud,
    "probe": _parse_probe,
}


def parse_spec(kind: str, spec: dict) -> dict:
    """Validate *spec* for *kind*; returns the normalized spec."""
    try:
        parser = JOB_KINDS[kind]
    except KeyError:
        raise ValidationError(
            f"unknown job kind {kind!r}; expected one of "
            f"{sorted(JOB_KINDS)}"
        ) from None
    if not isinstance(spec, dict):
        raise ValidationError(
            f"{kind} spec must be a JSON object, got "
            f"{type(spec).__name__}"
        )
    return parser(spec)


def _engine(spec: dict, token, progress):
    from ..engine import EvaluationEngine

    return EvaluationEngine(
        workers=spec["workers"], cancellation=token, heartbeat=progress
    )


def _job_scope(metrics, recorder):
    """The job's instrumentation scope.

    Holds the job's registry and, for a profiled job, its recorder; a
    field the job does not set keeps the enclosing value.
    """
    from ..obs import active_metrics, active_perf, active_tracer, instrumented

    return instrumented(
        metrics=metrics if metrics is not None else active_metrics(),
        tracer=active_tracer(),
        perf=recorder if recorder is not None else active_perf(),
    )


def _profile_document(recorder) -> dict:
    """The JSON-safe profile attachment for a job result."""
    from ..obs import format_attribution, format_kernel_accounting

    return {
        "attribution": recorder.to_dict(),
        "text": (
            format_attribution(recorder.batches)
            + "\n\n"
            + format_kernel_accounting(recorder.kernel)
        ),
        "collapsed": recorder.profiler.collapsed(),
        "speedscope": recorder.profiler.speedscope(),
    }


def execute_job(
    kind: str,
    spec: dict,
    token=None,
    progress=None,
    metrics=None,
) -> dict:
    """Run one validated job; returns the JSON-safe result document.

    Runs on a worker thread of the server — everything here is the
    synchronous library underneath, with *token* as the cooperative
    cancellation handle and *progress* a
    :data:`~repro.runtime.heartbeat.HeartbeatCallback`.
    """
    if kind == "probe":
        return _execute_probe(spec, token)
    recorder = None
    if spec.get("profile"):
        from ..obs import PerfRecorder

        recorder = PerfRecorder()
    with _job_scope(metrics, recorder):
        result = _execute(kind, spec, token, progress)
    if recorder is not None:
        result["profile"] = _profile_document(recorder)
    return result


def _execute(kind: str, spec: dict, token, progress) -> dict:
    if kind == "sweep":
        grid = workloads.run_fig_sweep(
            spec["figure"],
            spec["arrival_rate"],
            spec["servers_max"],
            engine=_engine(spec, token, progress),
        )
        text = workloads.fig_sweep_text(
            spec["figure"], spec["arrival_rate"], spec["servers_max"], grid
        )
        return {
            "text": text,
            "series": {
                f"{lam:g}": list(grid.row(lam).outputs)
                for lam in workloads.SWEEP_FAILURE_RATES
            },
            "cells": len(workloads.SWEEP_FAILURE_RATES) * spec["servers_max"],
        }
    if kind == "policies":
        report = workloads.run_policy_comparison(
            arrival_rate=spec["arrival_rate"],
            service_rate=spec["service_rate"],
            servers=spec["servers"],
            buffer=spec["buffer"],
            engine=_engine(spec, token, progress),
        )
        best = report.best
        return {
            "text": workloads.policy_comparison_text(report),
            "best": {
                "policy": best.policy,
                "mean_availability": best.mean_availability,
                "worst_availability": best.worst_availability,
                "worst_scenario": best.worst_scenario,
            },
            "cells": len(report.cells),
        }
    if kind == "cloud":
        report = workloads.run_cloud_comparison(
            arrival_rate=spec["arrival_rate"],
            service_rate=spec["service_rate"],
            zone_availability=spec["zone_availability"],
            engine=_engine(spec, token, progress),
        )
        best = report.best
        return {
            "text": workloads.cloud_comparison_text(
                report, spec["arrival_rate"], spec["zone_availability"]
            ),
            "best": {
                "deployment": best.scenario,
                "zones": best.zones,
                "mean_availability": best.mean,
            },
            "ranking": [cell.scenario for cell in report.ranking],
            "cells": len(report.cells),
        }
    if kind == "campaign":
        results = workloads.run_fault_campaigns(
            spec["scenario"],
            architecture=spec["architecture"],
            user_class=spec["user_class"],
            horizon=spec["horizon"],
            replications=spec["replications"],
            seed=spec["seed"],
            workers=spec["workers"],
            cancellation=token,
            heartbeat=progress,
        )
        text, calibrated = workloads.campaign_text(
            results,
            spec["scenario"],
            spec["horizon"],
            spec["replications"],
            spec["seed"],
        )
        return {
            "text": text,
            "calibrated": calibrated,
            "campaigns": [
                {
                    "user_class": r.user_class,
                    "scenario": r.scenario,
                    "analytic_availability": r.analytic_availability,
                    "mean_availability": r.mean_availability,
                    "stderr": r.stderr,
                }
                for r in results
            ],
        }
    raise ValidationError(f"unknown job kind {kind!r}")


def _execute_probe(spec: dict, token) -> dict:
    """Hold a worker slot for ``hold`` seconds, cancellably.

    Sleeps in short slices polling the token, so ``DELETE`` on a
    running probe takes effect within ~20 ms rather than after the
    full hold.
    """
    deadline = time.monotonic() + spec["hold"]
    while True:
        if token is not None:
            token.check()
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            break
        time.sleep(min(0.02, remaining))
    return {"held_seconds": spec["hold"]}
