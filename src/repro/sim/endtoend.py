"""End-to-end failure/repair simulation of a hierarchical model.

The analytic user-level measure (paper eq. 10) is a *steady-state
expectation*: it says nothing about how failures cluster in time.  This
simulator closes that gap: every resource alternates between up and down
as an independent two-state Markov process, and the user-perceived
availability is integrated over the simulated timeline — during a LAN
outage *every* session fails together, which the time average then
reflects correctly.

To keep the estimator's variance low, sessions are not sampled
individually: conditional on the current resource states (all boolean),
the exact probability that a random session succeeds is computed from
the hierarchical model (a Rao-Blackwellized estimator), and that
probability is integrated against elapsed time.  Over long horizons the
average converges to the analytic user availability, validating both the
equation and the independence assumptions behind it.

Fault injection
---------------
A run can additionally be driven by a timeline of :class:`FaultEvent`
interventions — the mechanism the :mod:`repro.resilience` campaign
engine uses to *violate* the model's independence assumptions on
purpose.  An event can force a set of resources down regardless of their
natural failure/repair process (correlated outages: LAN plus hosts
failing together), release them again, and set per-service degradation
factors in ``[0, 1]`` that multiply the conditional session-success
probability while active (capacity degradation: a farm in a degraded
coverage mode still serves, but drops a fraction of requests).  The
natural two-state processes keep running *underneath* a forced window,
so releasing a resource restores whatever latent state it reached.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_non_negative, check_positive, check_rate
from ..availability import TwoStateAvailability
from ..core import HierarchicalModel
from ..errors import SimulationError, ValidationError
from ..profiles import UserClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..runtime.budget import CancellationToken

_INF = float("inf")

__all__ = [
    "EndToEndResult",
    "FaultEvent",
    "simulate_user_availability_over_time",
]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled intervention of a fault-injection timeline.

    Attributes
    ----------
    time:
        Absolute simulation time at which the intervention applies.
    force_down:
        Resources forced down from this instant (stacking: a resource
        forced down twice needs two releases).
    release:
        Resources released from a previous ``force_down``.
    service_factors:
        Absolute degradation factors set per service name: ``1.0``
        restores full capacity, ``0.7`` drops 30% of the sessions that
        would otherwise succeed, ``0.0`` is a hard outage of the service.
    """

    time: float
    force_down: FrozenSet[str] = frozenset()
    release: FrozenSet[str] = frozenset()
    service_factors: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        check_non_negative(self.time, "time")
        object.__setattr__(self, "force_down", frozenset(self.force_down))
        object.__setattr__(self, "release", frozenset(self.release))
        factors = dict(self.service_factors)
        for service, factor in factors.items():
            if not 0.0 <= float(factor) <= 1.0:
                raise ValidationError(
                    f"service factor for {service!r} must be in [0, 1], "
                    f"got {factor!r}"
                )
        object.__setattr__(self, "service_factors", factors)
        if not (self.force_down or self.release or factors):
            raise ValidationError(
                "FaultEvent does nothing: set force_down, release, or "
                "service_factors"
            )


@dataclass(frozen=True)
class EndToEndResult:
    """Outcome of an end-to-end failure/repair simulation.

    Attributes
    ----------
    horizon:
        Simulated time span (availability-model time unit).
    average_user_availability:
        Time average of the conditional per-session success probability —
        converges to the analytic eq.-(10) value (absent injected faults).
    fraction_fully_available:
        Fraction of time *every* service was up.
    fraction_total_outage:
        Fraction of time the success probability was zero (a common
        single point of failure was down).
    resource_transitions:
        Number of natural failure/repair events simulated.
    fault_events_applied:
        Number of injected :class:`FaultEvent` interventions applied.
    """

    horizon: float
    average_user_availability: float
    fraction_fully_available: float
    fraction_total_outage: float
    resource_transitions: int
    fault_events_applied: int = 0


def _resource_rates(model: HierarchicalModel, default_repair_rate: float):
    """Failure/repair rates per resource.

    Resources backed by :class:`TwoStateAvailability` use their own
    rates; every other model (fixed numbers, composite web farms) is
    mapped to the two-state process with the same steady-state
    availability and the default repair rate — the approximation is
    documented on the public function.
    """
    rates: Dict[str, TwoStateAvailability] = {}
    for name in model.resources:
        availability = model.resource_availability(name)
        source = model.resource(name).model
        if isinstance(source, TwoStateAvailability):
            rates[name] = source
        elif availability >= 1.0:
            rates[name] = None  # never fails
        else:
            rates[name] = TwoStateAvailability.from_availability(
                availability, repair_rate=default_repair_rate
            )
    return rates


def _validated_timeline(
    faults: Optional[Sequence[FaultEvent]],
    model: HierarchicalModel,
) -> Tuple[FaultEvent, ...]:
    """Fault events sorted by time, with resource/service names checked."""
    if not faults:
        return ()
    resources = set(model.resources)
    services = set(model.services)
    for event in faults:
        unknown = (set(event.force_down) | set(event.release)) - resources
        if unknown:
            raise ValidationError(
                f"fault event at t={event.time} names unknown resources: "
                f"{sorted(unknown)}"
            )
        bad_services = set(event.service_factors) - services
        if bad_services:
            raise ValidationError(
                f"fault event at t={event.time} names unknown services: "
                f"{sorted(bad_services)}"
            )
    return tuple(sorted(faults, key=lambda e: e.time))


def simulate_user_availability_over_time(
    model: HierarchicalModel,
    user_class: UserClass,
    horizon: float,
    rng: np.random.Generator,
    default_repair_rate: float = 1.0,
    max_transitions: int = 20_000_000,
    faults: Optional[Sequence[FaultEvent]] = None,
    cancellation: Optional["CancellationToken"] = None,
    observer: Optional[object] = None,
) -> EndToEndResult:
    """Simulate resource failures/repairs and integrate user availability.

    Parameters
    ----------
    model:
        The hierarchical model; resources not built from
        :class:`TwoStateAvailability` (fixed numbers, web farms) are
        approximated by a two-state process with the same steady-state
        availability and *default_repair_rate*.
    user_class:
        The scenario mix to evaluate.
    horizon:
        Simulated time span, in the availability-model time unit.
    rng:
        Random generator (caller owns seeding).
    default_repair_rate:
        Repair rate assigned to resources that only carry an
        availability number.
    max_transitions:
        Safety cap on natural failure/repair events; exceeding it raises
        :class:`SimulationError` naming the count and sim-time reached.
    faults:
        Optional fault-injection timeline (see :class:`FaultEvent`);
        events past the horizon are ignored.
    cancellation:
        Optional :class:`~repro.runtime.CancellationToken` polled once
        per loop step (a resource transition, an applied fault event or
        the final step to the horizon); lets a wall-clock deadline or an
        event budget interrupt the run cleanly (the partial integral is
        discarded — campaign-level journaling preserves only whole
        replications, which is what resume needs).
    observer:
        Optional streaming consumer of the simulated timeline, e.g. a
        :class:`repro.obs.slo.SLOMonitor` or
        :class:`~repro.obs.slo.PoissonSessionSampler`.  Duck-typed: it
        must provide ``interval(start, end, availability)``, called for
        every piecewise-constant segment of the conditional user
        availability, and ``fault(time, event)``, called for every
        applied :class:`FaultEvent`.  ``None`` (the default) costs one
        ``is not None`` check per segment, preserving the additive-
        observability guarantee: results are bit-identical either way.

    Returns
    -------
    EndToEndResult

    Examples
    --------
    >>> from repro.core import HierarchicalModel
    >>> from repro.profiles import UserClass
    >>> from repro.availability import TwoStateAvailability
    >>> model = HierarchicalModel()
    >>> _ = model.add_resource(
    ...     "host", TwoStateAvailability(failure_rate=0.2, repair_rate=1.0))
    >>> _ = model.add_service("web", "host")
    >>> _ = model.add_function("home", services=["web"])
    >>> users = UserClass.from_probabilities("all", {frozenset({"home"}): 1.0})
    >>> result = simulate_user_availability_over_time(
    ...     model, users, horizon=20000.0,
    ...     rng=__import__("numpy").random.default_rng(5))
    >>> abs(result.average_user_availability - 1.0 / 1.2) < 0.01
    True

    A scripted total outage of the only host for half the horizon caps
    the availability accordingly:

    >>> out = simulate_user_availability_over_time(
    ...     model, users, horizon=10000.0,
    ...     rng=__import__("numpy").random.default_rng(5),
    ...     faults=[FaultEvent(time=0.0, force_down=frozenset({"host"})),
    ...             FaultEvent(time=5000.0, release=frozenset({"host"}))])
    >>> out.average_user_availability < 0.5
    True
    """
    horizon = check_positive(horizon, "horizon")
    check_rate(default_repair_rate, "default_repair_rate")
    rates = _resource_rates(model, default_repair_rate)
    names = list(rates)
    index = {name: i for i, name in enumerate(names)}
    timeline = _validated_timeline(faults, model)
    fault_times = [event.time for event in timeline] + [_INF]

    # Resources are indexed in model order.  Initial states are drawn
    # from each resource's steady state, so the time average starts
    # unbiased rather than warming up from all-up.  Finite-rate resources
    # join a heap of (next transition time, index): equal times pop the
    # lowest index, the model order a scan would pick first.  The
    # infinite sentinel keeps the heap non-empty when no resource fails.
    up = [True] * len(names)
    scales = [None] * len(names)  # mean sojourn, indexed by the up state
    heap = [(_INF, -1)]
    for i, name in enumerate(names):
        process = rates[name]
        if process is None:
            continue  # never fails
        up[i] = state = bool(rng.random() < process.availability)
        scales[i] = (1.0 / process.repair_rate, 1.0 / process.failure_rate)
        heap.append((rng.exponential(scales[i][state]), i))
    heapq.heapify(heap)

    # Injection overlay: forced-down counts per resource and per-service
    # degradation factors.  The *effective* resource state (natural state
    # minus forced windows) is what services are evaluated against;
    # ``down`` counts the effectively-down resources.
    forced = [0] * len(names)
    factors: Dict[str, float] = {}
    effective = list(up)
    down = effective.count(False)

    # Precompute, per scenario, the distribution of the union of services
    # a session touches (independent of availabilities).  With boolean
    # service states the session succeeds iff its union set is a subset
    # of the currently-up services, so each evaluation reduces to subset
    # tests against a precomputed weighted list.
    weighted_sets = []
    common = frozenset(model.common_services)
    for scenario in user_class.scenarios:
        union_dist: Dict[frozenset, float] = {common: 1.0}
        for function in scenario.functions:
            usage = model.function_service_usage(function)
            combined: Dict[frozenset, float] = {}
            for current, p_current in union_dist.items():
                for touched, p_touched in usage.items():
                    key = current | touched
                    combined[key] = combined.get(key, 0.0) + p_current * p_touched
            union_dist = combined
        for service_set, probability in union_dist.items():
            weighted_sets.append(
                (scenario.probability * probability, service_set)
            )

    # Degradation factor of each weighted set; all 1.0 until a fault
    # event sets a service factor, so the common no-degradation case
    # stays a pure subset test.
    set_factors = [1.0] * len(weighted_sets)
    degraded = False

    def refresh_set_factors() -> None:
        nonlocal degraded
        degraded = any(f != 1.0 for f in factors.values())
        for k, (_, service_set) in enumerate(weighted_sets):
            product = 1.0
            for service in service_set:
                product *= factors.get(service, 1.0)
            set_factors[k] = product

    # Service s is bit s of ``up_services``.  Each service also keeps a
    # local mask over its own distinct resources (bit set = effectively
    # up) and memoizes its structure function per local mask, so a
    # resource flip costs one table lookup per dependent service.
    from ..rbd import structure_function

    services = model.services
    service_bit = {service: 1 << s for s, service in enumerate(services)}
    structures = [model.service_structure(service) for service in services]
    service_resources = [
        tuple(dict.fromkeys(structure.component_names()))
        for structure in structures
    ]
    dependents = [[] for _ in names]  # per resource: (service, local bit)
    local_masks = []
    for s, resources in enumerate(service_resources):
        mask = 0
        for b, resource_name in enumerate(resources):
            dependents[index[resource_name]].append((s, 1 << b))
            if effective[index[resource_name]]:
                mask |= 1 << b
        local_masks.append(mask)
    service_tables = [{} for _ in services]

    def service_up(s: int, mask: int) -> bool:
        table = service_tables[s]
        state = table.get(mask)
        if state is None:
            states = {
                resource_name: bool(mask >> b & 1)
                for b, resource_name in enumerate(service_resources[s])
            }
            state = table[mask] = structure_function(structures[s], states)
        return state

    up_services = 0
    for s, mask in enumerate(local_masks):
        if service_up(s, mask):
            up_services |= 1 << s

    def set_effective(i: int, state: bool) -> None:
        nonlocal down, up_services
        effective[i] = state
        down += -1 if state else 1
        for s, bit in dependents[i]:
            mask = local_masks[s] ^ bit
            local_masks[s] = mask
            if service_up(s, mask):
                up_services |= 1 << s
            else:
                up_services &= ~(1 << s)

    # Conditional user availability, memoized per up-services mask.  The
    # sum runs over the weighted sets in their original order, so every
    # value is bit-identical to a fresh subset scan; setting service
    # factors clears the table.
    set_masks = [
        (weight, sum(service_bit[service] for service in service_set))
        for weight, service_set in weighted_sets
    ]
    availability_table: Dict[int, float] = {}

    def conditional_user_availability() -> float:
        value = availability_table.get(up_services)
        if value is None:
            missing = ~up_services
            if degraded:
                value = sum(
                    weight * set_factors[k]
                    for k, (weight, set_mask) in enumerate(set_masks)
                    if not set_mask & missing
                )
            else:
                value = sum(
                    weight
                    for weight, set_mask in set_masks
                    if not set_mask & missing
                )
            availability_table[up_services] = value
        return value

    def apply_fault(event: FaultEvent) -> None:
        for name in event.force_down:
            forced[index[name]] += 1
        for name in event.release:
            i = index[name]
            if forced[i] <= 0:
                raise SimulationError(
                    f"fault event at t={event.time} releases {name!r}, "
                    "which is not forced down"
                )
            forced[i] -= 1
        for name in event.force_down | event.release:
            i = index[name]
            state = up[i] and forced[i] == 0
            if state != effective[i]:
                set_effective(i, state)
        if event.service_factors:
            factors.update(event.service_factors)
            refresh_set_factors()
            availability_table.clear()

    heapreplace = heapq.heapreplace
    exponential = rng.exponential
    clock = 0.0
    weighted_availability = 0.0
    fully_up_time = 0.0
    outage_time = 0.0
    transitions = 0
    applied = 0
    next_fault = 0
    current = conditional_user_availability()

    while clock < horizon:
        if cancellation is not None:
            cancellation.count_event()
        resource_time, i = heap[0]
        fault_time = fault_times[next_fault]
        event_time = fault_time if fault_time < resource_time else resource_time
        step_end = horizon if horizon < event_time else event_time
        dt = step_end - clock
        weighted_availability += current * dt
        if not down:
            fully_up_time += dt
        if current == 0.0:
            outage_time += dt
        if observer is not None and dt > 0.0:
            observer.interval(clock, step_end, current)
        clock = step_end
        if event_time > horizon:
            break
        if fault_time <= resource_time:
            event = timeline[next_fault]
            apply_fault(event)
            if observer is not None:
                observer.fault(event.time, event)
            next_fault += 1
            applied += 1
        else:
            # Flip the resource's natural state and schedule its next
            # transition; the effective state honours forced windows.
            state = up[i] = not up[i]
            if not forced[i]:
                set_effective(i, state)
            heapreplace(heap, (clock + exponential(scales[i][state]), i))
            transitions += 1
            if transitions > max_transitions:
                raise SimulationError(
                    f"exceeded max_transitions={max_transitions} after "
                    f"{transitions} resource transitions at sim-time "
                    f"{clock:.6g} of horizon {horizon:.6g}; rates may be far "
                    "larger than the horizon warrants"
                )
        current = conditional_user_availability()

    return EndToEndResult(
        horizon=horizon,
        average_user_availability=weighted_availability / horizon,
        fraction_fully_available=fully_up_time / horizon,
        fraction_total_outage=outage_time / horizon,
        resource_transitions=transitions,
        fault_events_applied=applied,
    )
