"""A frozen copy of the end-to-end simulator loop, used as a test oracle.

``simulate_user_availability_over_time`` below is the loop of
:mod:`repro.sim.endtoend` before it was rewritten as an indexed loop
(event heap, down counter, memoized service and availability tables),
copied verbatim with its helpers, its cancellation polling and its
observer calls.  The differential tests in ``test_endtoend_reference.py``
and ``benchmarks/bench_endtoend_throughput.py`` require the production
loop to agree with it bit for bit: equal result fields, equal generator
state afterwards and an identical sequence of observer calls.

It still shares these parts with the program, which build its inputs
rather than run the loop: the model's accessors, ``TwoStateAvailability``,
``repro.rbd.structure_function`` and the ``FaultEvent`` and
``EndToEndResult`` records.

Do not edit the loop.  It is only correct to change it together with a
deliberate change of the simulated random stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro._validation import check_positive, check_rate
from repro.availability import TwoStateAvailability
from repro.core import HierarchicalModel
from repro.errors import SimulationError, ValidationError
from repro.profiles import UserClass
from repro.sim.endtoend import EndToEndResult, FaultEvent

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.runtime.budget import CancellationToken


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
        per simulated transition; lets a wall-clock deadline or an
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
    timeline = _validated_timeline(faults, model)

    # Initial states drawn from each resource's steady state, so the time
    # average starts unbiased rather than warming up from all-up.
    up: Dict[str, bool] = {}
    next_event: Dict[str, float] = {}
    for name in names:
        process = rates[name]
        if process is None:
            up[name] = True
            next_event[name] = float("inf")
            continue
        up[name] = bool(rng.random() < process.availability)
        rate = process.failure_rate if up[name] else process.repair_rate
        next_event[name] = rng.exponential(1.0 / rate)

    # Injection overlay: forced-down counts per resource and per-service
    # degradation factors.  The *effective* resource state (natural state
    # minus forced windows) is what services are evaluated against.
    forced: Dict[str, int] = {}
    factors: Dict[str, float] = {}
    effective: Dict[str, bool] = dict(up)

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

    # Only services depending on a flipped resource need re-evaluation.
    dependents: Dict[str, list] = {name: [] for name in names}
    from repro.rbd import structure_function

    service_structures = {
        service: model.service_structure(service) for service in model.services
    }
    for service, structure in service_structures.items():
        for resource_name in set(structure.component_names()):
            dependents.setdefault(resource_name, []).append(service)

    def service_state(service: str) -> bool:
        return structure_function(service_structures[service], effective)

    up_services = {s for s in model.services if service_state(s)}

    def refresh_services(flipped_resource: str) -> None:
        for service in dependents.get(flipped_resource, ()):
            if service_state(service):
                up_services.add(service)
            else:
                up_services.discard(service)

    def conditional_user_availability() -> float:
        if degraded:
            return sum(
                weight * set_factors[k]
                for k, (weight, service_set) in enumerate(weighted_sets)
                if service_set <= up_services
            )
        return sum(
            weight
            for weight, service_set in weighted_sets
            if service_set <= up_services
        )

    def apply_fault(event: FaultEvent) -> None:
        touched = set(event.force_down) | set(event.release)
        for name in event.force_down:
            forced[name] = forced.get(name, 0) + 1
        for name in event.release:
            count = forced.get(name, 0)
            if count <= 0:
                raise SimulationError(
                    f"fault event at t={event.time} releases {name!r}, "
                    "which is not forced down"
                )
            forced[name] = count - 1
        for name in touched:
            effective[name] = up[name] and forced.get(name, 0) == 0
            refresh_services(name)
        if event.service_factors:
            factors.update(event.service_factors)
            refresh_set_factors()

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
        name = min(next_event, key=next_event.get) if next_event else None
        resource_time = next_event[name] if name is not None else float("inf")
        fault_time = (
            timeline[next_fault].time
            if next_fault < len(timeline)
            else float("inf")
        )
        event_time = min(resource_time, fault_time)
        step_end = min(event_time, horizon)
        dt = step_end - clock
        weighted_availability += current * dt
        if all(effective[r] for r in names):
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
            up[name] = not up[name]
            effective[name] = up[name] and forced.get(name, 0) == 0
            refresh_services(name)
            process = rates[name]
            rate = process.failure_rate if up[name] else process.repair_rate
            next_event[name] = clock + rng.exponential(1.0 / rate)
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
