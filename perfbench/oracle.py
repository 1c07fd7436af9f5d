"""A frozen copy of the end-to-end campaign loop, used as the oracle.

``simulate_user_availability_over_time`` below is the simulator loop of
``repro.sim.endtoend`` as it stood when this benchmark was written, with
the cancellation and observer hooks removed (the campaign workload uses
neither), and :func:`structure_function` is the reliability-block
structure function it evaluates services with.  Rewrites of the
program's loop and of its service evaluation are checked against this
fixed program, never against themselves: every campaign iteration of
the benchmark re-runs replications through it from the same seed
stream and requires a bit-equal ``EndToEndResult``.

The oracle still trusts these parts of the program, which build its
inputs rather than run the loop: the model's accessors
(``resources``, ``resource_availability``, ``resource``,
``common_services``, ``services``, ``function_service_usage``,
``service_structure``), ``TwoStateAvailability`` and its
``from_availability``, the block classes of ``repro.rbd`` as data, the
fault scenarios' ``compile``, and the ``EndToEndResult`` record.  A
change there moves the oracle with the program.

Do not edit the loop.  It is only correct to change it together with a
deliberate change of the simulated random stream, and then the
benchmark's baseline is void.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.availability import TwoStateAvailability
from repro.errors import SimulationError
from repro.rbd import Component, KofN, Parallel, Series
from repro.sim.endtoend import EndToEndResult


def structure_function(block, states):
    """Is *block* up when the components are up or down as in *states*?"""
    if isinstance(block, Component):
        return bool(states[block.name])
    if isinstance(block, Series):
        return all(structure_function(c, states) for c in block.children)
    if isinstance(block, Parallel):
        return any(structure_function(c, states) for c in block.children)
    if isinstance(block, KofN):
        up = sum(1 for c in block.children if structure_function(c, states))
        return up >= block.k
    raise TypeError(f"unknown block type {type(block).__name__}")


def _resource_rates(model, default_repair_rate):
    rates = {}
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


def simulate_user_availability_over_time(
    model,
    user_class,
    horizon,
    rng,
    default_repair_rate=1.0,
    max_transitions=20_000_000,
    faults=None,
):
    """The reference loop (see the module docstring)."""
    rates = _resource_rates(model, default_repair_rate)
    names = list(rates)
    timeline = tuple(sorted(faults or (), key=lambda e: e.time))

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

    forced: Dict[str, int] = {}
    factors: Dict[str, float] = {}
    effective: Dict[str, bool] = dict(up)

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

    set_factors = [1.0] * len(weighted_sets)
    degraded = False

    def refresh_set_factors():
        nonlocal degraded
        degraded = any(f != 1.0 for f in factors.values())
        for k, (_, service_set) in enumerate(weighted_sets):
            product = 1.0
            for service in service_set:
                product *= factors.get(service, 1.0)
            set_factors[k] = product

    dependents: Dict[str, list] = {name: [] for name in names}
    service_structures = {
        service: model.service_structure(service) for service in model.services
    }
    for service, structure in service_structures.items():
        for resource_name in set(structure.component_names()):
            dependents.setdefault(resource_name, []).append(service)

    def service_state(service):
        return structure_function(service_structures[service], effective)

    up_services = {s for s in model.services if service_state(s)}

    def refresh_services(flipped_resource):
        for service in dependents.get(flipped_resource, ()):
            if service_state(service):
                up_services.add(service)
            else:
                up_services.discard(service)

    def conditional_user_availability():
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

    def apply_fault(event):
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
        clock = step_end
        if event_time > horizon:
            break
        if fault_time <= resource_time:
            apply_fault(timeline[next_fault])
            next_fault += 1
            applied += 1
        else:
            up[name] = not up[name]
            effective[name] = up[name] and forced.get(name, 0) == 0
            refresh_services(name)
            process = rates[name]
            rate = process.failure_rate if up[name] else process.repair_rate
            next_event[name] = clock + rng.exponential(1.0 / rate)
            transitions += 1
            if transitions > max_transitions:
                raise SimulationError(
                    f"exceeded max_transitions={max_transitions}"
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


def replicate(model, user_class, scenario, horizon, cell_seed, index,
              replications):
    """Re-run replication *index* of one campaign cell through the oracle.

    Uses the stream a campaign cell seeded with *cell_seed* gives that
    replication: ``SeedSequence(cell_seed).spawn(replications)[index]``,
    with the scenario's fault timeline compiled from the same generator.
    """
    stream = np.random.SeedSequence(cell_seed).spawn(replications)[index]
    rng = np.random.default_rng(stream)
    faults = scenario.compile(model, horizon, rng)
    return simulate_user_availability_over_time(
        model, user_class, horizon=horizon, rng=rng, faults=faults
    )


def mismatched_fields(expected, actual):
    """Names of the ``EndToEndResult`` fields that are not bit-equal."""
    return [
        field.name
        for field in dataclasses.fields(EndToEndResult)
        if repr(getattr(expected, field.name))
        != repr(getattr(actual, field.name))
    ]
