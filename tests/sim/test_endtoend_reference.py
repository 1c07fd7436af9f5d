"""Differential tests: the indexed end-to-end loop against its frozen reference.

``_endtoend_reference.py`` keeps the simulator loop as it stood before
it was rewritten around an event heap, a down counter and memoized
service/availability tables.  The rewrite must be indistinguishable from
it: equal ``repr`` of every result field, the same generator state
afterwards, the same sequence of observer calls, and the same errors
and cancellation polls.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability import TwoStateAvailability
from repro.core import HierarchicalModel
from repro.errors import DeadlineExceededError, SimulationError
from repro.profiles import UserClass
from repro.rbd import Component, KofN, Parallel, Series
from repro.runtime import CancellationToken
from repro.sim.endtoend import (
    EndToEndResult,
    FaultEvent,
    simulate_user_availability_over_time,
)
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel
from repro.workloads import fault_scenario_factories

from tests.sim import _endtoend_reference as reference

FIELDS = [field.name for field in dataclasses.fields(EndToEndResult)]


class Recorder:
    """Observer that records every call, floats as their ``repr``."""

    def __init__(self):
        self.calls = []

    def interval(self, start, end, availability):
        self.calls.append(("interval", repr(start), repr(end), repr(availability)))

    def fault(self, time, event):
        self.calls.append(("fault", repr(time), event))


def _outcome(simulate, model, users, horizon, seed, faults=None, **kwargs):
    """Everything a caller can observe of one run."""
    rng = np.random.default_rng(seed)
    observer = Recorder()
    try:
        result = simulate(
            model, users, horizon, rng, faults=faults, observer=observer,
            **kwargs,
        )
    except SimulationError as error:
        fields = ("SimulationError", str(error))
    else:
        fields = tuple(repr(getattr(result, name)) for name in FIELDS)
    return fields, rng.bit_generator.state, observer.calls


def assert_matches_reference(model, users, horizon, seed, faults=None, **kwargs):
    new = _outcome(
        simulate_user_availability_over_time, model, users, horizon, seed,
        faults, **kwargs,
    )
    old = _outcome(
        reference.simulate_user_availability_over_time, model, users,
        horizon, seed, faults, **kwargs,
    )
    assert new[0] == old[0]
    assert new[1] == old[1]
    assert new[2] == old[2]
    return new


# -- random small models ------------------------------------------------------

RESOURCE_KINDS = st.one_of(
    st.tuples(
        st.sampled_from([0.05, 0.3, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 4.0])
    ).map(lambda rates: TwoStateAvailability(*rates)),
    st.sampled_from([1.0, 0.99, 0.9, 0.5]),  # perfect or fixed availability
)


@st.composite
def blocks(draw, names, depth=0):
    """A random RBD over *names*; components may repeat."""
    if depth >= 2 or draw(st.booleans()):
        return Component(draw(st.sampled_from(names)))
    kind = draw(st.sampled_from(["series", "parallel", "kofn"]))
    children = [
        draw(blocks(names, depth + 1)) for _ in range(draw(st.integers(2, 3)))
    ]
    if kind == "series":
        return Series(*children)
    if kind == "parallel":
        return Parallel(*children)
    return KofN(draw(st.integers(1, len(children))), children)


@st.composite
def models(draw):
    model = HierarchicalModel()
    resources = [f"r{i}" for i in range(draw(st.integers(1, 5)))]
    for name in resources:
        model.add_resource(name, draw(RESOURCE_KINDS))
    services = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    for name in services:
        model.add_service(name, draw(blocks(resources)))
    functions = [f"f{i}" for i in range(draw(st.integers(1, 3)))]
    for name in functions:
        used = draw(st.lists(st.sampled_from(services), min_size=1, max_size=3))
        model.add_function(name, services=used)
    model.require_everywhere(
        draw(st.lists(st.sampled_from(services), max_size=2, unique=True))
    )
    scenarios = draw(st.lists(
        st.frozensets(st.sampled_from(functions), min_size=1),
        min_size=1, max_size=3, unique=True,
    ))
    users = UserClass.from_probabilities(
        "users", {s: 1.0 for s in scenarios}, normalize=True
    )
    return model, resources, services, users


@st.composite
def timelines(draw, resources, services, horizon):
    """Stacked force/release windows plus service-factor events.

    Times include 0 and points past the horizon; windows on the same
    resource may overlap, so forces stack.
    """
    times = st.sampled_from(
        [0.0, 0.25 * horizon, 0.5 * horizon, 0.75 * horizon, horizon + 1.0]
    ) | st.floats(0.0, 1.2 * horizon)
    events = []
    for _ in range(draw(st.integers(0, 3))):
        forced = draw(st.frozensets(st.sampled_from(resources), min_size=1))
        start = draw(times)
        end = start + draw(st.floats(0.0, horizon))
        events.append(FaultEvent(time=start, force_down=forced))
        events.append(FaultEvent(time=end, release=forced))
    for _ in range(draw(st.integers(0, 3))):
        factors = draw(st.dictionaries(
            st.sampled_from(services), st.sampled_from([0.0, 0.7, 1.0]),
            min_size=1,
        ))
        events.append(FaultEvent(time=draw(times), service_factors=factors))
    return events


class TestRandomModels:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_indexed_loop_matches_reference(self, data):
        model, resources, services, users = data.draw(models())
        horizon = data.draw(st.sampled_from([5.0, 40.0, 200.0]))
        faults = data.draw(timelines(resources, services, horizon))
        seed = data.draw(st.integers(0, 2**32 - 1))
        assert_matches_reference(model, users, horizon, seed, faults)


# -- the Travel Agency grid ---------------------------------------------------

@pytest.fixture(scope="module")
def ta_model():
    return TravelAgencyModel(architecture="redundant").hierarchical_model


class TestTravelAgencyGrid:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    @pytest.mark.parametrize("user_class", [CLASS_A, CLASS_B], ids=["A", "B"])
    @pytest.mark.parametrize(
        "scenario", ["null", "lan-host", "net-outage", "web-degraded"]
    )
    def test_campaign_replication_matches_reference(
        self, ta_model, scenario, user_class, seed
    ):
        horizon = 800.0
        faults = fault_scenario_factories()[scenario](ta_model).compile(
            ta_model, horizon, np.random.default_rng(seed + 1)
        )
        fields, _, calls = assert_matches_reference(
            ta_model, user_class, horizon, seed, faults
        )
        assert int(fields[FIELDS.index("fault_events_applied")]) == sum(
            call[0] == "fault" for call in calls
        )


# -- kept contracts -----------------------------------------------------------

def two_host_model():
    model = HierarchicalModel()
    for name in ("h1", "h2"):
        model.add_resource(name, TwoStateAvailability(0.5, 1.0))
    model.add_service("web", Parallel(Component("h1"), Component("h2")))
    model.add_function("home", services=["web"])
    users = UserClass.from_probabilities("all", {frozenset({"home"}): 1.0})
    return model, users


FAULTS = [
    FaultEvent(time=0.0, force_down=frozenset({"h1"})),
    FaultEvent(time=3.0, service_factors={"web": 0.7}),
    FaultEvent(time=6.0, release=frozenset({"h1"})),
]


class TestKeptContracts:
    def test_max_transitions_message_names_count_time_and_horizon(self):
        model, users = two_host_model()
        with pytest.raises(SimulationError) as raised:
            simulate_user_availability_over_time(
                model, users, 1000.0, np.random.default_rng(3),
                max_transitions=10,
            )
        message = str(raised.value)
        assert message.startswith(
            "exceeded max_transitions=10 after 11 resource transitions at "
            "sim-time "
        )
        assert "of horizon 1000;" in message
        fields, _, _ = assert_matches_reference(
            model, users, 1000.0, 3, max_transitions=10
        )
        assert fields == ("SimulationError", message)

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 40])
    def test_event_budget_stops_after_the_same_polls(self, budget):
        model, users = two_host_model()
        polls = []
        for simulate in (
            simulate_user_availability_over_time,
            reference.simulate_user_availability_over_time,
        ):
            token = CancellationToken(max_events=budget)
            with pytest.raises(DeadlineExceededError):
                simulate(
                    model, users, 1000.0, np.random.default_rng(1),
                    faults=FAULTS, cancellation=token,
                )
            polls.append(token.events)
        assert polls == [budget + 1, budget + 1]

    def test_one_poll_per_loop_step_fault_steps_included(self):
        model, users = two_host_model()
        tokens = [CancellationToken(), CancellationToken()]
        results = [
            simulate(
                model, users, 50.0, np.random.default_rng(1),
                faults=FAULTS, cancellation=token,
            )
            for simulate, token in zip(
                (simulate_user_availability_over_time,
                 reference.simulate_user_availability_over_time),
                tokens,
            )
        ]
        assert results[0] == results[1]
        steps = results[0].resource_transitions + results[0].fault_events_applied
        assert [t.events for t in tokens] == [steps + 1, steps + 1]

    @pytest.mark.parametrize("faults", [
        [FaultEvent(time=1.0, release=frozenset({"h2"}))],
        [
            FaultEvent(time=1.0, force_down=frozenset({"h1"})),
            FaultEvent(time=2.0, release=frozenset({"h1"})),
            FaultEvent(time=4.0, release=frozenset({"h1"})),
        ],
    ])
    def test_releasing_an_unforced_resource_raises(self, faults):
        model, users = two_host_model()
        with pytest.raises(SimulationError, match="which is not forced down"):
            simulate_user_availability_over_time(
                model, users, 10.0, np.random.default_rng(0), faults=faults
            )
        assert_matches_reference(model, users, 10.0, 0, faults)
