"""Tests for the fault-scenario library."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.resilience import (
    CompositeScenario,
    NullScenario,
    RecurrentDegradation,
    RecurrentOutage,
    ScheduledOutage,
    ServiceDegradation,
)
from repro.resilience import faults
from repro.ta import TravelAgencyModel

MODEL = TravelAgencyModel().hierarchical_model
HORIZON = 1000.0


def compiled(scenario, seed=1):
    return scenario.compile(MODEL, HORIZON, np.random.default_rng(seed))


class TestNullScenario:
    def test_compiles_to_nothing(self):
        assert compiled(NullScenario()) == []


class TestScheduledOutage:
    def test_produces_force_and_release_pair(self):
        scenario = ScheduledOutage(
            frozenset({"lan-segment"}), start=100.0, duration=25.0
        )
        events = compiled(scenario)
        assert len(events) == 2
        assert events[0].time == 100.0
        assert events[0].force_down == frozenset({"lan-segment"})
        assert events[1].time == 125.0
        assert events[1].release == frozenset({"lan-segment"})

    def test_outage_past_horizon_is_dropped(self):
        scenario = ScheduledOutage(
            frozenset({"lan-segment"}), start=2000.0, duration=10.0
        )
        assert compiled(scenario) == []

    def test_rejects_empty_resource_set(self):
        with pytest.raises(ValidationError):
            ScheduledOutage(frozenset(), start=0.0, duration=1.0)

    def test_rejects_zero_duration(self):
        with pytest.raises(ValidationError):
            ScheduledOutage(frozenset({"x"}), start=0.0, duration=0.0)


class TestRecurrentOutage:
    def test_events_pair_up_and_stay_reproducible(self):
        scenario = RecurrentOutage(
            frozenset({"lan-segment", "app-host-1"}),
            episode_rate=0.05,
            mean_duration=5.0,
        )
        events_a = compiled(scenario, seed=7)
        events_b = compiled(scenario, seed=7)
        assert events_a == events_b
        assert len(events_a) % 2 == 0
        assert len(events_a) > 0
        forces = events_a[0::2]
        releases = events_a[1::2]
        for force, release in zip(forces, releases):
            assert force.force_down == scenario.resources
            assert release.release == scenario.resources
            assert release.time > force.time

    def test_different_seeds_differ(self):
        scenario = RecurrentOutage(
            frozenset({"lan-segment"}), episode_rate=0.05, mean_duration=5.0
        )
        assert compiled(scenario, seed=1) != compiled(scenario, seed=2)

    def test_episode_onsets_stay_inside_horizon(self):
        scenario = RecurrentOutage(
            frozenset({"lan-segment"}), episode_rate=0.5, mean_duration=1.0
        )
        for event in compiled(scenario)[0::2]:
            assert event.time < HORIZON


class TestServiceDegradation:
    def test_sets_and_restores_the_factor(self):
        scenario = ServiceDegradation(
            "web", factor=0.7, start=10.0, duration=5.0
        )
        events = compiled(scenario)
        assert events[0].service_factors == {"web": 0.7}
        assert events[1].service_factors == {"web": 1.0}
        assert events[1].time == 15.0

    def test_rejects_factor_above_one(self):
        with pytest.raises(ValidationError):
            ServiceDegradation("web", factor=1.2, start=0.0, duration=1.0)


class TestRecurrentDegradation:
    def test_windows_never_overlap(self):
        scenario = RecurrentDegradation(
            "web", factor=0.5, episode_rate=0.2, mean_duration=10.0
        )
        events = compiled(scenario, seed=3)
        times = [event.time for event in events]
        assert times == sorted(times)
        # Alternating set/restore: factors toggle 0.5, 1.0, 0.5, ...
        factors = [event.service_factors["web"] for event in events]
        assert factors[0::2] == [0.5] * len(factors[0::2])
        assert factors[1::2] == [1.0] * len(factors[1::2])


RECURRENT = [
    RecurrentOutage(
        frozenset({"lan-segment"}), episode_rate=1.0, mean_duration=0.1
    ),
    RecurrentDegradation("web", factor=0.5, episode_rate=1.0,
                         mean_duration=0.1),
]


class TestTimelineCap:
    @pytest.mark.parametrize("scenario", RECURRENT, ids=lambda s: s.name)
    @pytest.mark.parametrize("horizon", [1e300, float("inf")])
    def test_absurd_horizon_is_refused_on_the_first_episode(
        self, scenario, horizon
    ):
        rng = np.random.default_rng(1)
        with pytest.raises(ValidationError) as info:
            scenario.compile(MODEL, horizon, rng)
        message = str(info.value)
        assert f"horizon {horizon:g}" in message
        assert "1,000,000 fault events" in message
        assert "\n" not in message

    @pytest.mark.parametrize("scenario", RECURRENT, ids=lambda s: s.name)
    def test_realised_timeline_stops_at_the_cap(self, scenario, monkeypatch):
        # About 10 expected episodes do not trip the up-front test
        # against a cap of 10 events; the realised timeline (about 20
        # events) trips the running count.
        monkeypatch.setattr(faults, "MAX_FAULT_EVENTS", 10)
        with pytest.raises(ValidationError, match="more than 10 fault"):
            scenario.compile(MODEL, 10.0, np.random.default_rng(1))

    @pytest.mark.parametrize("scenario", RECURRENT, ids=lambda s: s.name)
    def test_timeline_at_the_cap_compiles(self, scenario, monkeypatch):
        events = scenario.compile(MODEL, 10.0, np.random.default_rng(1))
        monkeypatch.setattr(faults, "MAX_FAULT_EVENTS", len(events))
        again = scenario.compile(MODEL, 10.0, np.random.default_rng(1))
        assert again == events


class TestComposition:
    def test_plus_concatenates_timelines(self):
        a = ScheduledOutage(frozenset({"lan-segment"}), start=10.0,
                            duration=5.0)
        b = ServiceDegradation("web", factor=0.9, start=50.0, duration=5.0)
        combined = a + b
        assert isinstance(combined, CompositeScenario)
        events = compiled(combined)
        assert len(events) == 4

    def test_plus_flattens_nested_composites(self):
        a = ScheduledOutage(frozenset({"a"}), start=1.0, duration=1.0)
        b = ScheduledOutage(frozenset({"b"}), start=2.0, duration=1.0)
        c = ScheduledOutage(frozenset({"c"}), start=3.0, duration=1.0)
        combined = (a + b) + c
        assert len(combined.parts) == 3

    def test_empty_composite_rejected(self):
        with pytest.raises(ValidationError):
            CompositeScenario(parts=())
