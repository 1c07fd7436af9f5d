"""Fault scenarios: scripted and stochastic fault-injection timelines.

A :class:`FaultScenario` compiles — given the model under test, the
campaign horizon and a random generator — into the flat
:class:`~repro.sim.endtoend.FaultEvent` timeline the end-to-end
simulator consumes.  Scripted scenarios (:class:`ScheduledOutage`,
:class:`ServiceDegradation`) produce the same events every run;
stochastic scenarios (:class:`RecurrentOutage`,
:class:`RecurrentDegradation`) draw episode times and durations from the
generator, so a campaign replication's faults are reproducible from its
seed.

Scenario algebra: scenarios compose with ``+`` (a
:class:`CompositeScenario` concatenates the compiled timelines; the
simulator orders events by time), which is how "LAN down *and* both
application hosts down" correlated-failure studies are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

import numpy as np

from .._validation import check_non_negative, check_positive, check_probability
from ..core import HierarchicalModel
from ..errors import ValidationError
from ..sim.endtoend import FaultEvent

__all__ = [
    "FaultScenario",
    "NullScenario",
    "ScheduledOutage",
    "RecurrentOutage",
    "ServiceDegradation",
    "RecurrentDegradation",
    "CompositeScenario",
]

#: Most events one stochastic scenario compiles into a timeline.  The
#: ``lan-host`` campaign reaches it near a 5e7 h horizon, where the
#: end-to-end loop's default transition budget is exhausted anyway, so a
#: longer timeline is an input error, not a workload.
MAX_FAULT_EVENTS = 1_000_000


def _check_timeline(
    events: int, expected_episodes: float, horizon: float
) -> None:
    """Refuse a timeline that would outgrow :data:`MAX_FAULT_EVENTS`.

    Called before each episode is added (two events per episode).  An
    expected episode count above ``MAX_FAULT_EVENTS`` — twice the
    episodes the cap admits — fails on the first episode: the realised
    count cannot stay under the cap, and drawing towards it would take
    seconds.
    """
    if events >= MAX_FAULT_EVENTS or expected_episodes > MAX_FAULT_EVENTS:
        raise ValidationError(
            f"horizon {horizon:g} compiles more than {MAX_FAULT_EVENTS:,} "
            "fault events; use a shorter horizon"
        )


class FaultScenario:
    """Base class: anything that compiles to a ``FaultEvent`` timeline."""

    #: Display name used by campaign reports.
    name: str = "scenario"

    def compile(
        self,
        model: HierarchicalModel,
        horizon: float,
        rng: np.random.Generator,
    ) -> List[FaultEvent]:
        """The event timeline of one campaign replication."""
        raise NotImplementedError

    def __add__(self, other: "FaultScenario") -> "CompositeScenario":
        mine = self.parts if isinstance(self, CompositeScenario) else (self,)
        theirs = (
            other.parts if isinstance(other, CompositeScenario) else (other,)
        )
        return CompositeScenario(parts=mine + theirs)


@dataclass(frozen=True)
class NullScenario(FaultScenario):
    """No injected faults: resources fail only at the model's own rates.

    The null campaign is the engine's calibration check — its simulated
    availability must agree with the analytic eq.-(10) value within
    Monte-Carlo error, because nothing violates the model assumptions.
    """

    name: str = "null"

    def compile(self, model, horizon, rng) -> List[FaultEvent]:
        return []


@dataclass(frozen=True)
class ScheduledOutage(FaultScenario):
    """A scripted outage: the given resources go down together at *start*.

    Taking several resources down in one event is precisely the
    correlated failure (LAN segment plus hosts sharing its power feed)
    that the analytic independence assumption excludes.
    """

    resources: FrozenSet[str]
    start: float
    duration: float
    name: str = "scheduled-outage"

    def __post_init__(self):
        object.__setattr__(self, "resources", frozenset(self.resources))
        if not self.resources:
            raise ValidationError("ScheduledOutage needs at least one resource")
        check_non_negative(self.start, "start")
        check_positive(self.duration, "duration")

    def compile(self, model, horizon, rng) -> List[FaultEvent]:
        if self.start >= horizon:
            return []
        return [
            FaultEvent(time=self.start, force_down=self.resources),
            FaultEvent(time=self.start + self.duration, release=self.resources),
        ]


@dataclass(frozen=True)
class RecurrentOutage(FaultScenario):
    """Stochastic correlated outages arriving as a Poisson process.

    Episodes hit all *resources* simultaneously; inter-episode times are
    exponential with rate *episode_rate*, durations exponential with
    mean *mean_duration* (both in the availability-model time unit).
    Episodes overlap-safely: forced-down windows stack and unwind in
    order.
    """

    resources: FrozenSet[str]
    episode_rate: float
    mean_duration: float
    name: str = "recurrent-outage"

    def __post_init__(self):
        object.__setattr__(self, "resources", frozenset(self.resources))
        if not self.resources:
            raise ValidationError("RecurrentOutage needs at least one resource")
        check_positive(self.episode_rate, "episode_rate")
        check_positive(self.mean_duration, "mean_duration")

    def compile(self, model, horizon, rng) -> List[FaultEvent]:
        expected = self.episode_rate * horizon
        events: List[FaultEvent] = []
        clock = rng.exponential(1.0 / self.episode_rate)
        while clock < horizon:
            _check_timeline(len(events), expected, horizon)
            duration = rng.exponential(self.mean_duration)
            events.append(FaultEvent(time=clock, force_down=self.resources))
            events.append(
                FaultEvent(time=clock + duration, release=self.resources)
            )
            clock += rng.exponential(1.0 / self.episode_rate)
        return events


@dataclass(frozen=True)
class ServiceDegradation(FaultScenario):
    """A scripted capacity-degradation window for one service.

    While active, the service still counts as *up* but only a fraction
    *factor* of the sessions needing it succeed — the coverage-mode /
    buffer-shrink style of fault, where a web farm limps along serving a
    reduced request rate.  Use
    :func:`repro.resilience.degradation.degraded_service_factor` to
    derive *factor* from a degraded :class:`WebServiceModel`
    configuration.
    """

    service: str
    factor: float
    start: float
    duration: float
    name: str = "service-degradation"

    def __post_init__(self):
        check_probability(self.factor, "factor")
        check_non_negative(self.start, "start")
        check_positive(self.duration, "duration")

    def compile(self, model, horizon, rng) -> List[FaultEvent]:
        if self.start >= horizon:
            return []
        return [
            FaultEvent(
                time=self.start, service_factors={self.service: self.factor}
            ),
            FaultEvent(
                time=self.start + self.duration,
                service_factors={self.service: 1.0},
            ),
        ]


@dataclass(frozen=True)
class RecurrentDegradation(FaultScenario):
    """Stochastic transient degradations of one service.

    Latency spikes / buffer-shrink faults: episodes multiply the
    service's conditional success fraction by *factor* for an
    exponential duration; gaps between episodes are exponential with
    rate *episode_rate*.  Episodes are generated end-to-start (an
    alternating renewal process), so degradation windows never overlap —
    service factors are absolute and would not stack.
    """

    service: str
    factor: float
    episode_rate: float
    mean_duration: float
    name: str = "recurrent-degradation"

    def __post_init__(self):
        check_probability(self.factor, "factor")
        check_positive(self.episode_rate, "episode_rate")
        check_positive(self.mean_duration, "mean_duration")

    def compile(self, model, horizon, rng) -> List[FaultEvent]:
        expected = horizon / (1.0 / self.episode_rate + self.mean_duration)
        events: List[FaultEvent] = []
        clock = rng.exponential(1.0 / self.episode_rate)
        while clock < horizon:
            _check_timeline(len(events), expected, horizon)
            duration = rng.exponential(self.mean_duration)
            events.append(
                FaultEvent(
                    time=clock, service_factors={self.service: self.factor}
                )
            )
            events.append(
                FaultEvent(
                    time=clock + duration,
                    service_factors={self.service: 1.0},
                )
            )
            clock += duration + rng.exponential(1.0 / self.episode_rate)
        return events


@dataclass(frozen=True)
class CompositeScenario(FaultScenario):
    """Several scenarios injected together (``a + b`` builds one)."""

    parts: Tuple[FaultScenario, ...] = ()
    name: str = "composite"

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValidationError("CompositeScenario needs at least one part")

    def compile(self, model, horizon, rng) -> List[FaultEvent]:
        events: List[FaultEvent] = []
        for part in self.parts:
            events.extend(part.compile(model, horizon, rng))
        return events
