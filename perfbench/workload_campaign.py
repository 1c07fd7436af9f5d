"""Workload ``campaign``: in-process fault-injection campaigns.

One operation is one iteration: ``repro.workloads.run_fault_campaigns``
with ``workers=1`` and both user classes, for the ``lan-host`` scenario
(forced-down windows) and then the ``web-degraded`` scenario
(degradation factors).  Nearly all of its time is the
``repro.sim.endtoend`` transition loop.  It bypasses the engine, the
server, the journal and import cost, so it is the control workload for
changes to those layers.

After each iteration, outside the timed region, one replication of each
scenario is re-run through the frozen loop in ``oracle.py`` and must
give a bit-equal ``EndToEndResult``; a mismatch fails the iteration.
"""

from __future__ import annotations

import itertools
import random
import time

import oracle
from common import Phase, layer_metrics, median, setup_probes
from reference import Calibrator
from spans import SpanRecorder, Tracer

SCENARIOS = ("lan-host", "web-degraded")
HORIZON = 1000.0
REPLICATIONS = 4
#: Iterations of the traced phase (a fixed amount of work, so its
#: counts repeat exactly for a fixed seed).
TRACED_ITERATIONS = 6


class Campaign:
    def __init__(self, seed: int, workdir):
        self.seed = seed

    def setup(self) -> float:
        setup_s = setup_probes()
        import repro.workloads as workloads
        from repro.ta import TravelAgencyModel

        self.workloads = workloads
        self.model = TravelAgencyModel(architecture="redundant").hierarchical_model
        factories = workloads.fault_scenario_factories()
        self.scenarios = {name: factories[name](self.model) for name in SCENARIOS}
        self.classes = workloads.selected_classes("both")
        return setup_s

    def _iterations(self):
        """(index, campaign seed) of successive iterations, from the seed."""
        seeds = random.Random(self.seed)
        for k in itertools.count():
            yield k, seeds.randrange(1, 2**31)

    def _iteration(self, phase, calibrator, k: int, seed: int) -> None:
        started = time.perf_counter()
        results = {
            name: self.workloads.run_fault_campaigns(
                name, user_class="both", horizon=HORIZON,
                replications=REPLICATIONS, seed=seed, workers=1,
            )
            for name in SCENARIOS
        }
        elapsed = time.perf_counter() - started
        calibrated = calibrator.calibrate(elapsed)
        transitions = sum(
            r.resource_transitions
            for cells in results.values() for cell in cells
            for r in cell.replications
        )
        ok = self._oracle_agrees(results, seed, k)
        phase.op(elapsed, ok, calibrated)
        if ok:
            phase.work += transitions

    def _oracle_agrees(self, results, seed, k) -> bool:
        # Rotate through classes and replications so every stream gets
        # checked over a run.  run_campaigns seeds class c of a
        # one-scenario grid with seed + 10_000 * c.
        c = k % len(self.classes)
        index = (k // len(self.classes)) % REPLICATIONS
        for name in SCENARIOS:
            expected = oracle.replicate(
                self.model, self.classes[c], self.scenarios[name], HORIZON,
                seed + 10_000 * c, index, REPLICATIONS,
            )
            actual = results[name][c].replications[index]
            if oracle.mismatched_fields(expected, actual):
                return False
        return True

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        calibrator = Calibrator()
        deadline = time.perf_counter() + seconds
        for k, seed in self._iterations():
            if k and time.perf_counter() >= deadline:
                break
            self._iteration(phase, calibrator, k, seed)
        return phase

    def measure_traced(self, seconds: float) -> Phase:
        phase = Phase()
        recorder = SpanRecorder()
        calibrator = Calibrator()
        tracer = Tracer(recorder).install()
        try:
            for (k, seed), _ in zip(self._iterations(), range(TRACED_ITERATIONS)):
                self._iteration(phase, calibrator, k, seed)
        finally:
            tracer.uninstall()
        phase.traces.append({"spans": recorder.spans, "batches": [], "wall": 0.0})
        return phase

    def close(self) -> None:
        pass

    @staticmethod
    def figures(phase: Phase) -> dict:
        seconds = sum(phase.calibrated)
        return {
            "campaign_transitions_per_s": (
                phase.work / seconds if seconds else 0.0, "1/s"),
            "campaign_s": (median(phase.calibrated), "s"),
        }

    @staticmethod
    def layers(plain: Phase, traced: Phase) -> dict:
        return layer_metrics(traced)
