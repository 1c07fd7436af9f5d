"""End-to-end campaign loop throughput — the indexed-loop speed guard.

Every fault-injection campaign (``repro inject``, ``repro resume``,
``repro slo``) spends nearly all of its time in
:func:`repro.sim.endtoend.simulate_user_availability_over_time`.  That
loop keeps an event heap, a down-resource counter and memoized service
and availability tables; the frozen copy in
``tests/sim/_endtoend_reference.py`` is the loop before that rewrite,
scanning every resource and every weighted service set per transition.

One round simulates the Travel Agency's ``lan-host`` and
``web-degraded`` campaign timelines (both user classes, fixed seeds)
through both loops, interleaved.  The guarded statistic is the minimum
paired per-round indexed/reference ratio minus one
(:func:`~repro.obs.regression.paired_ratio_overhead`), asserted against
a *negative* threshold: the indexed loop must stay at least twice as
fast (``endtoend_overhead <= -0.5``), and ``repro diff`` gates the
committed ``BENCH_endtoend.json`` the same way.

Both loops must also agree bit for bit on every run — result fields and
the generator state afterwards — a speed win at a different random
stream is no win.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import emit
from repro.obs.regression import time_variants
from repro.reporting import format_table
from repro.sim.endtoend import simulate_user_availability_over_time
from repro.ta import CLASS_A, CLASS_B, TravelAgencyModel
from repro.workloads import fault_scenario_factories
from tests.sim import _endtoend_reference as reference

REPEATS = 5
HORIZON = 1000.0
SCENARIOS = ("lan-host", "web-degraded")
SEEDS = (11, 12)
GUARD_THRESHOLD = -0.5  # the indexed loop must stay >= 2x faster

BASELINE = Path(__file__).parent / "BENCH_endtoend.json"


def _cases(model):
    """(user class, seed, fault timeline) of every run in one round."""
    factories = fault_scenario_factories()
    cases = []
    for name in SCENARIOS:
        scenario = factories[name](model)
        for user_class in (CLASS_A, CLASS_B):
            for seed in SEEDS:
                faults = scenario.compile(
                    model, HORIZON, np.random.default_rng(seed)
                )
                cases.append((user_class, seed, faults))
    return cases


def _round(simulate, model, cases):
    """One timed round; records each run's result and generator state."""
    def run():
        outcomes = []
        started = time.perf_counter()
        for user_class, seed, faults in cases:
            rng = np.random.default_rng(seed)
            result = simulate(model, user_class, HORIZON, rng, faults=faults)
            outcomes.append((result, rng))
        elapsed = time.perf_counter() - started
        run.outcomes = [
            (repr(result), rng.bit_generator.state) for result, rng in outcomes
        ]
        run.transitions = sum(result.resource_transitions for result, _ in outcomes)
        return elapsed

    return run


def test_indexed_loop_outpaces_reference(benchmark):
    model = TravelAgencyModel(architecture="redundant").hierarchical_model
    cases = _cases(model)
    run_reference = _round(
        reference.simulate_user_availability_over_time, model, cases
    )
    run_indexed = _round(simulate_user_availability_over_time, model, cases)

    timing = benchmark.pedantic(
        lambda: time_variants(
            [("reference", run_reference), ("indexed", run_indexed)],
            repeats=REPEATS,
        ),
        rounds=1,
        warmup_rounds=1,
    )

    # Correctness first: bit-equal results and generator post-states.
    assert run_indexed.outcomes == run_reference.outcomes
    transitions = run_indexed.transitions

    best = timing.best
    overhead = timing.overhead["indexed"]
    record = {
        "benchmark": "endtoend-indexed-loop",
        "runs_per_round": len(cases),
        "transitions_per_round": transitions,
        "horizon": HORIZON,
        "repeats": REPEATS,
        "seconds": {
            "reference": round(best["reference"], 6),
            "indexed": round(best["indexed"], 6),
        },
        "transitions_per_s": {
            "reference": round(transitions / best["reference"]),
            "indexed": round(transitions / best["indexed"]),
        },
        # Guarded: minimum paired indexed/reference ratio minus one.
        # Negative threshold = a required speedup; breaching -0.5 means
        # the indexed loop fell under 2x faster.
        "endtoend_overhead": round(overhead, 4),
        "endtoend_overhead_of_best": round(
            timing.overhead_of_best("indexed", "reference"), 4
        ),
        "guard_threshold": GUARD_THRESHOLD,
        "guarded": ["endtoend_overhead"],
    }
    out_dir = Path(__file__).parent / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_endtoend.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    emit(format_table(
        ["loop", "transitions/s", "vs reference"],
        [
            ["reference", f"{record['transitions_per_s']['reference']:,}",
             "reference"],
            ["indexed", f"{record['transitions_per_s']['indexed']:,}",
             f"{record['endtoend_overhead_of_best']:+.1%}"],
        ],
        title=(
            f"End-to-end loop on the Travel Agency — {len(cases)} runs of "
            f"{HORIZON:g} h ({transitions} transitions), best of {REPEATS}"
        ),
    ))

    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        assert baseline["benchmark"] == record["benchmark"]
        assert baseline["guard_threshold"] == GUARD_THRESHOLD

    assert overhead <= GUARD_THRESHOLD, (
        f"the indexed loop is only {-overhead:.0%} faster than the "
        f"reference; campaigns require at least {-GUARD_THRESHOLD:.0%}"
    )
