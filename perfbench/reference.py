"""Reference tasks, timed next to the workload to calibrate its times.

The machines this benchmark runs on are shared: from one minute to the
next the same interpreter-bound work takes 20-40% more or less wall
time, and whole runs drift by as much.  So end-to-end times are
reported calibrated: raw wall time times ``NOMINAL / reference``, where
*reference* is a fixed task's wall time measured just before and just
after the operation.  A calibrated time reads as "wall time on a
machine where the reference takes NOMINAL seconds"; raw wall times are
printed in the run's table.

Two references, matched to how the workload runs:

* :func:`sample`, an in-process task for work done in a warm process
  (dict scans, set tests, small float sums, one NumPy draw per step,
  like the program's hot loops); :func:`sample_once` is one run of it,
  for operations short enough to sample around each one;
* :func:`spawn_sample`, a fresh interpreter that imports NumPy, for
  work done by fresh processes (spawn, imports, a cold core).

Neither uses program code, so no change to the program moves them.
Do not edit them: that changes every calibrated number.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

_NAMES = [f"r{i}" for i in range(25)]
_GROUPS = [
    (1.0 / 9, frozenset(_NAMES[i:i + 4])) for i in range(0, 25, 3)
]


def task() -> float:
    """The in-process reference work: a small two-state event loop."""
    rng = np.random.default_rng(20031)
    rates = {n: (0.01 * (1 + i % 5), 1.0 + i % 3) for i, n in enumerate(_NAMES)}
    up = dict.fromkeys(_NAMES, True)
    due = {n: rng.exponential(1.0 / rates[n][0]) for n in _NAMES}
    total = 0.0
    for _ in range(1000):
        name = min(due, key=due.get)
        up[name] = not up[name]
        alive = {n for n in _NAMES if up[n]}
        total += sum(w for w, group in _GROUPS if group <= alive)
        due[name] += rng.exponential(1.0 / rates[name][0 if up[name] else 1])
    return total


def sample(runs: int = 5) -> float:
    """Wall seconds of the in-process task (median of *runs*)."""
    times = []
    for _ in range(runs):
        started = time.perf_counter()
        task()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def sample_once() -> float:
    """Wall seconds of one run of the in-process task."""
    return sample(runs=1)


def spawn_sample() -> float:
    """Spawn-to-exit wall seconds of a fresh interpreter importing NumPy."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


#: Reference seconds of :func:`sample` and :func:`spawn_sample`.
NOMINAL = {sample: 0.010, sample_once: 0.010, spawn_sample: 0.150}


class Calibrator:
    """Reference samples interleaved with a sequence of operations.

    Call :meth:`calibrate` right after each operation with its raw wall
    time; the reference it is calibrated by is the mean of the samples
    taken just before and just after it.
    """

    def __init__(self, sampler=sample):
        self._sampler = sampler
        self._before = sampler()

    def calibrate(self, seconds: float) -> float:
        after = self._sampler()
        reference = (self._before + after) / 2
        self._before = after
        return seconds * NOMINAL[self._sampler] / reference
