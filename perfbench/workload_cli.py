"""Workload ``cli-cold``: cold ``python -m repro`` processes.

One operation is a pair of processes, each timed from spawn to exit:
``sweep --figure 12`` (about 0.01 s of analytic work inside a process
that pays the whole import) and ``inject --scenario lan-host --workers 2``
at a small horizon, with its seed drawn from the workload seed.  Import,
argument parsing, process-pool start and stop, and rendering dominate,
and the campaign loop is a small share.

Every stdout must equal, byte for byte, the in-process ``repro.workloads``
rendering for the same arguments, computed before timing starts, and
every exit code must be 0.
"""

from __future__ import annotations

import itertools
import random
import sys
import time

from common import (
    HERE, Phase, layer_metrics, load_dump, median, setup_probes, timed_run,
)
from reference import Calibrator, spawn_sample

SWEEP = ("sweep", "--figure", "12")
HORIZON = 1000.0
REPLICATIONS = 6
#: Distinct inject seeds a run cycles through (each needs its expected
#: output computed in set-up).
INJECT_SEEDS = 3
#: Operations (process pairs) of the traced phase.
TRACED_PAIRS = 2


class CliCold:
    def __init__(self, seed: int, workdir):
        draw = random.Random(seed)
        self.seeds = [draw.randrange(0, 2**31) for _ in range(INJECT_SEEDS)]
        self.workdir = workdir

    def setup(self) -> float:
        setup_s = setup_probes()
        import repro.workloads as w

        grid = w.run_fig_sweep("12", 100.0, 10)
        self.commands = [(SWEEP, w.fig_sweep_text("12", 100.0, 10, grid))]
        for seed in self.seeds:
            results = w.run_fault_campaigns(
                "lan-host", horizon=HORIZON, replications=REPLICATIONS,
                seed=seed, workers=1,
            )
            text, _ = w.campaign_text(
                results, "lan-host", HORIZON, REPLICATIONS, seed
            )
            argv = ("inject", "--scenario", "lan-host", "--workers", "2",
                    "--horizon", f"{HORIZON:g}", "--seed", str(seed))
            self.commands.append((argv, text))
        self.commands = [
            (argv, (text + "\n").encode())
            for argv, text in self.commands
        ]
        # Untimed warm-up: byte-code caches and the page cache are warm
        # for every timed process, as they are for a user's second run.
        for argv, _ in self.commands[:2]:
            timed_run([sys.executable, "-m", "repro", *argv])
        return setup_s

    def _process(self, argv, expected, traced, phase, calibrator):
        """(output correct, raw seconds, calibrated seconds) of one process."""
        if traced:
            out = self.workdir / f"spans-{phase.attempted}-{argv[0]}.json"
            command = [sys.executable, str(HERE / "bootstrap.py"), str(out)]
        else:
            command = [sys.executable, "-m", "repro"]
        elapsed, proc = timed_run(command + list(argv))
        if traced and out.exists():
            phase.traces.append(load_dump(out, wall=elapsed))
        ok = proc.returncode == 0 and proc.stdout == expected
        return ok, elapsed, calibrator.calibrate(elapsed)

    def _pair(self, phase, calibrator, k: int, traced: bool) -> None:
        sweep, inject = [
            self._process(*command, traced, phase, calibrator)
            for command in (self.commands[0],
                            self.commands[1 + k % INJECT_SEEDS])
        ]
        ok = sweep[0] and inject[0]
        phase.op(sweep[1] + inject[1], ok, sweep[2] + inject[2])
        if ok:
            phase.sample("sweep", sweep[2])
            phase.sample("inject", inject[2])

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        calibrator = Calibrator(spawn_sample)
        deadline = time.perf_counter() + seconds
        for k in itertools.count():
            if k and time.perf_counter() >= deadline:
                break
            self._pair(phase, calibrator, k, traced=False)
        return phase

    def measure_traced(self, seconds: float) -> Phase:
        phase = Phase()
        calibrator = Calibrator(spawn_sample)
        for k in range(TRACED_PAIRS):
            self._pair(phase, calibrator, k, traced=True)
        return phase

    def close(self) -> None:
        pass

    @staticmethod
    def figures(phase: Phase) -> dict:
        return {
            "cli_sweep_s": (median(phase.samples.get("sweep", [])), "s"),
            "cli_inject_s": (median(phase.samples.get("inject", [])), "s"),
        }

    @staticmethod
    def layers(plain: Phase, traced: Phase) -> dict:
        return layer_metrics(traced)
