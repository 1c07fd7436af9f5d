"""Cold-start cost of the ``repro`` CLI — the import-surface guard.

A ``repro sweep`` or ``repro inject`` is a short process, so what it
imports is most of what it costs.  scipy and the fault-injection package
are imported by the functions that call them; a command that never calls
them never pays for them.  This bench turns that rule into a number.

Three processes are spawned and timed from spawn to exit, interleaved
round by round (:func:`~repro.obs.regression.time_variants`):

* **numpy** — ``python -c "import numpy"``, the baseline: the cheapest
  process that can do anything numeric;
* **import** — ``python -c "import repro.cli"``;
* **sweep** — ``python -m repro sweep --figure 12``.

The guarded statistic is ``import_overhead``, the minimum paired
per-round ratio of the ``repro.cli`` import to the numpy import, minus
one; ``repro diff`` gates the committed ``BENCH_cli.json`` against
``GUARD_THRESHOLD``.  On a 2-core container (Python 3.11) it measured
3.5–3.7 while scipy was imported at module level, and 0.1 (warm
bytecode) to 0.7 (no bytecode cache) after.  ``sweep_overhead`` (the
sweep process against the same baseline) is reported, never asserted.

Python only writes bytecode caches on first import, so a first round on
a fresh checkout compiles every module.  A warm-up round runs first, and
the record states whether every ``repro`` module the sweep loads had an
up-to-date cache (``bytecode_warm``): a ``false`` there means the
timings include compilation (read-only tree or
``PYTHONDONTWRITEBYTECODE``).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import emit
from repro.obs.regression import time_variants
from repro.reporting import format_table

REPEATS = 7
GUARD_THRESHOLD = 2.0  # `import repro.cli` costs at most 3x `import numpy`

BASELINE = Path(__file__).parent / "BENCH_cli.json"
SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "numpy": ["-c", "import numpy"],
    "import": ["-c", "import repro.cli"],
    "sweep": ["-m", "repro", "sweep", "--figure", "12"],
}

# Runs the sweep without writing bytecode, then reports whether every
# repro module it loaded came with a cache no older than its source.
_CACHE_PROBE = """
import contextlib, io, os, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["sweep", "--figure", "12"])
modules = [m for n, m in list(sys.modules.items())
           if n.partition(".")[0] == "repro" and getattr(m, "__cached__", None)]
print(all(os.path.exists(m.__cached__)
          and os.path.getmtime(m.__cached__) >= os.path.getmtime(m.__file__)
          for m in modules))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn(args):
    """A variant: one spawn-to-exit wall time of ``python *args``."""
    command = [sys.executable, *args]
    env = _env()

    def run():
        started = time.perf_counter()
        subprocess.run(
            command, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return time.perf_counter() - started

    return run


def _bytecode_warm():
    completed = subprocess.run(
        [sys.executable, "-B", "-c", _CACHE_PROBE], env=_env(),
        capture_output=True, text=True, check=True,
    )
    return completed.stdout.split()[-1] == "True"


def test_cli_import_stays_cheap(benchmark):
    timing = benchmark.pedantic(
        lambda: time_variants(
            [(name, _spawn(args)) for name, args in COMMANDS.items()],
            repeats=REPEATS,
        ),
        rounds=1,
        warmup_rounds=1,
    )
    best = timing.best
    overhead = timing.overhead["import"]
    record = {
        "benchmark": "cli-cold-start",
        "repeats": REPEATS,
        "python": ".".join(map(str, sys.version_info[:3])),
        "bytecode_warm": _bytecode_warm(),
        "seconds": {name: round(best[name], 4) for name in COMMANDS},
        # Guarded: minimum paired import/numpy ratio minus one.
        "import_overhead": round(overhead, 4),
        "import_overhead_of_best": round(
            timing.overhead_of_best("import", "numpy"), 4
        ),
        # Reported only: the whole sweep process against the same baseline.
        "sweep_overhead": round(timing.overhead["sweep"], 4),
        "guard_threshold": GUARD_THRESHOLD,
        "guarded": ["import_overhead"],
    }
    out_dir = Path(__file__).parent / "artifacts"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_cli.json").write_text(json.dumps(record, indent=2) + "\n")

    emit(format_table(
        ["process", "best s", "vs import numpy"],
        [
            ["python -c 'import numpy'", f"{best['numpy']:.3f}", "baseline"],
            ["python -c 'import repro.cli'", f"{best['import']:.3f}",
             f"{overhead:+.2f} (guarded)"],
            ["repro sweep --figure 12", f"{best['sweep']:.3f}",
             f"{record['sweep_overhead']:+.2f}"],
        ],
        title=(
            f"Cold CLI processes, spawn to exit — best of {REPEATS} "
            f"interleaved rounds, bytecode "
            f"{'warm' if record['bytecode_warm'] else 'COLD'}"
        ),
    ))

    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        assert baseline["benchmark"] == record["benchmark"]
        assert baseline["guard_threshold"] == GUARD_THRESHOLD

    assert overhead <= GUARD_THRESHOLD, (
        f"`import repro.cli` costs {overhead:+.0%} over `import numpy`; "
        f"the budget is {GUARD_THRESHOLD:+.0%} — is something importing "
        "scipy or repro.resilience at module level again?"
    )
