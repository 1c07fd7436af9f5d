"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload campaign|cli-cold|server-mix \\
        --seed N --seconds S --trace 0|1

Run it from a checkout.  The program is imported from the checkout's
``src/`` and is never changed; the workload inputs are made from
``--seed`` alone.  ``BENCHMARK.json`` declares the three workloads.

``--trace 0`` measures the workload for ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` measures it
untraced for half the time, then runs a fixed amount of the same work
with the layer wrappers of ``spans.py`` installed, and reports the
per-layer metrics, with ``trace.overhead`` the traced median operation
time over the untraced one.

Every operation's output is checked; a failed operation counts in
``failed`` and makes ``correct`` false.  Before the result, a table on
stdout names the workload's own figures (``campaign_s``, ``job_p95_ms``,
``failed_ratio``, ...); the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from common import ROOT, SRC, median

WORKLOADS = ("campaign", "cli-cold", "server-mix")


def _workload(name):
    if name == "campaign":
        from workload_campaign import Campaign
        return Campaign
    if name == "cli-cold":
        from workload_cli import CliCold
        return CliCold
    from workload_server import ServerMix
    return ServerMix


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end(phase, setup_s):
    return {
        "op_p50_ms": (1000.0 * median(phase.calibrated), "ms"),
        "setup_s": (setup_s, "s"),
    }


def _emit(spec, values):
    """``values`` restricted to, and completed over, the declared metrics."""
    unknown = set(values) - {m["name"] for m in spec}
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for metric in spec:
        value, unit = values.get(metric["name"], (0, metric["unit"]))
        if unit != metric["unit"]:
            raise ValueError(f"{metric['name']}: unit {unit} != {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": unit}
    return out


def run(args):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    workload = _workload(args.workload)(args.seed, workdir)
    try:
        setup_s = workload.setup()
        if args.trace:
            plain = workload.measure(args.seconds / 2)
            traced = workload.measure_traced(args.seconds / 2)
            phases = [plain, traced]
            metrics = workload.layers(plain, traced)
            untraced = median(plain.calibrated)
            metrics["trace.overhead"] = (
                median(traced.calibrated) / untraced if untraced else 0.0,
                "ratio",
            )
            spec = declared["per_layer"]
        else:
            plain = workload.measure(args.seconds)
            phases = [plain]
            metrics = end_to_end(plain, setup_s)
            spec = declared["end_to_end"]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    figures = dict(end_to_end(plain, setup_s))
    figures["op_mean_ms"] = (
        1000.0 * sum(plain.calibrated) / max(len(plain.calibrated), 1), "ms"
    )
    figures["wall_op_p50_ms"] = (1000.0 * median(plain.latencies), "ms")
    figures.update(workload.figures(plain))
    figures["failed_ratio"] = (failed / attempted, "ratio")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{plain.attempted} operations untraced")
    for name, (value, unit) in figures.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _emit(spec, metrics),
    }


def main(argv=None):
    args = parse_args(argv)
    # A terminated run still unwinds, so the servers it started stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'repro'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
