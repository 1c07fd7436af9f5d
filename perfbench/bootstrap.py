"""Traced entry point for ``repro`` processes the benchmark starts.

    python perfbench/bootstrap.py SPANS.json <repro arguments...>

Behaves like ``python -m repro <arguments...>`` (same stdout, stderr and
exit code), with the layer wrappers of ``spans.py`` installed before the
program's first import and an ambient ``repro.obs.PerfRecorder`` active,
so engine batches, including pool-worker records, are attributed.  When
the program returns, the spans, counters and batch reports go to
SPANS.json.  ``repro serve`` returns on SIGTERM, so a traced server
writes its spans when it is stopped.
"""

import sys
import time

from spans import SpanRecorder, Tracer


def _batch(report, end):
    return {
        "end": end,
        "phase": report.phase,
        "elapsed": report.elapsed,
        "capacity": report.capacity,
        "compute": report.compute,
        "ipc": report.ipc,
        "idle": report.idle,
    }


def main(argv):
    out, args = argv[0], argv[1:]
    recorder = SpanRecorder()
    with recorder.span("bench.install"):
        Tracer(recorder).install()
    with recorder.span("cli.import"):
        import repro.cli
    from repro.obs import Instrumentation, PerfRecorder, activate

    perf = PerfRecorder()
    batches = []
    perf.add_report = lambda report: batches.append(
        _batch(report, time.perf_counter())
    )
    activate(Instrumentation(perf=perf))
    code = 1
    try:
        with recorder.span("cli.main"):
            code = repro.cli.main(args)
    finally:
        recorder.dump(out, batches=batches)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
