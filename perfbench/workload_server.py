"""Workload ``server-mix``: blocks of jobs on ``repro serve``, one at a time.

A ``repro serve --journal`` subprocess with 2 slots is driven by this
process alone, with two threads and two connections: the main thread
submits on one keep-alive connection, and a reader thread follows the
``/v1/events`` SSE stream on the other.

One operation is one block of :data:`BLOCK` jobs: Fig. 11/12 sweeps at
several arrival rates, ``policies``, ``cloud`` and short ``lan-host``
campaigns.  The number of jobs of each kind is fixed; the seed permutes
each block's order and draws the campaign seeds.  The generator submits
one job, waits for its terminal event and submits the next; a block's
time is the sum of its jobs' latencies, each from submit to terminal
event.

Why one at a time, on one CPU: with two jobs running, every submit and
every event waits for the interpreter lock behind a job thread, a wait
that does not scale with CPU speed; and on a shared machine each CPU
changes speed from one second to the next, differently from the others.  So the
server and the generator are held on one CPU, and a reference sample
taken on it before and after each job, while the server is idle,
calibrates that job.

The mix puts many small batches through ``repro.server`` (HTTP,
admission, job threads sharing the interpreter lock with the event
loop), serial ``repro.engine`` dispatch and fsync'd journal writes, next
to the SSE stream: the same engine and solvers the other workloads use,
used differently.  The cloud comparison (Bayesian inference) is the
largest job.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import reference
from common import (
    HERE, Phase, layer_metrics, load_dump, median, percentile, program_env,
)

#: Jobs done correctly within this latency count toward
#: ``job_within_limit_ratio``.
LIMIT_MS = 500.0
#: Seconds to wait for the next terminal event before the block fails.
JOB_TIMEOUT = 30.0
SLOTS = 2
#: The CPU the server and the generator are held on.
CPU = max(os.sched_getaffinity(0))
#: Server starts in set-up; ``setup_s`` is their median.
SETUP_STARTS = 3
#: Blocks of the traced phase (a fixed amount of work, so its counts
#: repeat exactly for a fixed seed).
TRACED_BLOCKS = 3
TERMINAL = ("done", "failed", "cancelled")

ROUTES = {
    "sweep": "/v1/sweeps",
    "policies": "/v1/policies",
    "cloud": "/v1/clouds",
    "campaign": "/v1/campaigns",
}
SWEEPS = [
    {"figure": figure, "arrival_rate": rate}
    for figure in ("11", "12") for rate in (50.0, 100.0, 150.0)
]
POLICIES = [{"arrival_rate": 80.0}, {"arrival_rate": 100.0}]
CLOUDS = [{}]
CAMPAIGN_SEEDS = 3
#: Jobs of each kind in one block (one operation).
BLOCK = {"sweep": 6, "policies": 8, "cloud": 2, "campaign": 4}


def _expected_text(kind, spec):
    """The in-process ``repro.workloads`` rendering of one job."""
    import repro.workloads as w

    if kind == "sweep":
        args = (spec["figure"], spec["arrival_rate"], 10)
        return w.fig_sweep_text(*args, w.run_fig_sweep(*args))
    if kind == "policies":
        report = w.run_policy_comparison(arrival_rate=spec["arrival_rate"])
        return w.policy_comparison_text(report)
    if kind == "cloud":
        return w.cloud_comparison_text(w.run_cloud_comparison(), 100.0, 0.9995)
    results = w.run_fault_campaigns(
        "lan-host", horizon=spec["horizon"],
        replications=spec["replications"], seed=spec["seed"],
    )
    text, _ = w.campaign_text(
        results, "lan-host", spec["horizon"], spec["replications"],
        spec["seed"],
    )
    return text


class _Server:
    """One ``repro serve`` subprocess and a connection to it."""

    def __init__(self, workdir, tag, traced):
        self.spans = workdir / f"server-spans-{tag}.json"
        port_file = workdir / f"port-{tag}"
        journal = workdir / f"journal-{tag}.jsonl"
        argv = [
            "serve", "--port", "0", "--port-file", str(port_file),
            "--journal", str(journal), "--workers", str(SLOTS),
        ]
        if traced:
            command = [sys.executable, str(HERE / "bootstrap.py"), str(self.spans)]
        else:
            command = [sys.executable, "-m", "repro"]
        port_file.unlink(missing_ok=True)
        journal.unlink(missing_ok=True)
        self.log = open(workdir / f"server-{tag}.log", "wb")
        self.proc = subprocess.Popen(
            command + argv, env=program_env(), stdout=self.log,
            stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, {CPU}),
        )
        self.conn = None
        try:
            self._wait_ready(port_file)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, port_file):
        deadline = time.monotonic() + 60.0
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start")
            time.sleep(0.005)
        self.port = int(port_file.read_text())
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        while self.request("GET", "/readyz")[0] != 200:
            time.sleep(0.005)

    def request(self, method, path, body=None):
        payload = None if body is None else json.dumps(body).encode()
        headers = {"content-type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def job(self, job_id):
        return json.loads(self.request("GET", f"/v1/jobs/{job_id}")[1])

    def wait(self, job_id):
        """The finished job document, polling (set-up only)."""
        while True:
            doc = self.job(job_id)
            if doc["status"] in TERMINAL:
                return doc
            time.sleep(0.005)

    def stop(self):
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class _Events(threading.Thread):
    """Follows ``/v1/events``; queues (job id, seen at, status) per terminal event."""

    def __init__(self, port):
        super().__init__(daemon=True)
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.sendall(b"GET /v1/events HTTP/1.1\r\nhost: bench\r\n\r\n")
        self.stream = self.sock.makefile("rb")
        while self.stream.readline() not in (b"\r\n", b"\n", b""):
            pass  # response head
        self.terminal = queue.Queue()
        self.hello = threading.Event()

    def run(self):
        event = None
        for line in self.stream:
            if line.startswith(b"event: "):
                event = line[7:].strip()
                if event == b"hello":
                    self.hello.set()
            elif line.startswith(b"data: ") and event == b"job":
                data = json.loads(line[6:])
                if data["status"] in TERMINAL:
                    self.terminal.put(
                        (data["id"], time.perf_counter(), data["status"])
                    )

    def close(self):
        self.sock.shutdown(socket.SHUT_RDWR)
        self.join(timeout=10)
        self.stream.close()
        self.sock.close()


class ServerMix:
    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.server = None
        draw = random.Random(seed)
        self.catalog = {
            "sweep": SWEEPS,
            "policies": POLICIES,
            "cloud": CLOUDS,
            "campaign": [
                {"scenario": "lan-host", "horizon": 50.0,
                 "replications": 2, "seed": draw.randrange(0, 2**31)}
                for _ in range(CAMPAIGN_SEEDS)
            ],
        }

    def _start(self, tag, traced=False) -> _Server:
        """A ready server that has run one warm-up job of each kind."""
        server = _Server(self.workdir, tag, traced)
        try:
            for kind, specs in self.catalog.items():
                status, body = server.request("POST", ROUTES[kind], specs[0])
                doc = server.wait(json.loads(body)["id"]) if status == 202 else {}
                if doc.get("status") != "done":
                    raise RuntimeError(f"warm-up {kind} job failed: {doc}")
        except BaseException:
            server.stop()
            raise
        return server

    def setup(self) -> float:
        self.expected = {
            (kind, i): _expected_text(kind, spec)
            for kind, specs in self.catalog.items()
            for i, spec in enumerate(specs)
        }
        calibrator = reference.Calibrator(reference.spawn_sample)
        times = []
        for start in range(SETUP_STARTS):
            began = time.perf_counter()
            server = self._start(f"setup{start}")
            elapsed = time.perf_counter() - began
            times.append(calibrator.calibrate(elapsed))
            if start < SETUP_STARTS - 1:
                server.stop()
        self.server = server
        return median(times)

    def _blocks(self):
        """Successive blocks of (kind, spec index), each permuted by the seed."""
        draw = random.Random(self.seed)
        for block in itertools.count():
            chunk = [
                (kind, (block * per_block + n) % len(self.catalog[kind]))
                for kind, per_block in BLOCK.items()
                for n in range(per_block)
            ]
            draw.shuffle(chunk)
            yield chunk

    def _block(self, server, events, calibrator, jobs):
        """Run one block, one job at a time.

        Returns ``[id, kind, index, submit rtt, latency, calibrated
        latency, status]`` per job, the id ``None`` for a job the server
        did not accept; a job whose terminal event does not come in
        time ends the block.
        """
        done = []
        for kind, index in jobs:
            sent = time.perf_counter()
            status, body = server.request(
                "POST", ROUTES[kind], self.catalog[kind][index]
            )
            rtt = time.perf_counter() - sent
            if status != 202:
                done.append([None, kind, index, rtt, None, None, "rejected"])
                continue
            job_id = json.loads(body)["id"]
            seen = None
            while seen != job_id:  # skips repeated events
                try:
                    seen, at, state = events.terminal.get(timeout=JOB_TIMEOUT)
                except queue.Empty:
                    done.append([job_id, kind, index, rtt, None, None, "timed out"])
                    return done
            latency = at - sent
            done.append([job_id, kind, index, rtt, latency,
                         calibrator.calibrate(latency), state])
        return done

    def _check(self, server, phase, jobs) -> None:
        """Check one block's outputs; the block is one operation."""
        ok = len(jobs) == sum(BLOCK.values())
        for job_id, kind, index, rtt, latency, calibrated, status in jobs:
            doc = server.job(job_id) if status == "done" else {}
            good = doc.get("result", {}).get("text") == self.expected[(kind, index)]
            phase.sample("within_limit", float(
                good and calibrated * 1000.0 <= LIMIT_MS
            ))
            ok = ok and good
            if good:
                phase.sample("job", calibrated)
                phase.sample("submit_rtt", rtt)
                phase.sample("queue_wait", doc["started"] - doc["submitted"])
                phase.sample("run", doc["finished"] - doc["started"])
                phase.sample(
                    "notify", latency - (doc["finished"] - doc["submitted"])
                )
        phase.op(
            sum(job[4] or 0.0 for job in jobs), ok,
            sum(job[5] or 0.0 for job in jobs),
        )

    def _drive(self, server, blocks) -> Phase:
        """Run blocks while *blocks(k)* is true; returns the phase.

        The generator runs on the CPU the server is held on, so the
        reference samples between jobs measure the CPU the jobs ran on.
        """
        phase = Phase()
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {CPU})
        events = _Events(server.port)  # its thread inherits the CPU
        events.start()
        try:
            events.hello.wait(10)
            calibrator = reference.Calibrator(reference.sample_once)
            for k, jobs in enumerate(self._blocks()):
                if not blocks(k):
                    break
                done = self._block(server, events, calibrator, jobs)
                self._check(server, phase, done)
                if len(done) < len(jobs):
                    break  # the server stalled
        finally:
            events.close()
            os.sched_setaffinity(0, allowed)
        return phase

    def measure(self, seconds: float) -> Phase:
        deadline = time.perf_counter() + seconds
        return self._drive(
            self.server, lambda k: k == 0 or time.perf_counter() < deadline
        )

    def measure_traced(self, seconds: float) -> Phase:
        server = self._start("traced", traced=True)
        try:
            started = time.perf_counter()
            phase = self._drive(server, lambda k: k < TRACED_BLOCKS)
        finally:
            server.stop()
        phase.traces.append(load_dump(server.spans, since=started))
        return phase

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    @staticmethod
    def figures(phase: Phase) -> dict:
        ms = [1000.0 * x for x in phase.samples.get("job", [])]
        within = phase.samples.get("within_limit", [])
        return {
            "job_p50_ms": (percentile(ms, 50), "ms"),
            "job_p95_ms": (percentile(ms, 95), "ms"),
            "job_within_limit_ratio": (
                sum(within) / len(within) if within else 0.0, "ratio"),
        }

    @staticmethod
    def layers(plain: Phase, traced: Phase) -> dict:
        out = layer_metrics(traced)

        def pct(name, q):
            return 1000.0 * percentile(plain.samples.get(name, []), q), "ms"

        for name in ("submit_rtt", "queue_wait", "run"):
            out[f"server.{name}_p50_ms"] = pct(name, 50)
            out[f"server.{name}_p95_ms"] = pct(name, 95)
        out["server.notify_ms"] = pct("notify", 50)
        return out
