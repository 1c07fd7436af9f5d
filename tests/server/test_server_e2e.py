"""End-to-end tests: a real server on an ephemeral port.

The server's headline contract is byte-identity with the offline CLI:
a sweep submitted over HTTP returns exactly what ``repro sweep``
prints, serial or parallel, and ``/metrics`` renders the same
OpenMetrics exposition ``repro stats --format openmetrics`` does.
"""

import contextlib
import io
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ServerError
from repro.obs import MetricsRegistry, instrumented
from repro.server import ServerClient, ServerThread
from repro.server.work import execute_job, parse_spec


def cli_stdout(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv)
    assert code == 0
    return buffer.getvalue()


@pytest.fixture(scope="module")
def server():
    with ServerThread(slots=2, queue_limit=8) as handle:
        yield handle


@pytest.fixture()
def client(server):
    return ServerClient(port=server.port)


class TestSweepByteIdentity:
    ARGS = ["--figure", "11", "--arrival-rate", "60", "--servers-max", "4"]

    def test_serial_sweep_matches_cli(self, client):
        offline = cli_stdout(["sweep"] + self.ARGS)
        text = client.sweep_text(figure="11", arrival_rate=60.0,
                                 servers_max=4)
        assert text + "\n" == offline

    def test_parallel_sweep_matches_cli(self, client):
        offline = cli_stdout(["sweep"] + self.ARGS)
        text = client.sweep_text(figure="11", arrival_rate=60.0,
                                 servers_max=4, workers=2)
        assert text + "\n" == offline


class TestOtherWorkloads:
    def test_policies_matches_cli(self, client):
        offline = cli_stdout(["policies"])
        done = client.run("policies", {})
        assert done["result"]["text"] + "\n" == offline
        assert done["result"]["best"]["policy"]

    def test_campaign_matches_cli(self, client):
        argv = ["inject", "--scenario", "null", "--user-class", "A",
                "--horizon", "50", "--replications", "2"]
        offline = cli_stdout(argv)
        done = client.run("campaign", {
            "scenario": "null", "user_class": "A",
            "horizon": 50.0, "replications": 2,
        })
        assert done["result"]["text"] + "\n" == offline
        assert done["result"]["calibrated"] is True

    def test_cloud_matches_cli(self, client):
        offline = cli_stdout(["cloud", "--zone-availability", "0.999"])
        text = client.cloud_text(zone_availability=0.999)
        assert text + "\n" == offline

    def test_parallel_cloud_matches_cli(self, client):
        offline = cli_stdout(["cloud", "--zone-availability", "0.999"])
        done = client.run("cloud", {"zone_availability": 0.999,
                                    "workers": 2})
        assert done["result"]["text"] + "\n" == offline
        assert done["result"]["ranking"][0] == (
            done["result"]["best"]["deployment"]
        )


class TestJobProfiles:
    def test_profiled_job_serves_profile_document(self, client):
        done = client.run("sweep", {"servers_max": 3, "profile": True})
        # The job document links to the profile instead of inlining it.
        assert done["result"]["profile"] == {
            "href": f"/v1/jobs/{done['id']}/profile"
        }
        profile = client.job_profile(done["id"])
        assert set(profile) == {
            "attribution", "text", "collapsed", "speedscope"
        }
        (batch,) = profile["attribution"]["batches"]
        assert batch["coverage"] >= 0.95
        assert "speedscope" in profile["speedscope"]["$schema"]

    def test_profiled_sweep_text_stays_byte_identical(self, client):
        offline = cli_stdout(["sweep", "--servers-max", "3"])
        done = client.run("sweep", {"servers_max": 3, "profile": True})
        assert done["result"]["text"] + "\n" == offline

    def test_unprofiled_job_profile_is_404(self, client):
        done = client.run("sweep", {"servers_max": 2})
        assert "profile" not in done["result"]
        with pytest.raises(ServerError) as excinfo:
            client.job_profile(done["id"])
        assert "404" in str(excinfo.value)
        assert "no profile" in str(excinfo.value)

    def test_non_boolean_profile_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.run("sweep", {"profile": "yes"})
        assert "400" in str(excinfo.value)
        assert "boolean" in str(excinfo.value)


class TestJobApi:
    def test_job_lifecycle_and_listing(self, client):
        job = client.submit_probe(hold=0.0)
        assert job["status"] in ("queued", "running")
        done = client.wait(job["id"])
        assert done["status"] == "done"
        assert done["result"] == {"held_seconds": 0.0}
        listed = {entry["id"] for entry in client.jobs()}
        assert job["id"] in listed

    def test_bad_spec_is_400_with_message(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.submit_sweep(figure="13")
        assert "400" in str(excinfo.value)
        assert "figure" in str(excinfo.value)

    def test_unknown_spec_key_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.submit_sweep(figur="11")
        assert "400" in str(excinfo.value)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.job("job-424242")
        assert "404" in str(excinfo.value)

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._json("GET", "/v2/anything")
        assert "404" in str(excinfo.value)

    def test_wrong_method_is_405(self, client):
        status, _body = client._request("DELETE", "/v1/sweeps")
        assert status == 405

    def test_cancel_running_probe(self, client):
        job = client.submit_probe(hold=30.0)
        cancelled = client.cancel(job["id"])
        assert cancelled["cancel_requested"] or (
            cancelled["status"] == "cancelled"
        )
        done = client.wait(job["id"])
        assert done["status"] == "cancelled"

    def test_health_and_readiness(self, client):
        assert client.healthz()["status"] == "ok"
        assert client.readyz() is True


class TestSelfEndpoint:
    def test_self_report_shape(self, client):
        # The module-scoped server has seen traffic from earlier tests.
        report = client.self_report()
        assert report["config"] == {"slots": 2, "capacity": 8}
        assert report["uptime_seconds"] > 0.0
        assert report["observed"]["arrivals"] >= 1
        assert report["slo"]["name"] == "admission"
        assert 0.0 <= report["slo"]["objective"] <= 1.0


class TestEvents:
    def test_stream_delivers_hello_then_job_events(self, client):
        job = client.submit_probe(hold=1.0)
        events = client.events(count=2, timeout=15.0)
        assert events[0][0] == "hello"
        assert events[0][1]["capacity"] == 8
        kinds = {name for name, _ in events}
        assert kinds & {"job", "progress", "heartbeat", "slo"}
        done = client.wait(job["id"])
        assert done["status"] == "done"


class TestMetricsExposition:
    def test_openmetrics_families_present(self, client):
        client.healthz()
        text = client.metrics_text()
        assert text.endswith("# EOF\n")
        assert "# TYPE server_requests counter" in text
        assert 'server_requests_total{' in text
        assert "# TYPE server_request_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "# TYPE server_queue_depth gauge" in text

    def test_matches_repro_stats_exposition(self, tmp_path):
        # A dedicated server whose registry we hold, so the scrape can
        # be compared byte-for-byte against the CLI exposition of the
        # same snapshot.
        registry = MetricsRegistry()
        with ServerThread(slots=1, queue_limit=2,
                          metrics=registry) as handle:
            client = ServerClient(port=handle.port)
            client.wait(client.submit_probe(hold=0.0)["id"])
            client.metrics_text()  # the scrape that lands in the snapshot
            # The request is observed after its response is written;
            # wait for that observation before freezing the snapshot.
            deadline = time.monotonic() + 10.0
            while not registry.value(
                "server_requests", method="GET", route="/metrics",
                code="200",
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            snapshot = tmp_path / "server-metrics.json"
            registry.save(snapshot)
            scrape = client.metrics_text()
        offline = cli_stdout(["stats", "--format", "openmetrics",
                              str(snapshot)])
        assert scrape == offline

    def test_job_library_families_reach_metrics(self):
        # Each job runs in its own ambient scope, so the layers under
        # the engine (CTMC solvers, Bayesian inference, campaigns)
        # record into the job registry that merges into /metrics.
        with ServerThread(slots=1, queue_limit=4) as handle:
            client = ServerClient(port=handle.port)
            client.run("policies", {})
            client.run("cloud", {})
            client.run("campaign", {
                "scenario": "lan-host", "user_class": "A",
                "horizon": 50.0, "replications": 2,
            })
            text = client.metrics_text()
        for family in ("ctmc_solves_total", "bayes_inference_queries_total",
                       "campaign_replications_total"):
            assert _family_total(text, family) >= 1, family


def _family_total(text, family):
    """Sum of one family's samples in an OpenMetrics exposition."""
    return sum(
        float(line.split()[-1]) for line in text.splitlines()
        if line.startswith((family + "{", family + " "))
    )


class TestConcurrentJobIsolation:
    def test_concurrent_jobs_keep_their_own_scopes(self):
        # Both jobs block at their first progress event — inside their
        # engine batch, with their scopes open — until the other one
        # gets there too, so the two scopes are live at the same time.
        barrier = threading.Barrier(2, timeout=30.0)

        def gated_runner(kind, spec, token, progress, metrics):
            waited = []

            def gated(event):
                if not waited:
                    waited.append(True)
                    barrier.wait()
                progress(event)

            return execute_job(kind, spec, token, gated, metrics)

        alone = MetricsRegistry()
        with instrumented(metrics=alone):
            execute_job("policies", parse_spec("policies", {}))
        expected_solves = _family_total(alone.render_openmetrics(),
                                        "ctmc_solves_total")
        assert expected_solves >= 1

        with ServerThread(slots=2, queue_limit=4,
                          runner=gated_runner) as handle:
            client = ServerClient(port=handle.port)
            sweep = client.submit("sweep", {"servers_max": 6,
                                            "profile": True})
            policies = client.submit("policies", {})
            sweep_done = client.wait(sweep["id"])
            policies_done = client.wait(policies["id"])
            assert sweep_done["status"] == policies_done["status"] == "done"
            profile = client.job_profile(sweep["id"])
            text = client.metrics_text()
        phases = {
            batch["phase"] for batch in profile["attribution"]["batches"]
        }
        assert phases == {"grid failure rate x NW"}
        assert _family_total(text, "ctmc_solves_total") == expected_solves


class TestJournalRestartOverHttp:
    def test_interrupted_job_reruns_after_restart(self, tmp_path):
        journal = tmp_path / "server-jobs.jsonl"
        with ServerThread(slots=1, queue_limit=4,
                          journal=journal) as handle:
            client = ServerClient(port=handle.port)
            finished = client.wait(client.submit_probe(hold=0.0)["id"])
            interrupted = client.submit_probe(hold=30.0)
        # Shutdown interrupted the running probe; restart re-runs it.
        with ServerThread(slots=1, queue_limit=4,
                          journal=journal) as handle:
            client = ServerClient(port=handle.port)
            restored = client.job(finished["id"])
            assert restored["status"] == "done"
            assert restored["result"] == {"held_seconds": 0.0}
            rerun = client.job(interrupted["id"])
            assert rerun["status"] in ("queued", "running")
            client.cancel(interrupted["id"])
            assert client.wait(interrupted["id"])["status"] == "cancelled"
