"""End-to-end HTTP tests: real server, real client, stub executors.

The server binds port 0 (a free ephemeral port) and the urllib client
drives every route.  Executors are stubs — the heavyweight pipelines
are covered by their own suites and by ``benchmarks/
bench_perf_service.py``; here we pin the HTTP contract.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis.runner import ParallelRunner
from repro.service import PlacementService, ServiceClient, ServiceError
from repro.service.client import JobFailed


@pytest.fixture
def service(tmp_path):
    svc = PlacementService(store_dir=tmp_path / "store", port=0, workers=2)
    svc.scheduler.runner = ParallelRunner(max_workers=1)
    svc.scheduler.executors = {
        "place": lambda request, ctx, job: {"topology": request.topology,
                                            "seed": request.seed},
        "map": lambda request, ctx, job: {"benchmark": request.benchmark,
                                          "options": dict(job.options)},
    }
    with svc:
        yield svc


@pytest.fixture
def client(service):
    return ServiceClient(service.base_url, timeout=10.0)


class TestRoutes:
    def test_healthz(self, client, service):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["uptime_s"] >= 0

    def test_submit_wait_artifact(self, client):
        job = client.submit("place", {"topology": "grid-25", "seed": 5})
        assert job["disposition"] == "queued"
        record = client.wait(job["job_id"], timeout=10)
        assert record["state"] == "done"
        assert record["artifact"] == job["digest"]
        document = client.artifact(record["artifact"])
        assert document["format"] == "repro.artifact.v1"
        assert document["result"] == {"topology": "grid-25", "seed": 5}

    def test_run_convenience(self, client):
        result = client.run("place", {"topology": "grid-25"}, timeout=10)
        assert result == {"topology": "grid-25", "seed": 0}

    def test_identical_resubmit_is_cache_hit(self, client):
        client.run("place", {"topology": "grid-25"}, timeout=10)
        again = client.submit("place", {"topology": "grid-25"})
        assert again["disposition"] == "cache_hit"
        assert again["state"] == "done"

    def test_options_reach_executor_without_changing_digest(self, client):
        plain = client.submit("map", {"benchmark": "bv-4",
                                      "topology": "grid-25"})
        result = client.result(plain["job_id"], timeout=10)
        assert result["options"] == {}
        hinted = client.submit("map", {"benchmark": "bv-4",
                                       "topology": "grid-25"},
                               options={"chunk_size": 2})
        # same digest: the hinted submit is answered from the store
        assert hinted["digest"] == plain["digest"]
        assert hinted["disposition"] == "cache_hit"

    def test_jobs_listing(self, client):
        client.run("place", {"topology": "grid-25"}, timeout=10)
        listing = client.jobs()
        assert len(listing["jobs"]) == 1
        assert listing["jobs"][0]["kind"] == "place"

    def test_metrics(self, client):
        client.run("place", {"topology": "grid-25"}, timeout=10)
        metrics = client.metrics()
        assert metrics["completed"] == 1
        assert metrics["computations"] == 1
        assert metrics["workers"] == 2
        assert "artifact_hit_rate" in metrics
        assert "runner_cache_hits" in metrics

    def test_job_not_found(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("job-424242")
        assert err.value.status == 404

    def test_artifact_not_found(self, client):
        with pytest.raises(ServiceError) as err:
            client.artifact("00" * 32)
        assert err.value.status == 404

    def test_bad_request_rejected_with_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("place", {"topology": "not-a-chip"})
        assert err.value.status == 400
        assert "unknown topology" in str(err.value)

    def test_unknown_kind_rejected_with_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("teleport", {"topology": "grid-25"})
        assert err.value.status == 400

    def test_unknown_field_rejected_with_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("place", {"topology": "grid-25", "warp": 9})
        assert err.value.status == 400

    def test_wrong_typed_field_rejected_with_400(self, client):
        """A type-confused value is a clean 400, not a dropped socket."""
        with pytest.raises(ServiceError) as err:
            client.submit("place", {"topology": "grid-25", "seed": "7"})
        assert err.value.status == 400

    def test_refine_kind_rejected_with_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("refine", {"source_digest": "ab" * 32})
        assert err.value.status == 400

    @pytest.mark.parametrize("key,value", [("placer", "force"),
                                           ("sa_rounds", 6),
                                           ("portfolio_members", ["force"]),
                                           ("interaction_backend", "sparse"),
                                           ("density_flush_interval", 4)])
    def test_retired_config_field_rejected_with_400(self, client, key,
                                                    value):
        with pytest.raises(ServiceError) as err:
            client.submit("place", {"topology": "grid-25",
                                    "config": {key: value}})
        assert err.value.status == 400
        assert key in str(err.value)

    def test_non_string_priority_rejected_with_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("place", {"topology": "grid-25"},
                          priority=["high"])
        assert err.value.status == 400

    def test_memo_fast_path_still_counts_artifact_hits(self, client):
        client.run("place", {"topology": "grid-25", "seed": 31},
                   timeout=10)
        before = client.metrics()["artifact_hits"]
        for _ in range(5):
            assert client.submit("place", {"topology": "grid-25",
                                           "seed": 31}
                                 )["disposition"] == "cache_hit"
        assert client.metrics()["artifact_hits"] >= before + 5

    def test_bad_options_rejected_with_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("map", {"benchmark": "bv-4",
                                  "topology": "grid-25"},
                          options={"chunk_size": 0})
        assert err.value.status == 400

    def test_keep_alive_survives_bodied_cancel_and_shutdownless_posts(
            self, service, client):
        """POSTs with ignored bodies must not desync a persistent
        connection (HTTP/1.1 keep-alive)."""
        import http.client
        import json as json_mod

        job = client.submit("place", {"topology": "grid-25", "seed": 77})
        client.wait(job["job_id"], timeout=10)
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=10)
        try:
            # cancel with a body on a persistent connection...
            conn.request("POST", f"/jobs/{job['job_id']}/cancel", body=b"{}",
                         headers={"Content-Type": "application/json"})
            first = conn.getresponse()
            assert first.status == 200
            first.read()
            # ...then reuse the same socket: must not return garbage
            conn.request("GET", "/healthz")
            second = conn.getresponse()
            assert second.status == 200
            assert json_mod.loads(second.read())["status"] == "ok"
        finally:
            conn.close()

    def test_failed_job_surfaces_error(self, service, client):
        def boom(request, ctx, job):
            raise RuntimeError("kaput")

        service.scheduler.executors["place"] = boom
        job = client.submit("place", {"topology": "grid-25", "seed": 9})
        with pytest.raises(JobFailed) as err:
            client.wait(job["job_id"], timeout=10)
        assert "kaput" in str(err.value)


class TestCancellation:
    def test_cancel_queued_job(self, service, client):
        release = threading.Event()

        def slow(request, ctx, job):
            release.wait(timeout=10)
            return {}

        service.scheduler.executors["place"] = slow
        # saturate both workers, then queue two more
        blockers = [client.submit("place", {"topology": "grid-25",
                                            "seed": s})
                    for s in (100, 101)]
        victim = client.submit("place", {"topology": "grid-25",
                                         "seed": 102})
        deadline = time.time() + 5
        while client.metrics()["busy_workers"] < 2:
            assert time.time() < deadline
            time.sleep(0.01)
        response = client.cancel(victim["job_id"])
        assert response["cancelled"] is True
        assert response["state"] == "cancelled"
        release.set()
        for job in blockers:
            client.wait(job["job_id"], timeout=10)


class TestShutdown:
    def test_shutdown_route_stops_service(self, tmp_path):
        svc = PlacementService(store_dir=tmp_path / "store", port=0,
                               workers=1)
        svc.scheduler.executors = {"place": lambda *a: {}}
        svc.start()
        client = ServiceClient(svc.base_url, timeout=10.0)
        assert client.shutdown()["status"] == "stopping"
        deadline = time.time() + 10
        while not svc._stopped.is_set():
            assert time.time() < deadline
            time.sleep(0.02)
        # a second caller must block until the drain truly completed,
        # never return into a process exit mid-drain
        svc.stop()
        assert svc.scheduler._threads == []
        assert svc._stop_done.is_set()
        with pytest.raises(ServiceError):
            ServiceClient(svc.base_url, timeout=1.0).healthz()


class TestShutdownAuth:
    def test_shutdown_requires_token(self, tmp_path):
        svc = PlacementService(store_dir=tmp_path / "s", port=0,
                               workers=1, shutdown_token="hunter2")
        with svc:
            anonymous = ServiceClient(svc.base_url, timeout=10.0)
            with pytest.raises(ServiceError) as err:
                anonymous.shutdown()
            assert err.value.status == 403
            wrong = ServiceClient(svc.base_url, timeout=10.0,
                                  token="wrong")
            with pytest.raises(ServiceError) as err:
                wrong.shutdown()
            assert err.value.status == 403
            # Still alive after both rejections.
            assert anonymous.healthz()["status"] == "ok"
            authed = ServiceClient(svc.base_url, timeout=10.0,
                                   token="hunter2")
            assert authed.shutdown()["status"] == "stopping"

    def test_shutdown_open_when_no_token(self, tmp_path):
        svc = PlacementService(store_dir=tmp_path / "s", port=0, workers=1)
        with svc:
            client = ServiceClient(svc.base_url, timeout=10.0)
            assert client.shutdown()["status"] == "stopping"
