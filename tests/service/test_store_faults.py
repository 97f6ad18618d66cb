"""Fault injection on the one disk path: the store under the service.

Artifacts and runner entries go through :class:`repro.io.store.Store`,
so one set of faults covers both: a failed write, a truncated entry,
and the size cap.
"""

from __future__ import annotations

import os
import time

from repro.analysis.runner import MappingJob, ParallelRunner, run_mapping_job
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import evaluation_mappings
from repro.devices.topology import get_topology
from repro.io import store as store_mod
from repro.service import PlacementService
from repro.service.queue import DONE, FAILED, JobQueue
from repro.service.requests import parse_request
from repro.service.scheduler import Scheduler
from repro.service.store import ArtifactStore

JOB = MappingJob(benchmark="bv-4", topology="grid-25", num_mappings=2)


def _swaps(mappings):
    return [m.swap_count for m in mappings]


def _direct():
    return evaluation_mappings(get_benchmark("bv-4"),
                               get_topology("grid-25"), num_mappings=2)


def _failing_write(path, data):
    raise OSError(28, "No space left on device")


def _wait_state(queue, job_id, state, timeout=10.0):
    deadline = time.time() + timeout
    while queue.get(job_id).state != state:
        assert time.time() < deadline, queue.get(job_id).state
        time.sleep(0.01)


class TestFailedWrites:
    def test_artifact_write_error_fails_the_job_and_frees_its_digest(
            self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        queue = JobQueue(store)
        scheduler = Scheduler(
            queue, store, workers=1, runner=ParallelRunner(max_workers=1),
            executors={"place": lambda request, ctx, job: {"ok": True}})
        request = parse_request("place", {"topology": "grid-25"})
        failed_before = queue.metrics()["failed"]
        monkeypatch.setattr(store_mod, "atomic_write_bytes", _failing_write)
        scheduler.start()
        try:
            job, _ = queue.submit("place", request)
            _wait_state(queue, job.job_id, FAILED)
            assert "No space left on device" in queue.get(job.job_id).error
            assert queue.metrics()["failed"] == failed_before + 1
            assert not store.contains(job.digest)
            monkeypatch.undo()
            again, disposition = queue.submit("place", request)
            assert disposition == "queued"
            assert again.job_id != job.job_id
            _wait_state(queue, again.job_id, DONE)
            assert store.get(again.digest).result == {"ok": True}
        finally:
            scheduler.stop()

    def test_runner_write_error_still_returns_the_value(self, tmp_path,
                                                        monkeypatch):
        store = store_mod.Store(tmp_path)
        runner = ParallelRunner(max_workers=1, store=store)
        monkeypatch.setattr(store_mod, "atomic_write_bytes", _failing_write)
        [mappings] = runner.map(run_mapping_job, [JOB], namespace="mappings")
        assert _swaps(mappings) == _swaps(_direct())
        assert runner.cache_misses == 1
        assert not list(tmp_path.rglob("*.pkl"))


class TestTruncatedEntries:
    def test_truncated_artifact_is_one_miss_deleted_and_recomputed(
            self, tmp_path):
        store = ArtifactStore(tmp_path)
        request = parse_request("place", {"topology": "grid-25"})
        job, _ = JobQueue(store).submit("place", request)
        store.put(job.digest, {"ok": True})
        path = store.path(job.digest)
        path.write_bytes(path.read_bytes()[:20])
        # A restarted service: nothing remembered, the torn file on disk.
        restarted = ArtifactStore(tmp_path)
        again, disposition = JobQueue(restarted).submit("place", request)
        assert disposition == "queued" and again.digest == job.digest
        assert restarted.count("misses", "objects") == 1
        assert restarted.count("hits", "objects") == 0
        assert not path.exists()

    def test_truncated_runner_entry_is_one_miss_and_recomputed(
            self, tmp_path):
        store = store_mod.Store(tmp_path)
        ParallelRunner(max_workers=1, store=store).map(
            run_mapping_job, [JOB], namespace="mappings")
        [path] = tmp_path.rglob("*.pkl")
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        fresh = store_mod.Store(tmp_path)
        runner = ParallelRunner(max_workers=1, store=fresh)
        [mappings] = runner.map(run_mapping_job, [JOB], namespace="mappings")
        assert _swaps(mappings) == _swaps(_direct())
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)
        assert fresh.count("misses", "mappings") == 1
        assert fresh.count("hits", "mappings") == 0
        assert path.read_bytes() == whole  # the recompute rewrote it


class TestOneServiceStore:
    def test_runner_caches_in_the_service_store(self, tmp_path):
        with PlacementService(store_dir=tmp_path, port=0, workers=1,
                              runner_workers=1) as service:
            runner = service.scheduler.runner
            assert runner.store is service.store
            for _ in range(2):
                runner.map(run_mapping_job, [JOB], namespace="mappings")
            metrics = service.metrics()
        assert list((tmp_path / "mappings").rglob("*.pkl"))
        assert not (tmp_path / "runner-cache").exists()
        assert metrics["circuit_cache_misses"] == 1
        assert metrics["circuit_cache_hits"] == 1
        assert metrics["runner_cache_hits"] == 1

    def test_store_cap_evicts_runner_entries_and_artifacts(self, tmp_path):
        with PlacementService(store_dir=tmp_path, port=0, workers=1,
                              runner_workers=1,
                              store_max_bytes=1) as service:
            store = service.store
            service.scheduler.runner.map(run_mapping_job, [JOB],
                                         namespace="mappings")
            [entry] = tmp_path.rglob("*.pkl")
            os.utime(entry, (1_000_000, 1_000_000))
            store.put("ab" * 32, {"ok": True})
            assert not entry.exists()
            assert store.count("evictions", "mappings") == 1
            os.utime(store.path("ab" * 32), (1_000_000, 1_000_000))
            service.scheduler.runner.map(run_mapping_job, [JOB],
                                         namespace="mappings")
            assert not store.contains("ab" * 32)
            assert store.count("evictions", "objects") == 1
            assert service.metrics()["artifact_evictions"] == 2

