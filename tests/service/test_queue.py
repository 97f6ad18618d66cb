"""Job-queue semantics: dedup, priorities, states, cancellation."""

from __future__ import annotations

import threading

import pytest

from repro.service.queue import (CANCELLED, DONE, FAILED, QUEUED, RUNNING,
                                 JobQueue)
from repro.service.requests import parse_request
from repro.service.store import ArtifactStore, request_digest


@pytest.fixture
def queue(tmp_path):
    return JobQueue(ArtifactStore(tmp_path))


def _place(topology="grid-25", **extra):
    return parse_request("place", {"topology": topology, **extra})


class TestDedup:
    def test_identical_inflight_coalesces(self, queue):
        a, disp_a = queue.submit("place", _place())
        b, disp_b = queue.submit("place", _place())
        assert disp_a == "queued" and disp_b == "coalesced"
        assert a is b
        assert a.submissions == 2
        assert queue.coalesced == 1
        assert queue.depth() == 1

    def test_distinct_requests_do_not_coalesce(self, queue):
        a, _ = queue.submit("place", _place(seed=0))
        b, _ = queue.submit("place", _place(seed=1))
        assert a is not b
        assert queue.depth() == 2

    def test_running_job_still_coalesces(self, queue):
        queue.submit("place", _place())
        job = queue.claim(timeout=0.1)
        assert job.state == RUNNING
        again, disp = queue.submit("place", _place())
        assert disp == "coalesced" and again is job

    def test_finished_job_answers_from_store(self, queue):
        record, _ = queue.submit("place", _place())
        job = queue.claim(timeout=0.1)
        queue.store.put(job.digest, {"ok": True})
        queue.finish(job.job_id)
        hit, disp = queue.submit("place", _place())
        assert disp == "cache_hit"
        assert hit.state == DONE and hit.cache_hit
        assert hit.job_id != record.job_id  # a fresh record, born done

    def test_failed_job_recomputes(self, queue):
        queue.submit("place", _place())
        job = queue.claim(timeout=0.1)
        queue.fail(job.job_id, "boom")
        assert queue.get(job.job_id).state == FAILED
        again, disp = queue.submit("place", _place())
        assert disp == "queued" and again.job_id != job.job_id

    def test_job_finishing_during_the_probe_is_a_cache_hit(
            self, queue, monkeypatch):
        # The worker stores and finishes the digest after the submit's
        # unlocked existence probe missed, but before the submit takes
        # the queue lock: the submit must not queue a second computation.
        first, _ = queue.submit("place", _place())
        job = queue.claim(timeout=0.1)
        probe = queue.store.contains

        def probe_then_finish(digest):
            found = probe(digest)
            queue.store.put(job.digest, {"ok": True})
            queue.finish(job.job_id)
            return found

        monkeypatch.setattr(queue.store, "contains", probe_then_finish)
        hits = queue.store.count("hits", "objects")
        record, disp = queue.submit("place", _place())
        assert disp == "cache_hit"
        assert record.state == DONE and record.cache_hit
        assert record.job_id != first.job_id
        assert queue.depth() == 0
        assert queue.claim(timeout=0.01) is None
        assert queue.store.count("hits", "objects") == hits + 1

    def test_deleted_artifact_recomputes(self, queue):
        queue.submit("place", _place())
        job = queue.claim(timeout=0.1)
        queue.store.put(job.digest, {"ok": True})
        queue.finish(job.job_id)
        queue.store.path(job.digest).unlink()
        again, disp = queue.submit("place", _place())
        assert disp == "queued" and again.job_id != job.job_id


class TestPriorities:
    def test_pop_order_by_tier_then_fifo(self, queue):
        low, _ = queue.submit("place", _place(seed=1), priority="low")
        norm1, _ = queue.submit("place", _place(seed=2))
        high, _ = queue.submit("place", _place(seed=3), priority="high")
        norm2, _ = queue.submit("place", _place(seed=4))
        order = [queue.claim(timeout=0.1).job_id for _ in range(4)]
        assert order == [high.job_id, norm1.job_id, norm2.job_id,
                         low.job_id]

    def test_unknown_priority_rejected(self, queue):
        with pytest.raises(ValueError):
            queue.submit("place", _place(), priority="urgent")


class TestCancellation:
    def test_queued_job_cancels(self, queue):
        job, _ = queue.submit("place", _place())
        assert queue.cancel(job.job_id) is True
        assert job.state == CANCELLED
        assert queue.claim(timeout=0.05) is None
        # the digest is free again: a resubmit queues a new job
        again, disp = queue.submit("place", _place())
        assert disp == "queued" and again.job_id != job.job_id

    def test_running_job_gets_best_effort_flag(self, queue):
        queue.submit("place", _place())
        job = queue.claim(timeout=0.1)
        assert queue.cancel(job.job_id) is False
        assert job.state == RUNNING and job.cancel_requested

    def test_unknown_job_raises(self, queue):
        with pytest.raises(KeyError):
            queue.cancel("job-999999")


class TestCoalescedCancellation:
    def test_one_submitters_cancel_does_not_kill_the_rest(self, queue):
        """A coalesced duplicate survives the original's cancel."""
        job, _ = queue.submit("place", _place())
        dup, disp = queue.submit("place", _place())
        assert disp == "coalesced" and dup is job
        assert queue.cancel(job.job_id) is False  # one interest withdrawn
        assert job.state == QUEUED and job.submissions == 1
        assert queue.claim(timeout=0.1) is job  # still runs
        # the final interest's cancel (now running) is best-effort only
        assert queue.cancel(job.job_id) is False
        assert job.cancel_requested

    def test_coalesced_job_never_fully_cancels(self, queue):
        """Submitters are anonymous, so a blind cancel retry must not
        kill a job another client is still waiting on — once coalesced,
        cancels only shed interest."""
        job, _ = queue.submit("place", _place())
        queue.submit("place", _place())
        assert queue.cancel(job.job_id) is False  # 2 -> 1
        assert queue.cancel(job.job_id) is False  # retry: refused
        assert queue.cancel(job.job_id) is False  # still refused
        assert job.state == QUEUED
        assert queue.claim(timeout=0.1) is job  # it runs regardless

    def test_double_cancel_retry_cannot_kill_other_clients_job(self, queue):
        """The HTTP-retry scenario: A cancels twice, B still gets served."""
        a_view, _ = queue.submit("place", _place())
        b_view, disp = queue.submit("place", _place())
        assert disp == "coalesced"
        assert queue.cancel(a_view.job_id) is False  # A's cancel
        assert queue.cancel(a_view.job_id) is False  # A's network retry
        running = queue.claim(timeout=0.1)
        assert running is b_view  # B's interest survived
        queue.store.put(running.digest, {"ok": True})
        queue.finish(running.job_id)
        assert b_view.state == DONE


class TestClaimedCancellation:
    """The worker-side settle path for cancelled running jobs.

    A running job whose cancel flag is honoured must release its digest
    from the dedup index — otherwise every later identical submission
    coalesces onto the dead job and hangs forever (the ISSUE 6 race).
    """

    def test_cancel_claimed_releases_digest(self, queue):
        queue.submit("place", _place())
        job = queue.claim(timeout=0.1)
        assert queue.cancel(job.job_id) is False  # best-effort flag
        queue.cancel_claimed(job.job_id)
        assert job.state == CANCELLED
        assert queue.cancelled == 1
        # the regression: without the release this would coalesce onto
        # the dead job and the submitter would poll forever
        again, disp = queue.submit("place", _place())
        assert disp == "queued" and again.job_id != job.job_id

    def test_cancel_claimed_is_noop_on_settled_jobs(self, queue):
        queue.submit("place", _place())
        job = queue.claim(timeout=0.1)
        queue.fail(job.job_id, "boom")
        queue.cancel_claimed(job.job_id)  # racing settle: no effect
        assert job.state == FAILED
        assert queue.cancelled == 0 and queue.failed == 1

    def test_cancel_claimed_ignores_queued_jobs(self, queue):
        job, _ = queue.submit("place", _place())
        queue.cancel_claimed(job.job_id)
        assert job.state == QUEUED  # producers cancel via cancel()

    def test_stale_settle_cannot_evict_successor_dedup_entry(self, queue):
        """After a cancel settles job A, a straggling fail() from A's
        worker must not drop the *new* job B now owning the digest."""
        queue.submit("place", _place())
        a = queue.claim(timeout=0.1)
        queue.cancel_claimed(a.job_id)
        b, disp = queue.submit("place", _place())
        assert disp == "queued"
        queue.fail(a.job_id, "late worker settle")  # A's zombie thread
        _, disp = queue.submit("place", _place())
        assert disp == "coalesced"  # B's entry survived the stale pop

    def test_threaded_cancel_during_execution(self, queue):
        """End-to-end: a worker honouring the flag via JobCancelled."""
        from repro.service.queue import JobCancelled

        started = threading.Event()
        release = threading.Event()
        job, _ = queue.submit("place", _place())

        def worker():
            claimed = queue.claim(timeout=1.0)
            started.set()
            release.wait(timeout=5.0)
            try:
                if claimed.cancel_requested:
                    raise JobCancelled()
            except JobCancelled:
                queue.cancel_claimed(claimed.job_id)

        thread = threading.Thread(target=worker)
        thread.start()
        assert started.wait(timeout=5.0)
        assert queue.cancel(job.job_id) is False  # running: flag only
        release.set()
        thread.join(timeout=5.0)
        assert job.state == CANCELLED
        again, disp = queue.submit("place", _place())
        assert disp == "queued" and again.job_id != job.job_id


class TestPriorityUpgrade:
    def test_high_priority_duplicate_upgrades_queued_job(self, queue):
        first, _ = queue.submit("place", _place(seed=1), priority="low")
        second, _ = queue.submit("place", _place(seed=2), priority="normal")
        dup, disp = queue.submit("place", _place(seed=1), priority="high")
        assert disp == "coalesced" and dup is first
        assert first.priority == "high"
        assert queue.claim(timeout=0.1) is first  # jumped the queue
        assert queue.claim(timeout=0.1) is second
        assert queue.claim(timeout=0.05) is None  # stale entry skipped

    def test_lower_priority_duplicate_does_not_downgrade(self, queue):
        first, _ = queue.submit("place", _place(), priority="high")
        queue.submit("place", _place(), priority="low")
        assert first.priority == "high"


class TestRecordRetention:
    def test_finished_records_evicted_past_cap(self, tmp_path):
        queue = JobQueue(ArtifactStore(tmp_path), max_records=5)
        digest = request_digest("place", _place())
        queue.store.put(digest, {"ok": True})
        hits = [queue.submit("place", _place())[0] for _ in range(12)]
        assert all(job.cache_hit for job in hits)
        assert len(queue.jobs()) <= 5
        # the newest record survives, the oldest were evicted
        surviving = {job.job_id for job in queue.jobs()}
        assert hits[-1].job_id in surviving
        assert hits[0].job_id not in surviving

    def test_eviction_order_is_finish_time_not_insertion(self, tmp_path):
        """A slow job that finished *last* outlives earlier finishers.

        Its submitter is still polling the record even though it was
        inserted first — insertion-order eviction would 404 them.
        """
        queue = JobQueue(ArtifactStore(tmp_path), max_records=4)
        slow, _ = queue.submit("place", _place(seed=99))  # inserted first
        running = queue.claim(timeout=0.1)
        digest = request_digest("place", _place(seed=1))
        queue.store.put(digest, {"ok": True})
        for _ in range(4):  # finished records piling up after it
            queue.submit("place", _place(seed=1))
        queue.store.put(running.digest, {"ok": True})
        queue.finish(running.job_id)  # finishes LAST
        queue.submit("place", _place(seed=1))  # triggers a prune
        assert queue.get(slow.job_id) is slow  # survived
        assert slow.state == DONE

    def test_active_jobs_never_evicted(self, tmp_path):
        queue = JobQueue(ArtifactStore(tmp_path), max_records=2)
        live = [queue.submit("place", _place(seed=s))[0]
                for s in range(6)]
        # all six are queued: none may be evicted despite the cap
        assert len(queue.jobs()) == 6
        assert {job.state for job in live} == {QUEUED}

    def test_claim_survives_eviction_of_stale_heap_entries(self, tmp_path):
        queue = JobQueue(ArtifactStore(tmp_path), max_records=1)
        job, _ = queue.submit("place", _place())
        assert queue.cancel(job.job_id) is True  # leaves a stale entry
        # flood with cache hits so the cancelled record is evicted
        digest = request_digest("place", _place(seed=9))
        queue.store.put(digest, {"ok": True})
        for _ in range(3):
            queue.submit("place", _place(seed=9))
        assert job.job_id not in {j.job_id for j in queue.jobs()}
        assert queue.claim(timeout=0.05) is None  # no KeyError


class TestClaimAndClose:
    def test_claim_blocks_until_submit(self, queue):
        got = []

        def worker():
            got.append(queue.claim(timeout=5.0))

        thread = threading.Thread(target=worker)
        thread.start()
        job, _ = queue.submit("place", _place())
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got and got[0].job_id == job.job_id

    def test_close_wakes_blocked_workers(self, queue):
        got = []

        def worker():
            got.append(queue.claim(timeout=10.0))

        thread = threading.Thread(target=worker)
        thread.start()
        queue.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got == [None]
        with pytest.raises(RuntimeError):
            queue.submit("place", _place())

    def test_close_refuses_still_queued_work(self, queue):
        """Shutdown must not hand out queued jobs to woken workers."""
        job, _ = queue.submit("place", _place())
        queue.close()
        assert queue.claim(timeout=0.05) is None
        assert job.state == QUEUED  # never started

    def test_metrics_shape(self, queue):
        queue.submit("place", _place())
        metrics = queue.metrics()
        assert metrics["queue_depth"] == 1
        assert metrics["jobs_by_state"] == {QUEUED: 1}
        assert metrics["jobs_total"] == 1


class TestJobRecord:
    def test_to_dict_is_json_able(self, queue):
        import json

        job, _ = queue.submit("place", _place(), options={"chunk_size": 4})
        payload = json.loads(json.dumps(job.to_dict()))
        assert payload["kind"] == "place"
        assert payload["state"] == QUEUED
        assert payload["options"] == {"chunk_size": 4}
        assert payload["artifact"] is None
        assert payload["request"]["__dataclass__"] == "PlaceRequest"
