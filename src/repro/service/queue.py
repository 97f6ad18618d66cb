"""Async job queue with digest deduplication and priority tiers.

One :class:`JobQueue` mediates between API threads (producers) and
scheduler workers (consumers).  Its dedup contract is the heart of the
service:

* **coalescing** — submitting a request whose digest is already queued
  or running returns the *existing* job record (``submissions`` is
  incremented); N identical concurrent clients trigger exactly one
  computation and all observe the same job id;
* **store short-circuit** — submitting a request whose artifact already
  exists returns a job born ``done`` (``cache_hit`` set), without ever
  touching the queue;
* **priority tiers** — ``high`` < ``normal`` < ``low`` pop order, FIFO
  within a tier;
* **cancellation** — queued jobs cancel immediately; running jobs only
  get a best-effort flag (the compute is not interrupted).  A worker
  that honours the flag (or aborts with :class:`JobCancelled`) settles
  the job through :meth:`JobQueue.cancel_claimed`, which — like
  ``finish``/``fail`` — releases the digest for dedup.  Every terminal
  transition MUST go through one of those three methods: a digest left
  in the dedup index with no live worker would make every later
  identical submission coalesce onto a zombie job and hang forever.

Job lifecycle: ``queued -> running -> done | failed | cancelled``,
plus ``cancelled`` out of ``queued``.  All state transitions happen
under one condition variable; workers block in :meth:`JobQueue.claim`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..io.serialization import canonicalize
from .store import ArtifactStore, request_digest

#: Job states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Priority tier -> pop rank (lower pops first).
PRIORITIES: Dict[str, int] = {"high": 0, "normal": 1, "low": 2}


class JobCancelled(BaseException):
    """Raised by an executor that honours ``cancel_requested``.

    Deliberately a ``BaseException``: the scheduler's blanket
    ``except Exception`` around executors converts failures into a
    ``failed`` job state, and a cooperative abort must not be
    misreported as a failure.
    """


@dataclass
class JobRecord:
    """One submitted job and its observable state."""

    job_id: str
    kind: str
    digest: str
    request: Any
    priority: str = "normal"
    state: str = QUEUED
    #: Clients that asked for this digest (1 + coalesced submissions).
    submissions: int = 1
    #: True once a second submitter ever coalesced onto this job —
    #: from then on anonymous cancels can only shed interest, never
    #: kill the job (see :meth:`JobQueue.cancel`).
    was_coalesced: bool = False
    #: True when the submit was answered straight from the store.
    cache_hit: bool = False
    #: Execution hints (chunk/shard sizes); never part of the digest.
    options: Dict[str, Any] = field(default_factory=dict)
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    #: Live executor-reported progress (anytime jobs publish their
    #: current best artifact here round by round); empty otherwise.
    progress: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able view served by ``GET /jobs/<id>``."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "digest": self.digest,
            "request": canonicalize(self.request),
            "priority": self.priority,
            "state": self.state,
            "submissions": self.submissions,
            "was_coalesced": self.was_coalesced,
            "cache_hit": self.cache_hit,
            "options": dict(self.options),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "progress": dict(self.progress),
            # Anytime jobs expose the artifact as soon as the first
            # intermediate result is published, not only at DONE.
            "artifact": (self.digest
                         if self.state == DONE
                         or self.progress.get("published", 0)
                         else None),
        }


class JobQueue:
    """Thread-safe dedup queue over an :class:`ArtifactStore`.

    Args:
        store: The artifact store submits short-circuit against.
        max_records: Finished-job retention bound — once the record
            table exceeds this, the oldest finished (done / failed /
            cancelled) records are evicted so a long-lived service
            (cache-hit submits mint a record each) cannot grow without
            bound.  Queued/running jobs are never evicted.
    """

    def __init__(self, store: ArtifactStore,
                 max_records: int = 10_000) -> None:
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        self.store = store
        self.max_records = max_records
        self._cond = threading.Condition()
        self._jobs: Dict[str, JobRecord] = {}
        #: digest -> job currently queued or running (the dedup index).
        self._active: Dict[str, JobRecord] = {}
        #: (priority rank, sequence, job_id) min-heap; cancelled jobs
        #: are dropped lazily at pop time.
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._closed = False
        self.coalesced = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0

    # -- producers ---------------------------------------------------------

    def submit(self, kind: str, request: Any, priority: str = "normal",
               options: Optional[Dict[str, Any]] = None
               ) -> Tuple[JobRecord, str]:
        """Submit one request; returns ``(record, disposition)``.

        Disposition is ``"queued"`` (new computation), ``"coalesced"``
        (an identical digest is already in flight — the returned record
        is that job), or ``"cache_hit"`` (the artifact exists; the
        record is born done).

        Raises:
            ValueError: unknown priority tier.
            RuntimeError: the queue is closed (service shutting down).
        """
        if priority not in PRIORITIES:
            raise ValueError(f"unknown priority {priority!r}; known: "
                             f"{sorted(PRIORITIES)}")
        digest = request_digest(kind, request)
        # The validating artifact read (disk I/O, possibly multi-MB)
        # happens OUTSIDE the queue lock; one submit must never block
        # claim/finish/metrics on a file parse.  The cheap existence
        # probe gates the read, and a digest the store already
        # validated (or wrote) this process skips the re-parse — so a
        # duplicate cache-hit submit costs one stat, not one
        # O(artifact-size) JSON parse.  A job that finishes this digest
        # between the probe and the lock has stored it already (the
        # store write precedes ``finish``), so the locked path asks the
        # store's in-memory record once more before queueing a
        # duplicate.  Only a digest the store did not know before the
        # probe counts there: a known digest whose file is gone was
        # deleted, and still reads as a miss.
        known = self.store.remembers(digest)
        cached_ok = False
        if self.store.contains(digest):
            if known:
                cached_ok = True
                self.store.note_hit()  # keep the hit-rate metric honest
            else:
                cached_ok = self.store.get(digest) is not None
        with self._cond:
            if self._closed:
                raise RuntimeError("job queue is closed")
            active = self._active.get(digest)
            if active is not None:
                active.submissions += 1
                active.was_coalesced = True
                self.coalesced += 1
                if (active.state == QUEUED
                        and PRIORITIES[priority]
                        < PRIORITIES[active.priority]):
                    # A higher-priority duplicate upgrades the queued
                    # job: push a better heap entry (the stale one is
                    # skipped at pop time once the state leaves QUEUED).
                    active.priority = priority
                    heapq.heappush(self._heap,
                                   (PRIORITIES[priority], next(self._seq),
                                    active.job_id))
                    self._cond.notify()
                return active, "coalesced"
            if not (cached_ok or known) and self.store.remembers(digest):
                cached_ok = True
                self.store.note_hit()
            if cached_ok:
                job = JobRecord(job_id=f"job-{next(self._ids):06d}",
                                kind=kind, digest=digest,
                                request=request, priority=priority,
                                state=DONE, cache_hit=True,
                                options=dict(options or {}))
                job.finished_at = job.submitted_at
                self._jobs[job.job_id] = job
                self._prune_locked()
                return job, "cache_hit"
            job = JobRecord(job_id=f"job-{next(self._ids):06d}", kind=kind,
                            digest=digest, request=request,
                            priority=priority, options=dict(options or {}))
            self._jobs[job.job_id] = job
            self._active[digest] = job
            heapq.heappush(self._heap,
                           (PRIORITIES[priority], next(self._seq),
                            job.job_id))
            self._prune_locked()
            self._cond.notify()
            return job, "queued"

    def _prune_locked(self) -> None:
        """Evict the earliest-*finished* records past :attr:`max_records`.

        Eviction order is finish time, not insertion order: a slow job
        that just completed is the record its submitter is still
        polling, so it must outlive the flood of cache-hit records that
        finished before it.
        """
        excess = len(self._jobs) - self.max_records
        if excess <= 0:
            return
        finished = sorted(
            (job for job in self._jobs.values()
             if job.state in (DONE, FAILED, CANCELLED)),
            key=lambda job: (job.finished_at or job.submitted_at))
        # Evict a batch (the excess plus 10% headroom), not just one:
        # at capacity a per-submit single eviction would re-sort the
        # whole finished list under the lock on every submit.
        for job in finished[:excess + self.max_records // 10]:
            del self._jobs[job.job_id]

    # -- consumers ---------------------------------------------------------

    def claim(self, timeout: Optional[float] = None) -> Optional[JobRecord]:
        """Pop the best queued job (blocking); ``None`` on timeout/close."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._closed:
                    # A closing service must refuse to *start* queued
                    # work, even if the heap is non-empty.
                    return None
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs.get(job_id)
                    if job is None or job.state != QUEUED:
                        continue  # cancelled/evicted or a stale entry
                    job.state = RUNNING
                    job.started_at = time.time()
                    return job
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if not self._heap:
                            return None

    def _release_locked(self, job: JobRecord) -> None:
        """Drop ``job``'s dedup entry — only if it still owns it.

        After a running job is settled through :meth:`cancel_claimed`,
        an identical resubmission may already occupy the digest slot; a
        straggling ``finish``/``fail`` from the old worker must not
        evict the new job's entry (later submits would then duplicate
        the computation instead of coalescing).
        """
        if self._active.get(job.digest) is job:
            self._active.pop(job.digest)

    def finish(self, job_id: str) -> None:
        """Mark a running job done and release its digest for dedup."""
        with self._cond:
            job = self._jobs[job_id]
            job.state = DONE
            job.finished_at = time.time()
            self._release_locked(job)
            self.completed += 1

    def fail(self, job_id: str, error: str) -> None:
        """Mark a running job failed (the error is served to clients)."""
        with self._cond:
            job = self._jobs[job_id]
            job.state = FAILED
            job.error = error
            job.finished_at = time.time()
            self._release_locked(job)
            self.failed += 1

    def cancel_claimed(self, job_id: str) -> None:
        """Settle a claimed job as cancelled and release its digest.

        The worker-side counterpart of :meth:`cancel`: when the thread
        that claimed a job observes ``cancel_requested`` (before or
        during execution, via :class:`JobCancelled`), it must settle
        the record through here.  Without this transition the digest
        would stay in the dedup index forever and every later identical
        submission would coalesce onto the dead job and hang.  A no-op
        for jobs already settled (e.g. a racing ``fail``).
        """
        with self._cond:
            job = self._jobs[job_id]
            if job.state != RUNNING:
                return
            job.state = CANCELLED
            job.finished_at = time.time()
            self._release_locked(job)
            self.cancelled += 1

    def update_progress(self, job_id: str,
                        progress: Dict[str, Any]) -> None:
        """Merge executor-reported progress into a running job's record.

        The anytime executors call this after republishing their
        current best artifact, so ``GET /jobs/<id>`` polls observe the
        stream without waiting for DONE.  A no-op for settled jobs
        (a racing cancel/fail must not resurrect progress).
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state != RUNNING:
                return
            job.progress.update(progress)

    def cancel(self, job_id: str) -> bool:
        """Withdraw one submission; True when the job will never run.

        Submitters are anonymous (coalesced clients share one job id),
        so cancellation is deliberately conservative: a job that ever
        coalesced a second submitter can only *shed interest* — it is
        never flipped to ``cancelled``, because a blind HTTP retry of
        one client's cancel must not kill another client's identical
        in-flight request.  Worst case the computation runs unwanted
        and its artifact is stored (dedup makes it reusable).  Only a
        queued job with a single lifetime submitter cancels outright.
        Running jobs only get ``cancel_requested`` set (best effort —
        the executor is not interrupted) and False is returned; a
        worker that honours the flag settles the job through
        :meth:`cancel_claimed`.

        Raises:
            KeyError: unknown job id.
        """
        with self._cond:
            job = self._jobs[job_id]
            if job.state == QUEUED:
                if job.submissions > 1:
                    job.submissions -= 1
                    return False  # other submitters still want it
                if job.was_coalesced:
                    return False  # anonymous retries must not kill it
                job.state = CANCELLED
                job.finished_at = time.time()
                self._active.pop(job.digest, None)
                self.cancelled += 1
                return True
            if job.state == RUNNING:
                job.cancel_requested = True
            return False

    # -- introspection -----------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        """Look up one job record."""
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        """All records, newest first (for ``GET /jobs``)."""
        with self._cond:
            return sorted(self._jobs.values(),
                          key=lambda j: j.submitted_at, reverse=True)

    def depth(self) -> int:
        """Number of jobs currently queued (not yet claimed)."""
        with self._cond:
            return sum(1 for j in self._jobs.values() if j.state == QUEUED)

    def metrics(self) -> Dict[str, Any]:
        """Queue counters for ``GET /metrics``."""
        with self._cond:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "queue_depth": states.get(QUEUED, 0),
                "running": states.get(RUNNING, 0),
                "jobs_by_state": states,
                "jobs_total": len(self._jobs),
                "coalesced": self.coalesced,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
            }

    def close(self) -> None:
        """Refuse new submissions and wake blocked workers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
