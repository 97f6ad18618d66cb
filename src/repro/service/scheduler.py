"""Bounded worker pool executing queued service jobs.

The scheduler runs N daemon threads that claim jobs from the
:class:`~repro.service.queue.JobQueue`, dispatch them through the
executor registry, persist the payload in the
:class:`~repro.service.store.ArtifactStore`, and mark the job done (or
failed, with the traceback served to clients).  Each executor is a thin
adapter from a request dataclass onto the existing experiment
pipelines (:mod:`repro.analysis.experiments`), which in turn fan work
over the shared :class:`~repro.analysis.runner.ParallelRunner` — so
one service process composes three levels of concurrency: API threads,
scheduler workers, and the runner's process pool, with the runner's
on-disk cache deduplicating *sub*-units (placements, mapping chunks,
workload shards) across distinct requests.

Worker threads are deliberately few (default 2): jobs are heavyweight
and the real parallelism lives in the runner's process pool; the
worker count only bounds how many *distinct* requests compute at once.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..analysis.runner import ParallelRunner
from .queue import JobCancelled, JobQueue, JobRecord
from .requests import (EnsembleRequest, EvaluateRequest, FidelityRequest,
                       MapRequest, PlaceRequest, Request)
from .store import ArtifactStore


@dataclass
class ExecutionContext:
    """Everything an executor needs besides the request itself."""

    runner: ParallelRunner
    store: ArtifactStore
    #: The job queue, for executors that stream progress (an ensemble
    #: publishes its partial curve after every sigma point).
    queue: Optional[JobQueue] = None


def execute_place(request: PlaceRequest, ctx: ExecutionContext,
                  job: JobRecord) -> Dict[str, Any]:
    from ..analysis.experiments import run_place_request

    return run_place_request(
        topology=request.topology,
        segment_size_mm=request.segment_size_mm,
        strategies=request.strategies, seed=request.seed,
        config=request.config, include_layouts=request.include_layouts,
        runner=ctx.runner, warm_start=request.warm_start,
        store=ctx.store)


def execute_fidelity(request: FidelityRequest, ctx: ExecutionContext,
                     job: JobRecord) -> Dict[str, Any]:
    from ..analysis.experiments import run_fidelity_request

    return run_fidelity_request(
        topology=request.topology, workloads=request.workloads,
        num_mappings=request.num_mappings, base_seed=request.base_seed,
        strategies=request.strategies,
        segment_size_mm=request.segment_size_mm, seed=request.seed,
        config=request.config, runner=ctx.runner,
        shard_count=job.options.get("shard_count"))


def execute_map(request: MapRequest, ctx: ExecutionContext,
                job: JobRecord) -> Dict[str, Any]:
    from ..analysis.experiments import run_map_request

    return run_map_request(
        benchmark=request.benchmark, topology=request.topology,
        num_mappings=request.num_mappings, base_seed=request.base_seed,
        router=request.router,
        optimization_level=request.optimization_level,
        runner=ctx.runner, chunk_size=job.options.get("chunk_size"))


def execute_evaluate(request: EvaluateRequest, ctx: ExecutionContext,
                     job: JobRecord) -> Dict[str, Any]:
    from ..analysis.experiments import run_evaluate_request

    return run_evaluate_request(
        topologies=request.topologies, benchmarks=request.benchmarks,
        num_mappings=request.num_mappings,
        segment_size_mm=request.segment_size_mm, seed=request.seed,
        config=request.config, runner=ctx.runner)


def execute_ensemble(request: EnsembleRequest, ctx: ExecutionContext,
                     job: JobRecord) -> Dict[str, Any]:
    """Monte-Carlo disorder ensemble with streamed per-sigma progress.

    After each completed sigma point the partial curve is published
    under the job's digest and ``JobRecord.progress`` advances, so
    clients polling ``GET /jobs/<id>`` watch the yield curve grow point
    by point.  Cancellation is honoured at point
    boundaries.
    """
    from ..ensembles import run_ensemble_request

    started = time.perf_counter()
    state: Dict[str, Any] = {
        "kind": "ensemble",
        "topology": request.topology,
        "strategy": request.strategy,
        "samples": request.samples,
        "points": [],
    }

    def on_point(index: int, point: Dict[str, Any]) -> None:
        if job.cancel_requested:
            raise JobCancelled(job.job_id)
        state["points"] = list(state["points"]) + [point]
        ctx.store.put(job.digest, dict(state), metadata={
            "kind": job.kind,
            "request": _canonical_request(request),
            "compute_s": time.perf_counter() - started,
        })
        if ctx.queue is not None:
            ctx.queue.update_progress(job.job_id, {
                "published": index + 1,
                "total": len(request.sigmas),
                "sigma_qubit_ghz": point["sigma_qubit_ghz"],
                "yield": point["yield"],
                "yield_after_repair": point["yield_after_repair"],
            })

    payload = run_ensemble_request(
        topology=request.topology, sigmas=request.sigmas,
        samples=request.samples,
        resonator_sigma_scale=request.resonator_sigma_scale,
        base_seed=request.base_seed, strategy=request.strategy,
        segment_size_mm=request.segment_size_mm, seed=request.seed,
        config=request.config, repair_samples=request.repair_samples,
        max_ph_percent=request.max_ph_percent,
        warm_start=request.warm_start, bootstrap=request.bootstrap,
        runner=ctx.runner, chunk_size=job.options.get("chunk_size"),
        store=ctx.store, on_point=on_point)
    return payload


#: Request kind -> executor.  Execution hints (chunk/shard sizes) come
#: from the job envelope, never the digest-bearing request.
EXECUTORS: Dict[str, Callable[[Request, ExecutionContext, JobRecord],
                              Dict[str, Any]]] = {
    "place": execute_place,
    "fidelity": execute_fidelity,
    "map": execute_map,
    "evaluate": execute_evaluate,
    "ensemble": execute_ensemble,
}


class Scheduler:
    """Worker threads draining the job queue onto the runner.

    Args:
        queue: The dedup job queue to claim from.
        store: Artifact store results are persisted into.
        workers: Worker-thread count (concurrent distinct requests).
        runner: Shared job runner; a default-constructed
            :class:`ParallelRunner` when omitted.
        executors: Kind -> executor override (tests inject stubs).
    """

    def __init__(self, queue: JobQueue, store: ArtifactStore,
                 workers: int = 2,
                 runner: Optional[ParallelRunner] = None,
                 executors: Optional[Dict[str, Callable]] = None) -> None:
        if workers < 1:
            raise ValueError("need at least one scheduler worker")
        self.queue = queue
        self.store = store
        self.workers = workers
        self.runner = runner if runner is not None else ParallelRunner()
        self.executors = dict(EXECUTORS if executors is None else executors)
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._busy = 0
        #: Total computations (not coalesced, not cache hits).
        self.computations = 0
        #: Recent computed digests (bounded) — the dedup gate of
        #: ``benchmarks/bench_perf_service.py`` inspects these.
        self.computed_digests: List[str] = []
        self.compute_seconds = 0.0
        self._max_digest_log = 8192

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        for k in range(self.workers):
            thread = threading.Thread(target=self._work, daemon=True,
                                      name=f"repro-service-worker-{k}")
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop claiming new jobs and join the workers.

        Workers that outlive the join timeout (mid-computation) stay
        tracked, so a later :meth:`start` cannot spawn duplicates
        alongside them.
        """
        self._stop.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = [t for t in self._threads if t.is_alive()]

    # -- execution ---------------------------------------------------------

    def _work(self) -> None:
        while not self._stop.is_set():
            job = self.queue.claim(timeout=0.2)
            if job is None:
                continue
            with self._lock:
                self._busy += 1
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._busy -= 1

    def _execute(self, job: JobRecord) -> None:
        executor = self.executors.get(job.kind)
        if executor is None:
            self.queue.fail(job.job_id, f"no executor for kind {job.kind!r}")
            return
        if job.cancel_requested:
            # Cancelled between queueing and the claim: settle without
            # computing, releasing the digest for future submissions.
            self.queue.cancel_claimed(job.job_id)
            return
        started = time.perf_counter()
        try:
            result = executor(job.request, ExecutionContext(
                runner=self.runner, store=self.store,
                queue=self.queue), job)
            elapsed = time.perf_counter() - started
            metadata = {
                "kind": job.kind,
                "request": _canonical_request(job.request),
                "compute_s": elapsed,
            }
            # Content-addressed artifacts (map results carry the circuit
            # digest) are discoverable by circuit via the store's
            # metadata scan without loading result payloads.
            if (isinstance(result, dict)
                    and result.get("circuit_digest") is not None):
                metadata["circuit_digest"] = result["circuit_digest"]
            self.store.put(job.digest, result, metadata=metadata)
        except JobCancelled:
            self.queue.cancel_claimed(job.job_id)
            return
        except Exception:
            self.queue.fail(job.job_id, traceback.format_exc())
            return
        except BaseException:
            # SystemExit/KeyboardInterrupt out of an executor would
            # otherwise kill this worker thread with the job still
            # RUNNING and its digest stuck in the dedup index — every
            # later identical submission would coalesce onto the dead
            # job and hang.  Settle the record, then let it propagate.
            self.queue.fail(job.job_id, traceback.format_exc())
            raise
        with self._lock:
            self.computations += 1
            self.computed_digests.append(job.digest)
            if len(self.computed_digests) > self._max_digest_log:
                del self.computed_digests[:self._max_digest_log // 2]
            self.compute_seconds += elapsed
        self.queue.finish(job.job_id)

    # -- introspection -----------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """Worker counters for ``GET /metrics``."""
        with self._lock:
            busy = self._busy
            computations = self.computations
            compute_seconds = self.compute_seconds
        return {
            "workers": self.workers,
            "busy_workers": busy,
            "worker_utilization": busy / self.workers,
            "computations": computations,
            "compute_seconds": compute_seconds,
        }


def _canonical_request(request: Request) -> Any:
    from ..io.serialization import canonicalize

    return canonicalize(request)
