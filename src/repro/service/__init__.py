"""Placement-as-a-service: job queue, artifact store, HTTP API.

The service turns the one-shot experiment pipelines into a long-running
process serving *requests* — "place this topology under this config",
"score this workload suite", "compile this mapping batch" — with:

* :mod:`repro.service.requests` — the typed request model and its
  canonicalisation/validation rules;
* :mod:`repro.service.store` — a content-addressed artifact store
  keyed by the request digest (canonical JSON +
  :data:`~repro.analysis.runner.CACHE_SCHEMA_VERSION`);
* :mod:`repro.service.queue` — an async job queue with request
  deduplication (identical in-flight digests coalesce to one
  computation), priority tiers, and cancellation;
* :mod:`repro.service.scheduler` — bounded worker threads dispatching
  jobs onto the existing :class:`~repro.analysis.runner.ParallelRunner`
  / :class:`~repro.analysis.runner.WorkloadShardJob` machinery;
* :mod:`repro.service.api` — a stdlib-only threading HTTP server
  (``POST /jobs``, ``GET /jobs/<id>``, ``GET /artifacts/<digest>``,
  ``GET /healthz``, ``GET /metrics``);
* :mod:`repro.service.client` — a urllib-based Python client.

``python -m repro serve`` runs the whole stack; see ``docs/service.md``.
"""

from .api import PlacementService
from .client import JobFailed, ServiceClient, ServiceError
from .queue import (
    CANCELLED,
    DONE,
    FAILED,
    PRIORITIES,
    QUEUED,
    RUNNING,
    JobQueue,
    JobRecord,
)
from .requests import (
    REQUEST_TYPES,
    EvaluateRequest,
    FidelityRequest,
    MapRequest,
    PlaceRequest,
    RequestError,
    check_options,
    parse_request,
)
from .scheduler import EXECUTORS, ExecutionContext, Scheduler
from .store import ArtifactRecord, ArtifactStore, request_digest

__all__ = [
    "ArtifactRecord",
    "ArtifactStore",
    "CANCELLED",
    "DONE",
    "EXECUTORS",
    "EvaluateRequest",
    "ExecutionContext",
    "FAILED",
    "FidelityRequest",
    "JobFailed",
    "JobQueue",
    "JobRecord",
    "MapRequest",
    "PRIORITIES",
    "PlaceRequest",
    "PlacementService",
    "QUEUED",
    "REQUEST_TYPES",
    "RUNNING",
    "RequestError",
    "Scheduler",
    "ServiceClient",
    "ServiceError",
    "check_options",
    "parse_request",
    "request_digest",
]
