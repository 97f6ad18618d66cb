"""Stdlib-only HTTP API over the placement service.

A :class:`PlacementService` ties one artifact store, one job queue, one
scheduler, and one ``http.server.ThreadingHTTPServer`` together.  No
dependency beyond the standard library — request bodies and responses
are JSON.

Routes (see ``docs/service.md`` for the full reference):

========================  ====================================================
``POST /jobs``            submit ``{"kind", "request", "priority"?,
                          "options"?}``; 202 queued / 200 coalesced or
                          cache hit
``GET /jobs``             all job records, newest first
``GET /jobs/<id>``        one job record (includes ``artifact`` digest
                          when done)
``POST /jobs/<id>/cancel``  cancel a queued job (best-effort if running)
``GET /artifacts/<digest>``  the stored artifact document
``GET /healthz``          liveness + uptime
``GET /metrics``          queue depth, cache hit rate, worker utilization
``POST /shutdown``        clean stop (the CI smoke test's exit path)
========================  ====================================================
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .. import profiling
from ..analysis.runner import ParallelRunner
from .queue import JobQueue
from .requests import RequestError, check_options, parse_request
from .scheduler import Scheduler
from .store import ArtifactStore

PathLike = Union[str, Path]

_JOB_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9-]+)$")
_CANCEL_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9-]+)/cancel$")
_ARTIFACT_ROUTE = re.compile(r"^/artifacts/([0-9a-f]{64})$")

#: Digest of a hex-addressed artifact (sha256 → 64 hex chars).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Route dispatcher; the service lives on ``self.server.service``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.server.service.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _body(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            self._error(400, "invalid Content-Length header")
            return None
        if length > MAX_BODY_BYTES:
            # The oversized body is never read, so the persistent
            # HTTP/1.1 connection would desync — close it instead.
            self.close_connection = True
            self._error(413, "request body too large")
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    def _discard_body(self) -> None:
        """Drain an ignored request body so keep-alive stays in sync.

        Routes that take no payload (cancel, shutdown) must still
        consume any bytes the client sent — unread body bytes would be
        parsed as the next request line on this persistent connection.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        while length > 0:
            chunk = self.rfile.read(min(length, 65536))
            if not chunk:
                break
            length -= len(chunk)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service = self.server.service  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send(200, service.healthz())
            return
        if path == "/metrics":
            self._send(200, service.metrics())
            return
        if path == "/jobs":
            self._send(200, {"jobs": [job.to_dict()
                                      for job in service.queue.jobs()]})
            return
        match = _JOB_ROUTE.match(path)
        if match:
            job = service.queue.get(match.group(1))
            if job is None:
                self._error(404, f"unknown job {match.group(1)!r}")
                return
            self._send(200, job.to_dict())
            return
        match = _ARTIFACT_ROUTE.match(path)
        if match:
            record = service.store.get(match.group(1))
            if record is None:
                self._error(404, f"unknown artifact {match.group(1)!r}")
                return
            self._send(200, record.to_document())
            return
        self._error(404, f"no route for GET {path}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        service = self.server.service  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/jobs":
            payload = self._body()
            if payload is None:
                return
            kind = payload.get("kind")
            try:
                request = parse_request(kind, payload.get("request") or {})
                options = check_options(kind, payload.get("options") or {})
            except RequestError as exc:
                self._error(400, str(exc))
                return
            priority = payload.get("priority", "normal")
            if not isinstance(priority, str):
                self._error(400, "priority must be a string")
                return
            try:
                job, disposition = service.queue.submit(
                    kind, request, priority=priority, options=options)
            except ValueError as exc:
                self._error(400, str(exc))
                return
            except RuntimeError as exc:
                self._error(503, str(exc))
                return
            status = 202 if disposition == "queued" else 200
            self._send(status, {"disposition": disposition,
                                **job.to_dict()})
            return
        match = _CANCEL_ROUTE.match(path)
        if match:
            self._discard_body()
            try:
                stopped = service.queue.cancel(match.group(1))
            except KeyError:
                self._error(404, f"unknown job {match.group(1)!r}")
                return
            job = service.queue.get(match.group(1))
            payload = job.to_dict() if job is not None else {
                "job_id": match.group(1)}  # evicted between the calls
            self._send(200, {"cancelled": stopped, **payload})
            return
        if path == "/shutdown":
            self._discard_body()
            token = service.shutdown_token
            if token is not None:
                supplied = self.headers.get("Authorization") or ""
                if supplied != f"Bearer {token}":
                    self._error(403, "shutdown requires a valid bearer "
                                     "token (Authorization: Bearer <token>)")
                    return
            self._send(200, {"status": "stopping"})
            threading.Thread(target=service.stop, daemon=True).start()
            return
        self._error(404, f"no route for POST {path}")


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default listen backlog of 5 drops the SYNs of a
    # burst of simultaneous clients, and each dropped SYN costs a 1 s
    # TCP retransmit before the request even reaches the queue.
    request_queue_size = 64

    def __init__(self, address: Tuple[str, int],
                 service: "PlacementService") -> None:
        super().__init__(address, _Handler)
        self.service = service


class PlacementService:
    """The assembled service: store + queue + scheduler + HTTP server.

    Args:
        store_dir: Artifact-store directory.
        host, port: Bind address (``port=0`` picks a free port; read it
            back from :attr:`port` / :attr:`base_url`).
        workers: Scheduler worker threads (concurrent distinct jobs).
        runner: Shared :class:`~repro.analysis.runner.ParallelRunner`;
            when omitted, one of ``runner_workers`` processes that
            caches in the artifact store itself.
        runner_workers: Process-pool size of the default runner.
        verbose: Log HTTP requests to stderr.
        shutdown_token: Bearer token required by ``POST /shutdown``;
            ``None`` leaves the route open (local/dev default).
        store_max_bytes: Store size cap over artifacts and the default
            runner's entries (oldest-mtime eviction on write); ``None``
            means unbounded.
    """

    def __init__(self, store_dir: PathLike, host: str = "127.0.0.1",
                 port: int = 8754, workers: int = 2,
                 runner: Optional[ParallelRunner] = None,
                 runner_workers: Optional[int] = None,
                 verbose: bool = False,
                 shutdown_token: Optional[str] = None,
                 store_max_bytes: Optional[int] = None) -> None:
        self.shutdown_token = shutdown_token
        self.store = ArtifactStore(store_dir, max_bytes=store_max_bytes)
        self.queue = JobQueue(self.store)
        if runner is None:
            runner = ParallelRunner(max_workers=runner_workers,
                                    store=self.store)
        self.scheduler = Scheduler(self.queue, self.store, workers=workers,
                                   runner=runner)
        self.verbose = verbose
        self.started_at: Optional[float] = None
        self._httpd = _Server((host, port), self)
        self._serve_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._stop_done = threading.Event()
        self._stop_lock = threading.Lock()

    # -- addresses ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the scheduler and serve HTTP in a background thread."""
        self.started_at = time.time()
        self.scheduler.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True, name="repro-service-http")
        self._serve_thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting requests, drain workers, release the socket.

        Safe to call from multiple threads (the ``/shutdown`` handler
        races the ``repro serve`` main loop): exactly one caller
        performs the shutdown and every caller blocks until the drain
        has actually completed — a second caller returning early would
        let the process exit mid-drain.
        """
        with self._stop_lock:
            first = not self._stopped.is_set()
            self._stopped.set()
        if not first:
            self._stop_done.wait(timeout=timeout + 5.0)
            return
        try:
            self._httpd.shutdown()
            self._httpd.server_close()
            self.scheduler.stop(timeout=timeout)
            if self._serve_thread is not None:
                self._serve_thread.join(timeout=timeout)
                self._serve_thread = None
        finally:
            self._stop_done.set()

    def wait(self) -> None:
        """Block until :meth:`stop` runs (the ``repro serve`` loop)."""
        self._stopped.wait()

    def __enter__(self) -> "PlacementService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- introspection -----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": (time.time() - self.started_at
                         if self.started_at else 0.0),
            "workers": self.scheduler.workers,
            "store": str(self.store.root),
        }

    def metrics(self) -> Dict[str, Any]:
        """One flat JSON document combining every subsystem's counters."""
        merged = {"uptime_s": (time.time() - self.started_at
                               if self.started_at else 0.0)}
        merged.update(self.queue.metrics())
        merged.update(self.store.metrics())
        merged.update(self.scheduler.metrics())
        runner = self.scheduler.runner
        merged.update({
            "runner_cache_hits": runner.cache_hits,
            "runner_cache_misses": runner.cache_misses,
        })
        # Content-addressed circuit-compile cache activity (the
        # "mappings" namespace of the runner's store): identical
        # workload suites submitted under any name compile once;
        # re-submissions show up as hits.
        store = runner.store
        merged.update({
            f"circuit_cache_{event}": (store.count(event, "mappings")
                                       if store is not None else 0)
            for event in ("hits", "misses")
        })
        # Per-phase placement seconds accumulated by every place request
        # this process has executed (see :mod:`repro.profiling`).
        merged["phases"] = profiling.global_phases()
        return merged
