"""Python client for the placement service (urllib, no dependencies).

Mirrors the HTTP API one method per route, plus the convenience
:meth:`ServiceClient.run` (submit, wait, fetch the artifact result) the
CI smoke test and benchmarks drive end to end::

    client = ServiceClient("http://127.0.0.1:8754")
    result = client.run("place", {"topology": "grid-25"})

Errors come back as :class:`ServiceError` carrying the HTTP status and
the server's ``error`` message.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

#: Default per-request socket timeout (seconds).
DEFAULT_TIMEOUT = 30.0


class ServiceError(RuntimeError):
    """An HTTP-level service failure (4xx/5xx or transport error)."""

    def __init__(self, message: str, status: Optional[int] = None,
                 payload: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class JobFailed(ServiceError):
    """A job finished in the ``failed`` state; ``payload`` is the record."""


class ServiceClient:
    """Talk to one running :class:`~repro.service.api.PlacementService`.

    Args:
        base_url: e.g. ``"http://127.0.0.1:8754"`` (trailing slash ok).
        timeout: Socket timeout per HTTP call.
        token: Bearer token sent on ``POST /shutdown`` (the only
            authenticated route); ``None`` sends no Authorization.
    """

    def __init__(self, base_url: str,
                 timeout: float = DEFAULT_TIMEOUT,
                 token: Optional[str] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = token

    # -- transport ---------------------------------------------------------

    def _call(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              headers: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode()
        merged = {"Content-Type": "application/json"}
        merged.update(headers or {})
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers=merged)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read() or b"{}")
            except ValueError:
                payload = {}
            message = payload.get("error", str(exc))
            raise ServiceError(message, status=exc.code,
                               payload=payload) from None
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach {self.base_url}: "
                               f"{exc.reason}") from None

    # -- routes ------------------------------------------------------------

    def submit(self, kind: str, request: Dict[str, Any],
               priority: str = "normal",
               options: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """POST /jobs; returns the job record (with ``disposition``)."""
        body: Dict[str, Any] = {"kind": kind, "request": request,
                                "priority": priority}
        if options:
            body["options"] = options
        return self._call("POST", "/jobs", body)

    def job(self, job_id: str) -> Dict[str, Any]:
        """GET /jobs/<id>."""
        return self._call("GET", f"/jobs/{job_id}")

    def jobs(self) -> Dict[str, Any]:
        """GET /jobs."""
        return self._call("GET", "/jobs")

    def artifact(self, digest: str) -> Dict[str, Any]:
        """GET /artifacts/<digest> (the full stored document)."""
        return self._call("GET", f"/artifacts/{digest}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """POST /jobs/<id>/cancel."""
        return self._call("POST", f"/jobs/{job_id}/cancel")

    def healthz(self) -> Dict[str, Any]:
        """GET /healthz."""
        return self._call("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """GET /metrics."""
        return self._call("GET", "/metrics")

    def shutdown(self) -> Dict[str, Any]:
        """POST /shutdown (clean stop; bearer-authenticated if set)."""
        headers = ({"Authorization": f"Bearer {self.token}"}
                   if self.token is not None else None)
        return self._call("POST", "/shutdown", {}, headers=headers)

    def ensemble(self, topology: str, sigmas, samples: int = 64,
                 repair_samples: int = 0, strategy: str = "qplacer",
                 base_seed: int = 0,
                 options: Optional[Dict[str, Any]] = None,
                 timeout: float = 600.0, **fields: Any) -> Any:
        """Submit a disorder-ensemble job and return its final payload.

        Extra request fields (``max_ph_percent``, ``warm_start``, ...)
        pass through ``**fields``; execution hints (``chunk_size``) go
        in ``options``.
        """
        request = {"topology": topology, "sigmas": list(sigmas),
                   "samples": samples, "repair_samples": repair_samples,
                   "strategy": strategy, "base_seed": base_seed,
                   **fields}
        return self.run("ensemble", request, options=options,
                        timeout=timeout)

    # -- conveniences ------------------------------------------------------

    def wait(self, job_id: str, timeout: float = 600.0,
             poll_s: float = 0.05) -> Dict[str, Any]:
        """Poll until the job leaves queued/running; returns the record.

        Raises:
            JobFailed: the job finished ``failed`` (server traceback in
                the record's ``error`` field).
            ServiceError: timeout, cancellation, or transport failure.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            state = record.get("state")
            if state == "done":
                return record
            if state == "failed":
                raise JobFailed(f"job {job_id} failed: "
                                f"{record.get('error', '')[-2000:]}",
                                payload=record)
            if state == "cancelled":
                raise ServiceError(f"job {job_id} was cancelled",
                                   payload=record)
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout}s waiting for {job_id} "
                    f"(state {state!r})", payload=record)
            time.sleep(poll_s)

    def result(self, job_id: str, timeout: float = 600.0) -> Any:
        """Wait for a job and return its artifact's ``result`` payload."""
        record = self.wait(job_id, timeout=timeout)
        return self.artifact(record["artifact"])["result"]

    def run(self, kind: str, request: Dict[str, Any],
            priority: str = "normal",
            options: Optional[Dict[str, Any]] = None,
            timeout: float = 600.0) -> Any:
        """Submit one request and return its result payload."""
        job = self.submit(kind, request, priority=priority, options=options)
        return self.result(job["job_id"], timeout=timeout)
