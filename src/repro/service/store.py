"""Content-addressed artifact store for service results.

Every service request canonicalises (:func:`repro.io.serialization.
canonicalize`) into a stable **digest** — sha256 over the request kind,
the normalised request fields, and
:data:`~repro.analysis.runner.CACHE_SCHEMA_VERSION` — and the store
maps digests to persisted results + metadata.  This is the same
canonical-JSON/schema-version scheme the parallel runner's
:func:`~repro.analysis.runner.job_token` uses, lifted to whole
requests: one schema bump invalidates both layers, and equal digests
are the service's licence to dedupe (the queue coalesces in-flight
digests; the store serves finished ones).

:class:`ArtifactStore` is a :class:`~repro.io.store.Store`, and the
service hands that one object to its runner too, so artifacts and
runner entries share one directory, one size cap, one eviction policy
and one counter table.  Artifacts are the ``objects`` namespace,
``<root>/objects/<digest[:2]>/<digest>.json``, one JSON document
each::

    {"format": "repro.artifact.v1",
     "digest": "...",
     "metadata": {"kind": ..., "request": ..., "schema": ...,
                  "created_at": ..., "compute_s": ...},
     "result": <JSON-able result payload>}

Results are stored as JSON (not pickle) so ``GET /artifacts/<digest>``
can stream them verbatim and so float results survive bit-exactly
(Python's JSON float round-trip is lossless).  A torn or foreign
document reads as a miss and is deleted, like any undecodable entry.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..analysis import runner as _runner
from ..io.serialization import canonical_json
from ..io.store import Store

PathLike = Union[str, Path]

#: On-disk artifact document format tag.
ARTIFACT_FORMAT = "repro.artifact.v1"

#: Store namespace of the artifact documents.
OBJECTS = "objects"


def _json_bytes(document: Dict[str, Any]) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode()


def request_digest(kind: str, request: Any) -> str:
    """Stable content digest of a service request.

    Covers the request kind, the canonicalised request fields, and the
    live :data:`~repro.analysis.runner.CACHE_SCHEMA_VERSION` (read at
    call time, so a version bump immediately re-keys every request).

    A request exposing ``digest_document()`` is digested by that
    document instead of its raw fields — how :class:`~repro.service.
    requests.MapRequest` normalises its benchmark *name* to the
    circuit's content digest, so aliased workload names coalesce onto
    one queue job and one artifact at submission time (layer 1), not
    just at the runner cache (layer 3).
    """
    if hasattr(request, "digest_document"):
        request = request.digest_document()
    payload = canonical_json(
        {"schema": _runner.CACHE_SCHEMA_VERSION, "kind": kind,
         "request": request})
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ArtifactRecord:
    """One stored artifact: digest, metadata, and the result payload."""

    digest: str
    metadata: Dict[str, Any]
    result: Any

    def to_document(self) -> Dict[str, Any]:
        """The on-disk / over-the-wire JSON document."""
        return {"format": ARTIFACT_FORMAT, "digest": self.digest,
                "metadata": self.metadata, "result": self.result}


class ArtifactStore(Store):
    """Artifact documents in the ``objects`` namespace of a store.

    The service hands this same store to its runner, so runner entries
    share the root, the ``max_bytes`` cap and the counter table.

    Args:
        root: Store directory (created on first write).
        max_bytes: Optional size cap over artifacts *and* runner entries
            (see :class:`~repro.io.store.Store`).
    """

    def __init__(self, root: PathLike,
                 max_bytes: Optional[int] = None) -> None:
        super().__init__(root, max_bytes=max_bytes)
        #: Digests this process has validated (successful get) or
        #: written (put) — lets hot-path callers skip re-parsing a
        #: known-good artifact.  Bounded; validity still requires the
        #: file to exist (callers pair this with :meth:`contains`).
        self._validated: set = set()
        self._max_validated = 65536

    def path(self, digest: str) -> Path:
        """On-disk location of one artifact document."""
        return self.entry(OBJECTS, digest, ".json")

    def get(self, digest: str) -> Optional[ArtifactRecord]:
        """Load one artifact; ``None`` (a miss) when absent or torn."""
        def decode(data: bytes) -> Dict[str, Any]:
            document = json.loads(data)
            if (not isinstance(document, dict)
                    or document.get("format") != ARTIFACT_FORMAT
                    or document.get("digest") != digest):
                raise ValueError(f"no artifact document for {digest}")
            return document

        found, document = self.load(OBJECTS, digest, ".json", decode)
        with self._lock:
            if not found:
                self._validated.discard(digest)
                return None
            self._remember_locked(digest)
        return ArtifactRecord(digest=digest,
                              metadata=document.get("metadata", {}),
                              result=document.get("result"))

    def contains(self, digest: str) -> bool:
        """Existence check without counting a hit/miss."""
        return self.path(digest).exists()

    def _remember_locked(self, digest: str) -> None:
        if len(self._validated) >= self._max_validated:
            self._validated.clear()  # cheap, refills on demand
        self._validated.add(digest)

    def note_hit(self) -> None:
        """Count a hit served from the :meth:`remembers` fast path.

        Callers that skip the validating read must still feed the
        hit-rate metric, or a fully warm service would report a cold
        cache.
        """
        self._count(OBJECTS, "hits")

    def remembers(self, digest: str) -> bool:
        """True when this process already validated/wrote the digest.

        A positive answer spares callers the O(artifact-size) re-parse
        of :meth:`get` on hot paths; pair it with :meth:`contains` so a
        deleted file still reads as a miss.
        """
        with self._lock:
            return digest in self._validated

    def put(self, digest: str, result: Any,
            metadata: Optional[Dict[str, Any]] = None) -> ArtifactRecord:
        """Persist one result atomically; racing writers never tear.

        The result must be JSON-serialisable (executors return plain
        payload dicts).  Metadata is stamped with the creation time and
        the live schema version.
        """
        metadata = dict(metadata or {})
        metadata.setdefault("schema", _runner.CACHE_SCHEMA_VERSION)
        metadata.setdefault("created_at", time.time())
        record = ArtifactRecord(digest=digest, metadata=metadata,
                                result=result)
        self.save(OBJECTS, digest, record.to_document(), ".json",
                  encode=_json_bytes)
        with self._lock:
            self._remember_locked(digest)
        return record

    def nearest_placement(self, topology: str,
                          segment_size_mm: Optional[float] = None
                          ) -> Optional[ArtifactRecord]:
        """Newest stored ``place`` artifact matching a topology.

        The warm-start lookup: scans the store for ``place`` artifacts
        whose request targeted ``topology`` (and, when given,
        ``segment_size_mm``) and that carry serialised layouts, and
        returns the most recently created one — or ``None`` when the
        store holds no usable match.  Torn or foreign files are
        skipped, and the scan bypasses :meth:`get` so it never skews
        the hit/miss metrics.
        """
        best: Optional[ArtifactRecord] = None
        best_created = float("-inf")
        for data in self.scan(OBJECTS, ".json"):
            try:
                document = json.loads(data)
            except ValueError:
                continue
            if (not isinstance(document, dict)
                    or document.get("format") != ARTIFACT_FORMAT):
                continue
            metadata = document.get("metadata")
            if not isinstance(metadata, dict) \
                    or metadata.get("kind") != "place":
                continue
            request = metadata.get("request")
            if isinstance(request, dict) and "__dataclass__" in request:
                request = request.get("fields")  # canonicalize() wrapper
            if not isinstance(request, dict) \
                    or request.get("topology") != topology:
                continue
            if segment_size_mm is not None and \
                    request.get("segment_size_mm") != segment_size_mm:
                continue
            result = document.get("result")
            if not isinstance(result, dict) \
                    or not result.get("strategies"):
                continue
            layouts = [s for s in result["strategies"].values()
                       if isinstance(s, dict) and s.get("layout")]
            if not layouts:
                continue  # metrics-only artifact: nothing to seed from
            created = metadata.get("created_at")
            created = created if isinstance(created, (int, float)) \
                else float("-inf")
            if best is None or created > best_created:
                best = ArtifactRecord(digest=document.get("digest", ""),
                                      metadata=metadata, result=result)
                best_created = created
        return best

    def metrics(self) -> Dict[str, Any]:
        """Artifact hit/miss counters and store-wide evictions for
        ``GET /metrics``."""
        hits = self.count("hits", OBJECTS)
        misses = self.count("misses", OBJECTS)
        total = hits + misses
        return {
            "artifact_hits": hits,
            "artifact_misses": misses,
            "artifact_hit_rate": (hits / total) if total else 0.0,
            "artifact_evictions": self.count("evictions"),
        }
