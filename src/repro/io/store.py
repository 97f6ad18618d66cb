"""One content-addressed store behind every on-disk cache.

The parallel runner pickles job results under
:func:`~repro.analysis.runner.job_token` digests, and the service keeps
JSON artifact documents under
:func:`~repro.service.store.request_digest` digests.  Both live in one
:class:`Store`, a namespace per kind of entry::

    <root>/<namespace>/<digest[:2]>/<digest><suffix>

* Writes go through :func:`repro.io.atomic.atomic_write_bytes`, so a
  reader sees a whole entry or none.
* One size cap covers every namespace: a write that takes the store
  over ``max_bytes`` evicts the oldest-mtime entries first, and never
  the entry it just wrote.
* An entry its reader cannot decode is deleted and counts as a miss, so
  a torn file costs one recompute instead of a failure per lookup.
* One counter table holds hits, misses and evictions per namespace.

The store only maps digests to bytes.  What a digest covers (the schema
version included) is up to the code that builds it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import pickle
import threading
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Tuple, Union

from .atomic import atomic_write_bytes

PathLike = Union[str, Path]

_pickle = functools.partial(pickle.dumps, protocol=pickle.HIGHEST_PROTOCOL)


class Store:
    """Namespaced digests mapped to bytes under one directory.

    Args:
        root: Store directory (created on first write).
        max_bytes: Optional size cap over all entries of all namespaces;
            ``None`` means unbounded and no write scans the directory.
    """

    def __init__(self, root: PathLike,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be a positive byte count")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()

    def __reduce__(self):
        # Pool workers get a store at the same place, with fresh counters.
        return type(self), (self.root, self.max_bytes)

    def __eq__(self, other: object) -> bool:
        # Two stores at one root hold the same entries.
        return type(other) is type(self) and other.root == self.root

    def __hash__(self) -> int:
        return hash((type(self), self.root))

    def entry(self, namespace: str, digest: str,
              suffix: str = ".pkl") -> Path:
        """Where one entry lives."""
        return self.root / namespace / digest[:2] / f"{digest}{suffix}"

    def load(self, namespace: str, digest: str, suffix: str = ".pkl",
             decode: Callable[[bytes], Any] = pickle.loads
             ) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        An absent entry is a miss.  So is one that ``decode`` raises on:
        it is deleted, and the caller's recompute writes it afresh.
        """
        path = self.entry(namespace, digest, suffix)
        try:
            value = decode(path.read_bytes())
        except Exception as exc:
            if not isinstance(exc, FileNotFoundError):
                with contextlib.suppress(OSError):  # racing unlink
                    path.unlink()
            self._count(namespace, "misses")
            return False, None
        self._count(namespace, "hits")
        return True, value

    def save(self, namespace: str, digest: str, value: Any,
             suffix: str = ".pkl",
             encode: Callable[[Any], bytes] = _pickle) -> None:
        """Write one entry atomically, then evict down to the cap.

        ``value`` is encoded before the file is touched, so a failed
        encode leaves any previous entry in place.
        """
        path = self.entry(namespace, digest, suffix)
        atomic_write_bytes(path, encode(value))
        if self.max_bytes is not None:
            self._evict_over_cap(keep=path)

    def scan(self, namespace: str, suffix: str = ".pkl") -> Iterator[bytes]:
        """Bytes of every readable entry of one namespace (uncounted)."""
        for path in (self.root / namespace).glob(f"*/*{suffix}"):
            try:
                yield path.read_bytes()
            except OSError:
                continue

    def count(self, event: str, namespace: Optional[str] = None) -> int:
        """``"hits"``, ``"misses"`` or ``"evictions"`` so far, in one
        namespace or (``None``) in all of them."""
        with self._lock:
            return sum(n for (ns, ev), n in self._counts.items()
                       if ev == event and namespace in (None, ns))

    def _count(self, namespace: str, event: str) -> None:
        with self._lock:
            self._counts[namespace, event] += 1

    def _evict_over_cap(self, keep: Path) -> None:
        """Drop oldest-mtime entries until the store fits its cap.

        ``keep`` is never evicted, so one entry larger than the cap
        still persists: the cap bounds growth, not a single write.
        Unlink races read as already evicted.
        """
        entries = []
        total = 0
        for path in self.root.glob("*/*/*"):
            if path.name.startswith("."):
                continue  # an in-flight atomic write
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.name, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        entries.sort(key=lambda e: e[:2])
        for _, _, size, path in entries:
            if path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            self._count(path.parent.parent.name, "evictions")
            total -= size
            if total <= self.max_bytes:
                break
