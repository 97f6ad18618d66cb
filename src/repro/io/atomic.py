"""Crash- and race-safe file writes.

The content-addressed store (:mod:`repro.io.store`), which holds both
the runner's pickled results and the service's artifacts, persists
entries that several writers may produce concurrently: pool workers
racing on the same job token, and — since the service runs its
scheduler workers as *threads* — multiple writers inside one process.
A write-in-place ``open(path, "wb")`` truncates the destination before
the new bytes land, so a reader (or a second writer) racing the call
can observe a torn entry.

The store therefore writes through :func:`atomic_write_bytes`: the
payload goes to a temporary file in the destination directory — unique
per process, thread, *and* call, so even same-pid threads never share a
temp file — and is moved over the destination with :func:`os.replace`,
which is atomic on POSIX and Windows.  Readers see either the old entry
or the complete new one, never a mixture; concurrent writers race only
on which complete entry wins.
"""

from __future__ import annotations

import itertools
import os
import threading
from pathlib import Path
from typing import Union

PathLike = Union[str, Path]

#: Per-process counter making temp names unique across calls from the
#: same thread (e.g. a retry after a failed rename).
_SEQUENCE = itertools.count()


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    Parent directories are created as needed.  On any failure the temp
    file is removed and the destination is left untouched — either its
    previous content or a complete winner of a concurrent race.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (
        f".{path.name}.tmp.{os.getpid()}.{threading.get_ident()}."
        f"{next(_SEQUENCE)}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> None:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))
