"""The placement service as a child process of the benchmark.

The service runs in its own process (``repro serve --workers 1 --jobs
1``), so the benchmark's HTTP client does not share its interpreter lock.
Its peak RSS is read from the child's own rusage when it is reaped.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.service.client import ServiceClient, ServiceError

#: Seconds the service gets to print its listening line.
BOOT_TIMEOUT_S = 60.0

#: Seconds the service gets to drain and exit after ``/shutdown``.
STOP_TIMEOUT_S = 30.0


class ServiceProcess:
    """One ``repro serve`` child, untraced or under the traced launcher.

    Args:
        root: Checkout root (holds ``src/`` and ``perfbench/``).
        store_dir: Artifact-store directory of this service instance.
        trace_out: When set, the service runs under
            :mod:`perfbench.serve_traced`, which writes its spans there
            at shutdown.
    """

    def __init__(self, root: Path, store_dir: Path,
                 trace_out: Optional[Path] = None) -> None:
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--workers", "1", "--jobs", "1",
                 "--store-dir", str(store_dir)]
        if trace_out is None:
            cmd: List[str] = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, "-m", "perfbench.serve_traced",
                   str(trace_out), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env.pop("REPRO_CACHE_DIR", None)
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=subprocess.PIPE, text=True)
        self.peak_rss_mb: Optional[float] = None
        try:
            self.base_url = self._read_url()
        except BaseException:
            self.kill()
            raise
        self.client = ServiceClient(self.base_url, timeout=120.0)

    def _read_url(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        return line.split(marker, 1)[1].split()[0]

    def _reap(self, timeout: float) -> bool:
        """Wait for the child; keeps its rusage.  False on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            pid, _, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
                self.proc.returncode = 0
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    def stop(self) -> float:
        """Shut the service down cleanly; returns its peak RSS in MB."""
        try:
            self.client.shutdown()
        except ServiceError:
            pass  # already gone: reaping below still collects it
        if not self._reap(STOP_TIMEOUT_S):
            self.kill()
            raise RuntimeError("service did not exit after /shutdown")
        self.proc.stdout.close()
        return self.peak_rss_mb

    def kill(self) -> None:
        """Last resort: kill and reap the child."""
        if self.proc.returncode is None:
            self.proc.kill()
            self._reap(STOP_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
