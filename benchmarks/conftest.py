"""Shared fixtures for the per-figure benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints the corresponding rows.  Placement suites are cached per session
so e.g. Fig. 11, 12, and 13 share the same layouts (as in the paper).

Set ``REPRO_BENCH_FULL=1`` to run the paper-scale protocol (all six
topologies, 50 mapping subsets); the default keeps the suite fast enough
for CI while preserving every trend.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.analysis import ParallelRunner, PlacementJob, PlacementSuite
from repro.io.store import Store

# The identity gates measure against the scalar oracles in
# ``tests/oracles``; make the repository root importable however pytest
# was started.
_REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

#: Paper-scale protocol toggle.
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Topologies evaluated by default (all six under REPRO_BENCH_FULL=1).
BENCH_TOPOLOGIES = (
    ("grid-25", "xtree-53", "falcon-27", "eagle-127", "aspen11-40", "aspenm-80")
    if FULL else
    ("grid-25", "falcon-27", "aspen11-40")
)

#: Mapping subsets per (benchmark, topology): 50 in the paper.
NUM_MAPPINGS = 50 if FULL else 12

#: Benchmarks evaluated in the fidelity experiments.
BENCH_CIRCUITS = (
    ("bv-4", "bv-9", "bv-16", "qaoa-4", "qaoa-9", "ising-4", "qgan-4", "qgan-9")
    if FULL else
    ("bv-4", "bv-16", "qaoa-9", "ising-4", "qgan-4")
)

_SUITE_CACHE: Dict[Tuple[str, float], PlacementSuite] = {}

#: Placement jobs route through the parallel runner; a store at
#: ``$REPRO_CACHE_DIR`` (off by default) persists suites across bench
#: sessions, on top of this in-memory per-session cache.
_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR")
_RUNNER = ParallelRunner(store=Store(_CACHE_DIR) if _CACHE_DIR else None)


def get_suite(topology_name: str, segment_size_mm: float = 0.3) -> PlacementSuite:
    """Session-cached placement suite (qplacer + classic + human).

    The first request for a default-sized suite prewarms *all* bench
    topologies through the runner in one batch, so multi-worker runs
    place them concurrently instead of one figure at a time.
    """
    key = (topology_name, segment_size_mm)
    if key not in _SUITE_CACHE:
        wanted = [key]
        if segment_size_mm == 0.3:
            wanted += [(name, segment_size_mm) for name in BENCH_TOPOLOGIES
                       if (name, segment_size_mm) not in _SUITE_CACHE
                       and name != topology_name]
        jobs = [PlacementJob(topology=name, segment_size_mm=lb)
                for name, lb in wanted]
        for (name, lb), suite in zip(wanted, _RUNNER.run_suites(jobs)):
            _SUITE_CACHE[(name, lb)] = suite
    return _SUITE_CACHE[key]


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory collecting the printed tables as text artefacts."""
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a table and persist it under ``benchmarks/results/``."""
    print("\n" + text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
