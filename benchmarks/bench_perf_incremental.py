"""Incremental placement engine: identity + engagement gates.

Above the size threshold the engine's inner loop has three moving
parts — frequency-banded neighbor-list candidates, Verlet list reuse,
and incremental density updates with periodic full-rebuild checkpoints.
This harness pins the contracts that make them safe:

* **eagle-127 bit-identity**: eagle-127 built with the above-threshold
  numbers (3 mm pair cutoff), its density term swapped for incremental
  updates flushed on every evaluation
  (``DensityGrid.evaluate_incremental(..., flush=True)``, every moved
  instance re-scattered), must reproduce, bit for bit, the same engine
  with its density term swapped for the full recompute
  (``DensityGrid.evaluate``) — every flush adopts a fresh rasterise, so
  flush-1 *is* the exact recompute plus a live divergence assertion;
* **banding**: at the condor tier's converged positions, frequency-
  banded candidate generation must screen fewer spatial candidates than
  the unbanded grid;
* **condor wall clock**: under ``REPRO_BENCH_FULL=1``, condor-1121
  global placement lands in single-digit seconds.

Telemetry (rebuild/reuse counts, flush counts and max checkpoint error,
peak pair/candidate high-water marks) goes to
``benchmarks/results/perf_incremental.json``.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict

import numpy as np

from repro.core import engine, preprocess
from repro.core.config import PlacerConfig
from repro.core.engine import GlobalPlacer
from repro.core.interactions import frequency_bands, grid_candidate_pairs
from repro.core.preprocess import build_problem
from repro.devices.netlist import build_netlist
from repro.devices.topology import get_topology

from conftest import FULL, emit

#: Full-mode wall-clock gate: condor-1121 global placement must land in
#: single-digit seconds.
MAX_CONDOR_1121_PLACE_S = 10.0

CONDOR_TOPOLOGY = "condor-1121" if FULL else "condor-sm-433"


def _run(topology: str, density: str = "engine") -> Dict[str, object]:
    """Global placement of ``topology``; ``density`` swaps the engine's
    density term for the full recompute (``"full"``) or for incremental
    updates that re-scatter every moved instance and flush (check
    against a full rasterise) on every evaluation (``"flush1"``)."""
    config = PlacerConfig()
    problem = build_problem(build_netlist(get_topology(topology)), config)
    placer = GlobalPlacer(problem, config)
    if density == "full":
        placer._density = placer.density.evaluate
    elif density == "flush1":
        placer._density = lambda positions: \
            placer.density.evaluate_incremental(positions, 0.0, flush=True)
    t0 = time.perf_counter()
    result = placer.run()
    place_s = time.perf_counter() - t0
    return {
        "topology": topology,
        "freq_pair_cutoff_mm": round(problem.freq_pair_cutoff_mm, 3),
        "density_flush_interval": problem.density_flush_interval,
        "density": density,
        "num_instances": problem.num_instances,
        "place_s": round(place_s, 3),
        "iterations": result.iterations,
        "converged": result.converged,
        "final_overflow": result.final_overflow,
        "peak_collision_pairs": result.peak_collision_pairs,
        "peak_pair_candidates": result.peak_pair_candidates,
        "freq_list_rebuilds": result.freq_list_rebuilds,
        "freq_list_reuses": result.freq_list_reuses,
        "density_flushes": result.density_flushes,
        "density_rescattered": result.density_rescattered,
        "density_max_flush_error": result.density_max_flush_error,
        "positions": result.positions,
        "problem": problem,
    }


def _strip(row: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in row.items()
            if k not in ("positions", "problem")}


def _candidate_counts(row: Dict[str, object]) -> Dict[str, int]:
    """Neighbor-list candidates at a run's final positions, with and
    without frequency banding (same reach as the engine's rebuilds)."""
    problem = row["problem"]
    reach = problem.freq_pair_cutoff_mm + engine.FREQ_PAIR_SKIN_MM
    bands = frequency_bands(problem.frequencies,
                            problem.config.detuning_threshold_ghz)
    positions = row["positions"]
    banded, _ = grid_candidate_pairs(positions, reach, sort=False,
                                     bands=bands)
    unbanded, _ = grid_candidate_pairs(positions, reach, sort=False)
    return {"banded": int(banded.size), "unbanded": int(unbanded.size)}


def test_perf_incremental(results_dir, monkeypatch):
    # -- gate 1: eagle-127 flush-1 bit-identity -------------------------
    with monkeypatch.context() as patch:
        # eagle-127 built with the above-threshold numbers.
        patch.setattr(preprocess, "SPARSE_MIN_INSTANCES", 0)
        eagle_inc = _run("eagle-127", density="flush1")
        eagle_ref = _run("eagle-127", density="full")
    identical = bool(np.array_equal(eagle_inc["positions"],
                                    eagle_ref["positions"]))

    # -- gate 2: the condor defaults, banding candidate reduction -------
    condor = _run(CONDOR_TOPOLOGY)
    candidates = _candidate_counts(condor)

    report = {
        "bench": "perf_incremental",
        "mode": "full" if FULL else "smoke",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "eagle_flush1_identity": identical,
        "eagle_incremental": _strip(eagle_inc),
        "eagle_reference": _strip(eagle_ref),
        "condor_topology": CONDOR_TOPOLOGY,
        "condor": _strip(condor),
        "condor_candidates": candidates,
    }
    text = json.dumps(report, indent=2)
    emit(results_dir, "perf_incremental", text)
    (results_dir / "perf_incremental.json").write_text(text + "\n")

    # -- gates ----------------------------------------------------------
    assert eagle_inc["freq_pair_cutoff_mm"] == \
        eagle_ref["freq_pair_cutoff_mm"] == preprocess.FREQ_PAIR_CUTOFF_MM
    assert identical, \
        "flush-every-iteration incremental density diverged from the " \
        "full recompute on eagle-127"
    # flush-1 means every incremental evaluation ran the divergence
    # checkpoint; the recorded worst error stays within float drift.
    assert eagle_inc["density_flushes"] >= eagle_inc["iterations"]
    assert eagle_ref["density_flushes"] == 0
    if FULL:
        assert condor["place_s"] <= MAX_CONDOR_1121_PLACE_S, (
            f"condor-1121 global placement took {condor['place_s']}s "
            f"(> {MAX_CONDOR_1121_PLACE_S}s)")
    # the above-threshold machinery actually engaged on the condor tier
    assert condor["freq_list_reuses"] > 0, "Verlet list never reused"
    assert condor["density_flushes"] > 0, "incremental density never flushed"
    assert condor["density_rescattered"] > 0
    # banding must shrink the candidate screening set
    assert candidates["banded"] < candidates["unbanded"], candidates
