"""Disorder-ensemble gates: service fan-out, caching, repair speedup.

The Monte-Carlo ensemble engine's acceptance harness.  Two stages:

* **service** — a 64-sample eagle-tier ensemble runs end-to-end through
  a live :class:`~repro.service.api.PlacementService`: the sample range
  fans out as chunked runner jobs, progress streams one entry per sigma
  point via ``GET /jobs/<id>``, yield-after-repair dominates the frozen
  yield at every point, and an identical re-submission is served
  straight from the artifact store (``cache_hit``);
* **repair speed** — at matched sigma and matched (default-quality)
  config, incrementally repairing a realisation (cached positions ->
  re-legalize -> dirty-set transactional detailed pass) must be >=
  :data:`MIN_REPAIR_SPEEDUP`x faster than a from-scratch global
  placement of the noisy netlist.  Both legs time placement work only;
  the ``check_layout_legal`` verdict on every repaired layout is a
  separate untimed gate.

Machine-readable JSON goes to ``benchmarks/results/perf_ensembles.json``.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List

import numpy as np

from repro.analysis.experiments import _effective_config
from repro.core import PlacerConfig, QPlacer
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, get_topology, \
    netlist_with_frequencies
from repro.ensembles import (DisorderSpec, check_layout_legal,
                             place_from_scratch, problem_with_frequencies,
                             repair_positions, sample_batch)
from repro.service import PlacementService, ServiceClient

from conftest import FULL, emit

#: Required incremental-repair speedup over from-scratch placement.
MIN_REPAIR_SPEEDUP = 3.0

#: Ensemble size of the service gate (the acceptance number).
SAMPLES = 64

#: Runner chunk size: 64 samples -> 4 chunk jobs.
CHUNK_SIZE = 16

#: Sigma sweep of the service gate.
SIGMAS = (0.01, 0.02, 0.05) if FULL else (0.05,)

#: Disorder realisations timed per leg of the repair race.
REPAIR_RACE_SAMPLES = 3

#: Matched sigma of the repair race (strong enough to break layouts).
RACE_SIGMA = 0.05

#: Fast-but-real placer settings (the service gate is about the
#: ensemble machinery, not placement quality).
FAST_CONFIG: Dict[str, object] = {
    "max_iterations": 60, "min_iterations": 10, "num_bins": 32,
}

#: Repair-race placer settings: the *default* iteration budget, i.e.
#: what a from-scratch re-placement actually costs users.  Both race
#: legs share this config.
RACE_CONFIG: Dict[str, object] = {"num_bins": 32}


def _service_gate(client: ServiceClient,
                  service: PlacementService) -> Dict[str, object]:
    """64-sample eagle ensemble through the live service."""
    request = {
        "topology": "eagle-127",
        "sigmas": list(SIGMAS),
        "samples": SAMPLES,
        "repair_samples": 2,
        "config": FAST_CONFIG,
        "bootstrap": 100,
    }
    start = time.perf_counter()
    job = client.submit("ensemble", request,
                        options={"chunk_size": CHUNK_SIZE})
    record = client.wait(job["job_id"], timeout=1800)
    first_s = time.perf_counter() - start
    result = client.artifact(record["artifact"])["result"]
    progress = record.get("progress") or {}

    start = time.perf_counter()
    again = client.submit("ensemble", request,
                          options={"chunk_size": CHUNK_SIZE})
    client.wait(again["job_id"], timeout=60)
    resubmit_s = time.perf_counter() - start

    return {
        "topology": "eagle-127",
        "samples": SAMPLES,
        "sigmas": list(SIGMAS),
        "chunk_size": CHUNK_SIZE,
        "chunks_per_point": [p["chunks"] for p in result["points"]],
        "progress_published": progress.get("published"),
        "progress_total": progress.get("total"),
        "points": [
            {"sigma_qubit_ghz": p["sigma_qubit_ghz"],
             "yield": p["yield"],
             "yield_ci": p["yield_ci"],
             "yield_after_repair": p["yield_after_repair"],
             "repair_attempted": p["repair"]["attempted"],
             "repair_legal_all": p["repair"]["legal_all"],
             "mean_ph_percent": round(p["mean_ph_percent"], 4),
             "fidelity_mean": round(p["fidelity_mean"], 6)}
            for p in result["points"]
        ],
        "first_run_s": round(first_s, 3),
        "resubmit_s": round(resubmit_s, 3),
        "resubmit_disposition": again["disposition"],
        "ensemble_phase_s": {
            name: round(entry["seconds"], 3)
            for name, entry in result["phases"].items()
            if name.startswith("ensemble/") and name.count("/") == 1},
    }


def _repair_race(report_samples: int = REPAIR_RACE_SAMPLES
                 ) -> Dict[str, object]:
    """Incremental repair vs from-scratch placement at matched sigma.

    Each leg times only the placement work: the repair leg re-tunes the
    design problem to the noisy frequencies and runs re-legalization
    plus the dirty-set detailed polish on the cached positions; the
    scratch leg runs the full placer on the noisy netlist.  Legality of
    every repaired layout is verified afterwards, outside the timing.
    """
    effective = _effective_config(PlacerConfig(**RACE_CONFIG), 0, 0.3)
    netlist = build_netlist(get_topology("eagle-127"))
    design = QPlacer(effective).place(netlist).layout
    design_problem = build_problem(netlist, effective)

    disorder = DisorderSpec(RACE_SIGMA, RACE_SIGMA * 0.5)
    batch = sample_batch(netlist, disorder, base_seed=0,
                         count=report_samples)
    noisy = [netlist_with_frequencies(netlist, *batch.row(i))
             for i in range(report_samples)]
    cached = design.positions

    repaired: List[tuple] = []
    start = time.perf_counter()
    for n in noisy:
        problem = problem_with_frequencies(design_problem, n)
        repaired.append((problem, repair_positions(problem, cached,
                                                   effective)))
    repair_s = time.perf_counter() - start

    start = time.perf_counter()
    scratched = [place_from_scratch(n, effective) for n in noisy]
    scratch_s = time.perf_counter() - start

    legal = [check_layout_legal(problem, pos) for problem, pos in repaired]
    moved = [float(np.abs(pos - cached).sum()) for _, pos in repaired]
    return {
        "topology": "eagle-127",
        "sigma": RACE_SIGMA,
        "samples": report_samples,
        "repair_s": round(repair_s, 3),
        "scratch_s": round(scratch_s, 3),
        "speedup": round(scratch_s / repair_s, 2) if repair_s else
            float("inf"),
        "repair_legal": legal,
        "repair_moved_mm": [round(m, 3) for m in moved],
        "scratch_layouts": len(scratched),
    }


def test_perf_ensembles(results_dir, tmp_path):
    with PlacementService(store_dir=tmp_path / "store", port=0, workers=1,
                          runner_workers=2) as service:
        client = ServiceClient(service.base_url, timeout=60.0)
        report: Dict[str, object] = {
            "bench": "perf_ensembles",
            "mode": "full" if FULL else "smoke",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "min_repair_speedup": MIN_REPAIR_SPEEDUP,
            "service": _service_gate(client, service),
            "repair_race": _repair_race(),
        }

    text = json.dumps(report, indent=2)
    emit(results_dir, "perf_ensembles", text)
    (results_dir / "perf_ensembles.json").write_text(text + "\n")

    # -- gates ----------------------------------------------------------
    svc = report["service"]
    expected_chunks = -(-SAMPLES // CHUNK_SIZE)
    assert all(c == expected_chunks for c in svc["chunks_per_point"]), \
        f"expected {expected_chunks} chunk jobs/point, got " \
        f"{svc['chunks_per_point']}"
    assert svc["progress_published"] == len(SIGMAS), \
        f"progress published {svc['progress_published']} of {len(SIGMAS)}"
    assert svc["progress_total"] == len(SIGMAS)
    for point in svc["points"]:
        assert point["yield_after_repair"] >= point["yield"] - 1e-12, \
            f"repair lowered yield at sigma {point['sigma_qubit_ghz']}"
        assert point["repair_legal_all"], \
            f"illegal repaired layout at sigma {point['sigma_qubit_ghz']}"
    assert svc["resubmit_disposition"] == "cache_hit", \
        f"re-submission not served from the artifact store: " \
        f"{svc['resubmit_disposition']}"
    assert svc["resubmit_s"] < svc["first_run_s"]

    race = report["repair_race"]
    assert all(race["repair_legal"]), "incremental repair left an " \
        "illegal layout"
    assert race["speedup"] >= MIN_REPAIR_SPEEDUP, \
        (f"incremental repair only {race['speedup']}x faster than "
         f"from-scratch (gate {MIN_REPAIR_SPEEDUP}x)")
