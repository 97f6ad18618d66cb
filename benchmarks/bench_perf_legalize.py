"""Performance trajectory: condor-scale legalization + detailed placement.

Gates the PR-7 tentpole — the batched spatial-hash feasibility engine
and the vectorized detailed placer — against the in-tree references:

* **bit identity** on the paper tiers and at condor scale: the
  hash-screened legalizer must reproduce the preserved seed legalizer
  (:mod:`repro.core.legalizer_reference`) exactly;
* **combined speedup**: hash-screened legalize + batched detailed
  placement must beat the seed legalizer + the scalar reference
  detailed placer (:mod:`repro.core.detailed_reference`) by at least
  :data:`MIN_COMBINED_SPEEDUP` on the condor tier;
* **quality parity**: the batched detailed placer's final wirelength
  must stay within :data:`MAX_HPWL_RATIO` of the scalar reference's;
* **profiler coverage**: the :mod:`repro.profiling` top-level phase sum
  must account for the measured wall-clock of the profiled section.

Emits ``benchmarks/results/perf_legalize.json`` (the CI artifact) with
the timings and the per-phase breakdown.  ``REPRO_BENCH_FULL=1`` runs
the 1121-qubit condor tier; smoke mode uses ``condor-sm-433``.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict

import numpy as np

from repro import profiling
from repro.core import detailed, detailed_reference, legalizer
from repro.core import legalizer_reference
from repro.core.config import PlacerConfig
from repro.core.engine import GlobalPlacer
from repro.core.preprocess import build_problem
from repro.devices.netlist import build_netlist
from repro.devices.topology import get_topology

from conftest import FULL, emit

#: Condor tier under test (full mode runs the 1121-qubit chip).
CONDOR_TOPOLOGY = "condor-1121" if FULL else "condor-sm-433"

#: Paper tiers pinned to bit-identity against the seed legalizer.
IDENTITY_TOPOLOGIES = ("grid-25", "eagle-127")

#: Required combined legalize+detailed speedup on the condor tier over
#: the two preserved references.
MIN_COMBINED_SPEEDUP = 3.0

#: Batched detailed placement may trail the scalar reference's final
#: wirelength by at most this factor (different visit order, same moves).
MAX_HPWL_RATIO = 1.02

#: Top-level phase seconds must cover at least this share of the
#: profiled section's wall clock (the rest is glue between phases).
MIN_PHASE_COVERAGE = 0.75


def _prepare(topology_name: str):
    """Problem + converged global positions for one topology."""
    config = PlacerConfig()
    problem = build_problem(build_netlist(get_topology(topology_name)),
                            config)
    positions = GlobalPlacer(problem, config).run().positions
    return config, problem, positions


def _identity_report(topology_name: str) -> Dict[str, object]:
    """Seed-reference vs hash legalization on one paper tier."""
    config, problem, gp = _prepare(topology_name)
    ref_pos, _ = legalizer_reference.legalize(problem, gp, config)
    hash_pos, _ = legalizer.legalize(problem, gp, config)
    return {
        "num_instances": problem.num_instances,
        "hash_matches_reference": bool(np.array_equal(hash_pos, ref_pos)),
    }


def test_perf_legalize(results_dir):
    report: Dict[str, object] = {
        "bench": "perf_legalize",
        "mode": "full" if FULL else "smoke",
        "condor_topology": CONDOR_TOPOLOGY,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }

    # -- paper-tier bit identity against the seed legalizer --------------
    identity = {name: _identity_report(name)
                for name in IDENTITY_TOPOLOGIES}
    report["identity"] = identity

    # -- condor tier: reference identity + combined speedup --------------
    config, problem, gp = _prepare(CONDOR_TOPOLOGY)

    t0 = time.perf_counter()
    ref_pos, _ = legalizer_reference.legalize(problem, gp, config)
    ref_legalize_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    ref_det_pos, ref_det_stats = detailed_reference.refine_placement(
        problem, ref_pos, config, max_passes=1)
    ref_detailed_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    with profiling.PhaseProfiler() as prof:
        hash_pos, hash_stats = legalizer.legalize(problem, gp, config)
        new_det_pos, new_det_stats = detailed.refine_placement(
            problem, hash_pos, config, max_passes=1)
    new_s = time.perf_counter() - t0
    hash_s = prof.flat_seconds().get("legalize", 0.0)
    new_detailed_s = prof.flat_seconds().get("detailed", 0.0)

    baseline_s = ref_legalize_s + ref_detailed_s
    speedup = baseline_s / max(new_s, 1e-9)
    hpwl_ratio = new_det_stats.hpwl_after / ref_det_stats.hpwl_after
    phase_top_sum = prof.top_level_seconds()
    report["condor"] = {
        "num_instances": problem.num_instances,
        "reference_legalize_s": round(ref_legalize_s, 4),
        "hash_legalize_s": round(hash_s, 4),
        "reference_detailed_s": round(ref_detailed_s, 4),
        "batched_detailed_s": round(new_detailed_s, 4),
        "baseline_s": round(baseline_s, 4),
        "new_s": round(new_s, 4),
        "combined_speedup": round(speedup, 2),
        "hash_matches_reference": bool(np.array_equal(hash_pos, ref_pos)),
        "hpwl_reference": round(float(ref_det_stats.hpwl_after), 3),
        "hpwl_batched": round(float(new_det_stats.hpwl_after), 3),
        "hpwl_ratio": round(float(hpwl_ratio), 5),
        "reference_swaps": ref_det_stats.swaps_applied,
        "batched_swaps": new_det_stats.swaps_applied,
        "candidates_scored": new_det_stats.candidates_scored,
        "phases": {k: round(v, 4)
                   for k, v in sorted(prof.flat_seconds().items())},
        "phase_top_level_s": round(phase_top_sum, 4),
        "legalize_phase_seconds": {k: round(v, 4) for k, v in
                                   sorted(hash_stats.phase_seconds.items())},
    }

    text = json.dumps(report, indent=2)
    emit(results_dir, "perf_legalize", text)
    (results_dir / "perf_legalize.json").write_text(text + "\n")

    # -- gates -----------------------------------------------------------
    for name, entry in identity.items():
        assert entry["hash_matches_reference"], \
            f"{name}: hash-screened legalizer diverged from the reference"
    condor = report["condor"]
    assert condor["hash_matches_reference"], \
        "condor: hash-screened legalizer diverged from the reference"
    assert speedup >= MIN_COMBINED_SPEEDUP, \
        (f"combined legalize+detailed speedup {speedup:.2f}x < "
         f"{MIN_COMBINED_SPEEDUP}x on {CONDOR_TOPOLOGY}")
    assert hpwl_ratio <= MAX_HPWL_RATIO, \
        (f"batched detailed hpwl {condor['hpwl_batched']} exceeds "
         f"{MAX_HPWL_RATIO}x the reference {condor['hpwl_reference']}")
    assert phase_top_sum >= MIN_PHASE_COVERAGE * new_s, \
        (f"phase profile covers only {phase_top_sum:.3f}s of the "
         f"{new_s:.3f}s profiled section")
