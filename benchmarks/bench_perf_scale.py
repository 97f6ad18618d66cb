"""Scaling trajectory: topology size vs wall-time vs peak pair count.

Pruning the frequency pairs at a 3 mm cutoff above the size threshold
is what keeps condor-class topologies tractable.  This harness records
the scaling curve — for each tier the instance count, the size-chosen
pair cutoff, the end-to-end stage wall-times
(global place, legalize, violation scan), and the peak candidate-pair
counts of the engine's frequency neighbor list and the violation scan —
and emits machine-readable JSON to
``benchmarks/results/perf_scale.json``.

Two gates keep the size rule honest:

* **no-regression on eagle-127**: the size rule must still give it a
  pair cutoff covering the whole region (every resonant pair summed)
  and the exact density recompute, legalizing the same global
  positions twice must give the same layout and stats, and the grid
  violation scan must reproduce the dense ``triu`` oracle
  bit-identically;
* **subquadratic growth**: the pruned peak pair count must grow with an
  exponent well below 2 between the largest exact-sum tier (eagle-127)
  and the condor tiers.

The default smoke mode covers grid-25, eagle-127, and condor-sm-433;
``REPRO_BENCH_FULL=1`` adds the full condor-1121 run (a few minutes on a
laptop-class machine).
"""

from __future__ import annotations

import json
import math
import platform
import time
from typing import Dict

import numpy as np

from repro.core import legalizer, preprocess
from repro.core.config import PlacerConfig
from repro.core.engine import GlobalPlacer
from repro.core.preprocess import build_problem
from repro.crosstalk.violations import (
    count_candidate_pairs,
    find_spatial_violations,
)
from repro.devices.layout import Layout
from repro.devices.netlist import build_netlist
from repro.devices.topology import get_topology

from conftest import FULL, emit

#: Scaling tiers, smallest first (the gate compares consecutive tiers).
SCALE_TOPOLOGIES = (
    ("grid-25", "eagle-127", "condor-sm-433", "condor-1121") if FULL else
    ("grid-25", "eagle-127", "condor-sm-433")
)

#: Upper bound on the pair-count growth exponent between eagle-127 and
#: the condor tiers (2.0 = quadratic; the neighbor list lands ~0.5).
MAX_PAIR_GROWTH_EXPONENT = 1.5


def _scale_point(topology_name: str) -> Dict[str, object]:
    """Place + legalize + scan one tier and record its scaling row."""
    config = PlacerConfig()
    netlist = build_netlist(get_topology(topology_name))
    t0 = time.perf_counter()
    problem = build_problem(netlist, config)
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = GlobalPlacer(problem, config).run()
    place_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    positions, stats = legalizer.legalize(problem, result.positions, config)
    legalize_s = time.perf_counter() - t0

    layout = Layout(instances=problem.instances, positions=positions,
                    netlist=netlist, strategy="qplacer")
    t0 = time.perf_counter()
    violations = find_spatial_violations(layout)
    scan_s = time.perf_counter() - t0

    n = problem.num_instances
    region = problem.region
    return {
        "topology": topology_name,
        "qubits": netlist.topology.num_qubits,
        "num_instances": n,
        "freq_pair_cutoff_mm": round(problem.freq_pair_cutoff_mm, 3),
        "pruned": problem.freq_pair_cutoff_mm < math.hypot(region.w,
                                                           region.h),
        "build_s": round(build_s, 3),
        "global_place_s": round(place_s, 2),
        "legalize_s": round(legalize_s, 2),
        "violation_scan_s": round(scan_s, 3),
        "iterations": result.iterations,
        "converged": result.converged,
        "peak_freq_pairs": result.peak_collision_pairs,
        "freq_list_rebuilds": result.freq_list_rebuilds,
        "peak_freq_candidates": result.peak_pair_candidates,
        "violation_candidates": count_candidate_pairs(layout),
        "num_violations": len(violations),
        "dense_pair_budget": n * (n - 1) // 2,
        "integration_failures": stats.integration_failures,
    }


def _eagle_exact_identity() -> Dict[str, object]:
    """Gate: the size rule gives eagle-127 the exact numbers (a pair
    cutoff covering the region, the exact density recompute), legalize
    is deterministic, and the grid violation scan matches the dense
    oracle bit-for-bit."""
    config = PlacerConfig()
    netlist = build_netlist(get_topology("eagle-127"))
    problem = build_problem(netlist, config)
    region = problem.region
    assert (problem.freq_pair_cutoff_mm == math.hypot(region.w, region.h)
            and problem.density_flush_interval == 1), \
        "the size rule must give eagle-127 the exact numbers"
    assert problem.num_instances <= preprocess.SPARSE_MIN_INSTANCES
    global_positions = GlobalPlacer(problem, config).run().positions
    first_pos, first_stats = legalizer.legalize(problem, global_positions,
                                                config)
    second_pos, second_stats = legalizer.legalize(problem, global_positions,
                                                  config)
    layout = Layout(instances=problem.instances, positions=first_pos,
                    netlist=netlist, strategy="qplacer")
    dense_viol = find_spatial_violations(layout, backend="dense")
    sparse_viol = find_spatial_violations(layout, backend="sparse")
    return {
        "legalize_deterministic": bool(np.array_equal(first_pos,
                                                      second_pos)),
        "legalize_stats_deterministic": first_stats == second_stats,
        "violations_identical": dense_viol == sparse_viol,
        "num_violations": len(dense_viol),
    }


def _growth_exponent(p1: Dict[str, object], p2: Dict[str, object]) -> float:
    """Pair-count growth exponent between two scaling rows."""
    n1, n2 = p1["num_instances"], p2["num_instances"]
    c1 = max(int(p1["peak_freq_pairs"]), 1)
    c2 = max(int(p2["peak_freq_pairs"]), 1)
    return math.log(c2 / c1) / math.log(n2 / n1)


def test_perf_scale(results_dir):
    points = [_scale_point(name) for name in SCALE_TOPOLOGIES]
    identity = _eagle_exact_identity()

    exponents = {}
    eagle = next(p for p in points if p["topology"] == "eagle-127")
    for point in points:
        if not point["pruned"]:
            continue
        exponents[point["topology"]] = round(
            _growth_exponent(eagle, point), 3)

    report = {
        "bench": "perf_scale",
        "mode": "full" if FULL else "smoke",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "points": points,
        "eagle_exact_identity": identity,
        "pair_growth_exponent_vs_eagle": exponents,
        "max_pair_growth_exponent": MAX_PAIR_GROWTH_EXPONENT,
    }
    text = json.dumps(report, indent=2)
    emit(results_dir, "perf_scale", text)
    (results_dir / "perf_scale.json").write_text(text + "\n")

    # -- gates ----------------------------------------------------------
    assert identity["legalize_deterministic"], \
        "legalize is not deterministic on eagle-127"
    assert identity["legalize_stats_deterministic"], \
        "legalize stats are not deterministic on eagle-127"
    assert identity["violations_identical"], \
        "sparse violation scan diverged on eagle-127"
    for point in points:
        assert point["integration_failures"] == 0, \
            f"{point['topology']}: resonator integration failed"
        if point["pruned"]:
            assert point["peak_freq_pairs"] < point["dense_pair_budget"], \
                f"{point['topology']}: neighbor list not smaller than dense"
    for name, exponent in exponents.items():
        assert exponent < MAX_PAIR_GROWTH_EXPONENT, \
            (f"{name}: pair count grows with exponent {exponent} "
             f">= {MAX_PAIR_GROWTH_EXPONENT} (superquadratic trend)")
