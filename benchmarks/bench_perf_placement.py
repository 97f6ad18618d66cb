"""Performance trajectory: legalization and end-to-end placement timing.

Unlike the figure benches, this harness records *speed*, not paper
numbers.  It times

* legalization on ``grid-25`` — vectorized (:mod:`repro.core.legalizer`)
  against the preserved seed implementation
  (:mod:`tests.oracles.legalizer`), same problem, same global
  placement;
* end-to-end suite builds per topology;
* :func:`repro.analysis.run_full_evaluation` at default settings, with
  the recorded seed-commit wall time as the fixed reference point of the
  trajectory;

and emits machine-readable JSON to ``benchmarks/results/
perf_placement.json`` so every PR can compare against its predecessors.

``REPRO_BENCH_FULL=1`` runs the full protocol (all six topologies and
the complete ``run_full_evaluation``); the default smoke mode keeps CI
fast while still asserting the legalization speedup.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, Tuple

import numpy as np

from repro.analysis import run_full_evaluation
from repro.analysis.experiments import build_suite
from repro.core import legalizer
from repro.core.config import PlacerConfig
from repro.core.engine import GlobalPlacer
from repro.core.preprocess import build_problem
from repro.devices.netlist import build_netlist
from repro.devices.topology import get_topology
from tests.oracles import legalizer as legalizer_reference

from conftest import BENCH_TOPOLOGIES, FULL, emit

#: Wall time of ``run_full_evaluation()`` at the seed commit (49477db),
#: measured on the machine that started the perf trajectory.  This is
#: the fixed baseline the tentpole speedup is reported against; future
#: PRs compare primarily against their predecessor's JSON.
SEED_FULL_EVALUATION_S = 26.65

#: Required speedups (ISSUE 1 acceptance criteria).
MIN_LEGALIZE_SPEEDUP = 3.0
MIN_FULL_EVAL_SPEEDUP = 2.0


def _time(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _legalization_comparison(topology_name: str,
                             repeats: int) -> Dict[str, float]:
    """Reference vs vectorized legalization on one prepared problem."""
    config = PlacerConfig()
    problem = build_problem(build_netlist(get_topology(topology_name)), config)
    global_positions = GlobalPlacer(problem, config).run().positions

    ref_s, (ref_pos, _) = _time(
        lambda: legalizer_reference.legalize(problem, global_positions,
                                             config), repeats)
    vec_s, (vec_pos, _) = _time(
        lambda: legalizer.legalize(problem, global_positions, config),
        repeats)
    return {
        "reference_s": round(ref_s, 4),
        "vectorized_s": round(vec_s, 4),
        "speedup": round(ref_s / vec_s, 2),
        "positions_identical": bool(np.array_equal(ref_pos, vec_pos)),
        "num_instances": problem.num_instances,
    }


def test_perf_placement(results_dir):
    repeats = 3 if FULL else 2
    report: Dict[str, object] = {
        "bench": "perf_placement",
        "mode": "full" if FULL else "smoke",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }

    # -- legalization micro-benchmark (grid-25 is the pinned target) -----
    legalize_report = {"grid-25": _legalization_comparison("grid-25", repeats)}
    if FULL:
        for name in ("falcon-27", "eagle-127"):
            legalize_report[name] = _legalization_comparison(name, 1)
    report["legalization"] = legalize_report

    # -- end-to-end suite builds ----------------------------------------
    suites = {}
    for name in (BENCH_TOPOLOGIES if FULL else ("grid-25",)):
        seconds, _ = _time(lambda n=name: build_suite(n), 1)
        suites[name] = round(seconds, 3)
    report["suite_build_s"] = suites

    # -- end-to-end evaluation ------------------------------------------
    if FULL:
        eval_s, _ = _time(lambda: run_full_evaluation(), 1)
        report["full_evaluation"] = {
            "seconds": round(eval_s, 2),
            "seed_reference_s": SEED_FULL_EVALUATION_S,
            "speedup_vs_seed": round(SEED_FULL_EVALUATION_S / eval_s, 2),
        }
    else:
        eval_s, _ = _time(
            lambda: run_full_evaluation(topology_names=("grid-25",),
                                        num_mappings=6), 1)
        report["full_evaluation"] = {
            "seconds": round(eval_s, 2),
            "note": "smoke mode: grid-25 only, 6 mappings; "
                    "set REPRO_BENCH_FULL=1 for the paper-scale run",
        }

    text = json.dumps(report, indent=2)
    emit(results_dir, "perf_placement", text)
    (results_dir / "perf_placement.json").write_text(text + "\n")

    grid = legalize_report["grid-25"]
    assert grid["positions_identical"], \
        "vectorized legalizer diverged from the reference"
    assert grid["speedup"] >= MIN_LEGALIZE_SPEEDUP, \
        f"legalization speedup {grid['speedup']}x < {MIN_LEGALIZE_SPEEDUP}x"
    if FULL:
        full = report["full_evaluation"]
        assert full["speedup_vs_seed"] >= MIN_FULL_EVAL_SPEEDUP, \
            (f"full-evaluation speedup {full['speedup_vs_seed']}x "
             f"< {MIN_FULL_EVAL_SPEEDUP}x")
