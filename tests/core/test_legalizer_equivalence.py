"""Golden equivalence: vectorized legalizer vs the preserved seed code.

The vectorized legalizer (:mod:`repro.core.legalizer`) must reproduce
the seed implementation (:mod:`tests.oracles.legalizer`) on all
six paper topologies: overlap-free, frequency-legal layouts whose
wirelength/area metrics match within tolerance.  In practice the two
implementations track each other bit for bit; the assertions below
allow float-rounding headroom so legitimate numerical reordering does
not break the build, while any behavioural drift still does.

Global placement runs with a reduced iteration budget — legalizer
equivalence does not require a converged engine, and this keeps the
six-topology matrix affordable in CI.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import legalizer
from repro.core.config import PlacerConfig
from repro.core.engine import GlobalPlacer
from repro.core.preprocess import build_problem
from repro.core.wirelength import hpwl
from repro.devices.netlist import build_netlist
from repro.devices.topology import PAPER_TOPOLOGY_ORDER, get_topology

from tests.oracles import is_intended_pair, is_resonant_pair
from tests.oracles import legalizer as legalizer_reference

FAST = PlacerConfig(max_iterations=60, min_iterations=10)
FAST_CLASSIC = PlacerConfig.classic(max_iterations=60, min_iterations=10)

#: Relative tolerance on aggregate metrics (wirelength, displacement).
METRIC_RTOL = 1e-9


def _legalized(topology_name: str, config: PlacerConfig):
    problem = build_problem(build_netlist(get_topology(topology_name)), config)
    global_result = GlobalPlacer(problem, config).run()
    ref_pos, ref_stats = legalizer_reference.legalize(
        problem, global_result.positions, config)
    vec_pos, vec_stats = legalizer.legalize(
        problem, global_result.positions, config)
    return problem, ref_pos, ref_stats, vec_pos, vec_stats


def _pair_gap(problem, positions, i, j) -> float:
    dx = abs(positions[i, 0] - positions[j, 0]) \
        - 0.5 * (problem.sizes[i, 0] + problem.sizes[j, 0])
    dy = abs(positions[i, 1] - positions[j, 1]) \
        - 0.5 * (problem.sizes[i, 1] + problem.sizes[j, 1])
    if dx > 0 or dy > 0:
        return math.hypot(max(dx, 0.0), max(dy, 0.0))
    return max(dx, dy)


def _assert_layout_legal(problem, positions, frequency_aware: bool) -> None:
    """No bare overlaps; resonant non-intended pairs keep their padding."""
    n = problem.num_instances
    for i in range(n):
        for j in range(i + 1, n):
            gap = _pair_gap(problem, positions, i, j)
            assert gap >= -1e-9, f"overlap between {i} and {j}: {gap}"


@pytest.mark.parametrize("topology_name", PAPER_TOPOLOGY_ORDER)
def test_equivalent_on_paper_topology(topology_name):
    problem, ref_pos, ref_stats, vec_pos, vec_stats = _legalized(
        topology_name, FAST)

    # Positions agree (bit-identical in practice; tolerance for headroom).
    np.testing.assert_allclose(vec_pos, ref_pos, rtol=0, atol=1e-9)

    # Aggregate metrics match within tolerance.
    assert math.isclose(hpwl(vec_pos, problem.nets),
                        hpwl(ref_pos, problem.nets), rel_tol=METRIC_RTOL)
    assert math.isclose(vec_stats.qubit_displacement_mm,
                        ref_stats.qubit_displacement_mm,
                        rel_tol=METRIC_RTOL, abs_tol=1e-9)
    assert math.isclose(vec_stats.segment_displacement_mm,
                        ref_stats.segment_displacement_mm,
                        rel_tol=METRIC_RTOL, abs_tol=1e-9)
    assert vec_stats.resonant_relaxations == ref_stats.resonant_relaxations
    assert vec_stats.integration_failures == ref_stats.integration_failures

    # Occupied bounding-box (area) agreement.
    for axis in (0, 1):
        assert math.isclose(float(vec_pos[:, axis].max() - vec_pos[:, axis].min()),
                            float(ref_pos[:, axis].max() - ref_pos[:, axis].min()),
                            rel_tol=METRIC_RTOL, abs_tol=1e-9)


@pytest.mark.parametrize("topology_name", ("grid-25", "falcon-27"))
def test_equivalent_under_classic_config(topology_name):
    _, ref_pos, _, vec_pos, _ = _legalized(topology_name, FAST_CLASSIC)
    np.testing.assert_allclose(vec_pos, ref_pos, rtol=0, atol=1e-9)


def test_vectorized_layout_is_overlap_free_and_frequency_legal():
    problem, _, _, vec_pos, vec_stats = _legalized("grid-25", FAST)
    _assert_layout_legal(problem, vec_pos, frequency_aware=True)
    # Frequency legality: resonant non-intended pairs need the padding
    # sum unless counted as an explicit relaxation.
    relaxations = 0
    for i in range(problem.num_instances):
        for j in range(i + 1, problem.num_instances):
            if is_intended_pair(problem, i, j):
                continue
            if not is_resonant_pair(problem, i, j):
                continue
            required = problem.paddings[i] + problem.paddings[j]
            if _pair_gap(problem, vec_pos, i, j) < required - 1e-9:
                relaxations += 1
    assert relaxations <= vec_stats.resonant_relaxations


def test_spiral_offsets_match_reference():
    for radius in (1, 2, 5, 16):
        vec = legalizer._spiral_offsets_array(radius).tolist()
        ref = legalizer_reference._spiral_offsets(radius)
        assert vec == [list(o) for o in ref]


def test_stats_dataclass_fields_match():
    from dataclasses import fields

    assert [f.name for f in fields(legalizer.LegalizeStats)] == \
        [f.name for f in fields(legalizer_reference.LegalizeStats)]
