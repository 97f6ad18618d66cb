"""Unit tests for the detailed-placement refinement."""

import itertools
import math

import numpy as np
import pytest

from repro.core import PlacerConfig, QPlacer
from repro.core.detailed import refine_placement
from repro.core.legalizer import Legalizer
from repro.core.wirelength import hpwl

from ..oracles import is_intended_pair
from ..oracles.legality import collision_pairs


@pytest.fixture(scope="module")
def refined(grid9_placed, fast_config):
    positions, stats = refine_placement(
        grid9_placed.problem, grid9_placed.layout.positions, fast_config)
    return grid9_placed.problem, positions, stats


def pair_gap(problem, positions, i, j):
    dx = abs(positions[i, 0] - positions[j, 0]) \
        - 0.5 * (problem.sizes[i, 0] + problem.sizes[j, 0])
    dy = abs(positions[i, 1] - positions[j, 1]) \
        - 0.5 * (problem.sizes[i, 1] + problem.sizes[j, 1])
    if dx > 0 or dy > 0:
        return math.hypot(max(dx, 0.0), max(dy, 0.0))
    return max(dx, dy)


class TestRefinement:
    def test_never_increases_wirelength(self, refined):
        _, _, stats = refined
        assert stats.hpwl_after <= stats.hpwl_before + 1e-9

    def test_hpwl_bookkeeping_accurate(self, refined, grid9_placed):
        problem, positions, stats = refined
        assert stats.hpwl_before == pytest.approx(
            hpwl(grid9_placed.layout.positions, problem.nets))
        assert stats.hpwl_after == pytest.approx(
            hpwl(positions, problem.nets))

    def test_preserves_legality(self, refined):
        problem, positions, _ = refined
        for i, j in itertools.combinations(range(problem.num_instances), 2):
            gap = pair_gap(problem, positions, i, j)
            assert gap >= -1e-9
            if not is_intended_pair(problem, i, j):
                required = 0.5 * (problem.clearances[i]
                                  + problem.clearances[j])
                assert gap >= required - 1e-9

    def test_preserves_resonant_spacing(self, refined, grid9_placed):
        problem, positions, _ = refined
        if grid9_placed.legalize_stats.resonant_relaxations:
            pytest.skip("base layout already relaxed")
        for i, j in map(tuple, collision_pairs(problem).tolist()):
            if is_intended_pair(problem, i, j):
                continue
            required = problem.paddings[i] + problem.paddings[j]
            assert pair_gap(problem, positions, i, j) >= required - 1e-9

    def test_preserves_resonator_contiguity(self, refined):
        problem, positions, _ = refined
        lg = Legalizer(problem)
        lg.positions = positions
        for seg_ids in lg._segments_by_resonator().values():
            if len(seg_ids) > 1:
                assert len(lg._clusters(seg_ids)) == 1

    def test_stats_consistent(self, refined):
        _, _, stats = refined
        assert stats.passes >= 1
        assert stats.swaps_applied >= 0
        assert 0.0 <= stats.improvement < 1.0

    def test_idempotent_once_converged(self, refined, fast_config):
        problem, positions, _ = refined
        again, stats2 = refine_placement(problem, positions, fast_config,
                                         max_passes=5)
        assert stats2.improvement == pytest.approx(0.0, abs=0.02)


class TestRestrictedSweep:
    def test_full_index_set_matches_unrestricted(self, grid9_placed,
                                                 fast_config):
        problem = grid9_placed.problem
        positions = grid9_placed.layout.positions
        everyone = np.arange(problem.num_instances)
        restricted, stats_r = refine_placement(problem, positions,
                                               fast_config, only=everyone)
        full, stats_f = refine_placement(problem, positions, fast_config)
        np.testing.assert_array_equal(restricted, full)
        assert stats_r.swaps_applied == stats_f.swaps_applied

    def test_empty_set_is_a_noop_sweep(self, grid9_placed, fast_config):
        problem = grid9_placed.problem
        positions = grid9_placed.layout.positions
        out, stats = refine_placement(problem, positions, fast_config,
                                      only=np.array([], dtype=np.int64))
        np.testing.assert_array_equal(out, positions)
        assert stats.swaps_applied == 0
        assert stats.candidates_scored == 0

    def test_subset_never_increases_wirelength(self, grid9_placed,
                                               fast_config):
        problem = grid9_placed.problem
        positions = grid9_placed.layout.positions
        subset = np.arange(problem.num_instances)[::2]
        _, stats = refine_placement(problem, positions, fast_config,
                                    only=subset)
        assert stats.hpwl_after <= stats.hpwl_before + 1e-9


class TestConfigIntegration:
    def test_placer_flag_runs_refinement(self, grid9_netlist):
        cfg = PlacerConfig(max_iterations=100, min_iterations=20,
                           num_bins=32, detailed_passes=2)
        base_cfg = PlacerConfig(max_iterations=100, min_iterations=20,
                                num_bins=32)
        refined = QPlacer(cfg).place(grid9_netlist)
        base = QPlacer(base_cfg).place(grid9_netlist)
        wl_refined = hpwl(refined.layout.positions, refined.problem.nets)
        wl_base = hpwl(base.layout.positions, base.problem.nets)
        assert wl_refined <= wl_base + 1e-9
