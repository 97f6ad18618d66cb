"""Unit tests for the global placement engine (Eq. 14 flow)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import PlacerConfig, QPlacer, preprocess
from repro.core.engine import GlobalPlacer
from repro.core.frequency_force import resonant_pair_distances
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, get_topology, grid_topology

from ..oracles.legality import collision_pairs


@pytest.fixture(scope="module")
def small_problem(fast_config):
    return build_problem(build_netlist(grid_topology(2, 2)), fast_config)


@pytest.fixture(scope="module")
def small_result(small_problem):
    return GlobalPlacer(small_problem).run()


class TestRun:
    def test_converges_to_overflow_target(self, small_problem, small_result):
        assert small_result.converged
        assert small_result.final_overflow <= \
            small_problem.config.overflow_target + 1e-9

    def test_positions_inside_region(self, small_problem, small_result):
        region = small_problem.region
        pos = small_result.positions
        assert np.all(pos[:, 0] >= region.x - 1e-9)
        assert np.all(pos[:, 0] <= region.x2 + 1e-9)
        assert np.all(pos[:, 1] >= region.y - 1e-9)
        assert np.all(pos[:, 1] <= region.y2 + 1e-9)

    def test_history_recorded(self, small_result):
        assert small_result.iterations == len(small_result.history)
        first = small_result.history[0]
        assert first.iteration == 0
        assert first.wirelength > 0

    def test_overflow_improves(self, small_result):
        history = small_result.history
        early = np.mean([h.overflow for h in history[:5]])
        late = np.mean([h.overflow for h in history[-5:]])
        assert late < early

    def test_lambda_schedule_monotone(self, small_result):
        lambdas = [h.lambda_density for h in small_result.history]
        assert all(b >= a for a, b in zip(lambdas, lambdas[1:]))

    def test_deterministic(self, small_problem):
        a = GlobalPlacer(small_problem).run()
        b = GlobalPlacer(small_problem).run()
        assert np.allclose(a.positions, b.positions)


class TestFrequencyAwareness:
    def test_classic_has_zero_frequency_energy(self, fast_classic_config):
        problem = build_problem(build_netlist(grid_topology(2, 2)),
                                fast_classic_config)
        result = GlobalPlacer(problem).run()
        assert all(h.frequency_energy == 0.0 for h in result.history)

    def test_qplacer_tracks_frequency_energy(self, fast_config):
        # A 2x2 grid has no frequency reuse; the 3x3 grid does, so its
        # collision map is non-empty and the F term must be live.
        problem = build_problem(build_netlist(grid_topology(3, 3)),
                                fast_config)
        assert collision_pairs(problem).size > 0
        result = GlobalPlacer(problem).run()
        assert any(h.frequency_energy > 0.0 for h in result.history)

    def test_frequency_force_separates_resonant_pairs(self, fast_config,
                                                      fast_classic_config):
        """The mean resonant-pair distance must be larger with the
        frequency force than without it (the Eq. 9 effect)."""
        netlist = build_netlist(grid_topology(3, 3))
        problem_q = build_problem(netlist, fast_config)
        problem_c = build_problem(netlist, fast_classic_config)
        pos_q = GlobalPlacer(problem_q).run().positions
        pos_c = GlobalPlacer(problem_c).run().positions
        pairs = collision_pairs(problem_q)
        d_q = resonant_pair_distances(pos_q, pairs).mean()
        d_c = resonant_pair_distances(pos_c, pairs).mean()
        assert d_q > d_c


class TestDensityMode:
    """The density path follows the problem's size-chosen flush interval."""

    def _problem(self, config, monkeypatch, pruned):
        if pruned:
            monkeypatch.setattr(preprocess, "SPARSE_MIN_INSTANCES", 0)
        return build_problem(build_netlist(grid_topology(2, 2)), config)

    @pytest.mark.parametrize("pruned,incremental",
                             [(False, False), (True, True)])
    def test_incremental_exactly_above_threshold(self, fast_config,
                                                 monkeypatch, pruned,
                                                 incremental):
        problem = self._problem(fast_config, monkeypatch, pruned)
        assert problem.density_flush_interval == (
            preprocess.DENSITY_FLUSH_INTERVAL if pruned else 1)
        result = GlobalPlacer(problem, fast_config).run()
        assert (result.density_flushes > 0) is incremental

    def test_flush_every_eval_matches_full_recompute(self, fast_config,
                                                     monkeypatch):
        # Interval 1 is the exact recompute: the same run with its
        # density term swapped for incremental updates that re-scatter
        # every moved instance and flush on every evaluation lands on
        # the same positions, bit for bit.
        problem = replace(self._problem(fast_config, monkeypatch, True),
                          density_flush_interval=1)
        exact = GlobalPlacer(problem, fast_config).run()
        placer = GlobalPlacer(problem, fast_config)
        placer._density = lambda positions: \
            placer.density.evaluate_incremental(positions, 0.0, flush=True)
        incremental = placer.run()
        assert incremental.density_flushes >= incremental.iterations
        assert exact.density_flushes == 0
        assert np.array_equal(incremental.positions, exact.positions)


class TestOneFrequencyPath:
    """Every tier runs the neighbor list; below the size threshold its
    reach covers the region, so it is built once and never rebuilt."""

    @pytest.fixture(scope="class")
    def eagle(self):
        netlist = build_netlist(get_topology("eagle-127"))
        return QPlacer(PlacerConfig()).place(netlist)

    def test_eagle_builds_the_list_once(self, eagle):
        assert eagle.global_result.freq_list_rebuilds == 1
        assert eagle.global_result.freq_list_reuses > 0
        assert eagle.global_result.peak_collision_pairs == \
            collision_pairs(eagle.problem).shape[0]

    def test_eagle_profile_books_the_list_build(self, eagle):
        phases, wall = eagle.phase_profile, eagle.runtime_s
        neighbors = phases["global/frequency/neighbors"]
        assert 0.0 < neighbors <= phases["global/frequency"]
        assert phases["global/frequency"] <= phases["global"]
        # Building the engine now books to ``global`` too: the top-level
        # phases still cover the wall clock, and ``global`` covers all
        # of it that the other stages do not.
        top = {p: s for p, s in phases.items() if "/" not in p}
        assert 0.95 * wall <= sum(top.values()) <= 1.05 * wall
        others = sum(s for p, s in top.items() if p != "global")
        assert phases["global"] >= 0.95 * (wall - others)
