"""Unit tests for the global placement engine (Eq. 14 flow)."""

import numpy as np
import pytest

from repro.core import engine, preprocess
from repro.core.engine import GlobalPlacer
from repro.core.frequency_force import resonant_pair_distances
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, grid_topology


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
        assert problem.collision_pairs.size > 0
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
        pairs = problem_q.collision_pairs
        d_q = resonant_pair_distances(pos_q, pairs).mean()
        d_c = resonant_pair_distances(pos_c, pairs).mean()
        assert d_q > d_c


class TestDensityMode:
    """The density path follows the problem's interaction backend."""

    def _problem(self, config, monkeypatch, backend):
        if backend == "sparse":
            monkeypatch.setattr(preprocess, "SPARSE_MIN_INSTANCES", 0)
        return build_problem(build_netlist(grid_topology(2, 2)), config)

    @pytest.mark.parametrize("backend,incremental",
                             [("dense", False), ("sparse", True)])
    def test_incremental_exactly_when_sparse(self, fast_config, monkeypatch,
                                             backend, incremental):
        problem = self._problem(fast_config, monkeypatch, backend)
        assert problem.interaction_backend == backend
        result = GlobalPlacer(problem, fast_config).run()
        assert (result.density_flushes > 0) is incremental

    def test_flush_every_eval_matches_full_recompute(self, fast_config,
                                                     monkeypatch):
        monkeypatch.setattr(engine, "DENSITY_FLUSH_INTERVAL", 1)
        monkeypatch.setattr(engine, "DENSITY_MOVE_THRESHOLD_MM", 0.0)
        problem = self._problem(fast_config, monkeypatch, "sparse")
        incremental = GlobalPlacer(problem, fast_config).run()
        full = GlobalPlacer(problem, fast_config)
        full._density = full.density.evaluate
        reference = full.run()
        assert incremental.density_flushes >= incremental.iterations
        assert reference.density_flushes == 0
        assert np.array_equal(incremental.positions, reference.positions)
