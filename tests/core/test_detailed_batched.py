"""Tests for the batched detailed-placement engine vs the scalar seed.

The batched swap-gain kernel must agree with the preserved scalar
oracle everywhere, and the full batched refinement must match the
reference implementation's invariants (legality kept, wirelength never
increased) while reaching equivalent quality.
"""

import numpy as np
import pytest

from repro.core import detailed_reference
from repro.core.config import PlacerConfig
from repro.core.detailed import DetailedPlacer, refine_placement
from repro.core.engine import GlobalPlacer
from repro.core.legalizer import legalize
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, grid_topology


@pytest.fixture(scope="module")
def legal_grid16(fast_config):
    problem = build_problem(build_netlist(grid_topology(4, 4)), fast_config)
    positions = GlobalPlacer(problem).run().positions
    legal, _ = legalize(problem, positions, fast_config)
    return problem, legal


class TestSwapGainKernel:
    def test_batched_matches_scalar_oracle(self, legal_grid16, fast_config):
        problem, legal = legal_grid16
        placer = DetailedPlacer(problem, fast_config)
        rng = np.random.default_rng(7)
        n = problem.num_instances
        wl = placer._instance_wl_all(legal)
        for _ in range(25):
            i = int(rng.integers(n))
            js = rng.choice(n, size=min(8, n), replace=False)
            js = js[js != i]
            if js.size == 0:
                continue
            gains = placer._swap_gains(legal, wl, i, js)
            expected = [placer._swap_gain(legal, i, int(j)) for j in js]
            np.testing.assert_allclose(gains, expected, atol=1e-9)

    def test_shared_net_partner_correction(self, legal_grid16, fast_config):
        """Swapping two *connected* instances must use post-swap geometry."""
        problem, legal = legal_grid16
        placer = DetailedPlacer(problem, fast_config)
        wl = placer._instance_wl_all(legal)
        a, b = map(int, problem.nets[0])
        gains = placer._swap_gains(legal, wl, a, np.array([b]))
        assert gains[0] == pytest.approx(placer._swap_gain(legal, a, b),
                                         abs=1e-9)

    def test_instance_wl_all_matches_scalar(self, legal_grid16, fast_config):
        problem, legal = legal_grid16
        placer = DetailedPlacer(problem, fast_config)
        wl = placer._instance_wl_all(legal)
        for i in range(problem.num_instances):
            assert wl[i] == pytest.approx(placer._instance_wl(legal, i),
                                          abs=1e-12)


class TestBatchedRefinement:
    def test_quality_parity_with_reference(self, legal_grid16, fast_config):
        problem, legal = legal_grid16
        _, ref_stats = detailed_reference.refine_placement(
            problem, legal.copy(), fast_config, max_passes=2)
        _, new_stats = refine_placement(
            problem, legal.copy(), fast_config, max_passes=2)
        assert new_stats.hpwl_after <= new_stats.hpwl_before + 1e-9
        if ref_stats.hpwl_after > 0:
            assert new_stats.hpwl_after <= 1.05 * ref_stats.hpwl_after

    def test_candidates_scored_counted(self, legal_grid16, fast_config):
        problem, legal = legal_grid16
        _, stats = refine_placement(problem, legal.copy(), fast_config,
                                    max_passes=1)
        assert stats.candidates_scored > 0
        assert stats.passes == 1

    def test_uses_no_private_legalizer_members(self):
        """The batched placer must drive only the public legalizer API."""
        import inspect

        from repro.core import detailed

        source = inspect.getsource(detailed)
        for private in ("_placed", "_unplace(", "_place(", "_can_place",
                        "_grid", "_segments_by_resonator", "_clusters"):
            assert ("legalizer." + private) not in source, private
