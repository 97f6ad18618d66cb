"""All-pairs vs neighbor-list equivalence on all six paper topologies.

With a cutoff covering the whole placement region the engine's neighbor
list produces exactly the collision map's pairs, and so the same
energies and gradients, and the grid violation scan the same violation
sets as the ``triu`` oracle, on every paper topology and across seeds.
The legalizer does not depend on problem size at all; its check here
is plain determinism.  (The *pruned* cutoff above the size threshold
intentionally truncates the frequency force — these tests always widen
the cutoff past the region diagonal so no pair is dropped.)
"""


import numpy as np
import pytest

from repro.baselines.human import human_layout
from repro.core.config import PlacerConfig
from repro.core.engine import GlobalPlacer
from repro.core.frequency_force import frequency_energy_and_grad
from repro.core.interactions import PrunedCollisionPairs
from repro.core.legalizer import legalize
from repro.core.preprocess import build_problem
from repro.crosstalk.fidelity import ViolationTable
from repro.crosstalk.violations import find_spatial_violations
from repro.devices.netlist import build_netlist
from repro.devices.topology import PAPER_TOPOLOGY_ORDER, get_topology

SEEDS = (0, 3)


def _problem(topology_name, seed, **overrides):
    cfg = PlacerConfig(seed=seed, **overrides)
    return build_problem(build_netlist(get_topology(topology_name)), cfg)


def _wide_cutoff(problem):
    """A cutoff past the region diagonal: prunes nothing."""
    return 2.0 * float(problem.region.w + problem.region.h) + 1.0


@pytest.mark.parametrize("topology_name", PAPER_TOPOLOGY_ORDER)
@pytest.mark.parametrize("seed", SEEDS)
class TestFrequencyForceEquivalence:
    def test_energy_and_grad_bit_identical(self, topology_name, seed):
        problem = _problem(topology_name, seed)
        provider = PrunedCollisionPairs(
            problem.frequencies, problem.resonator_index,
            problem.config.detuning_threshold_ghz,
            cutoff_mm=_wide_cutoff(problem), skin_mm=1.0)
        rng = np.random.default_rng(seed)
        positions = problem.initial_positions + rng.normal(
            0.0, 0.3, size=problem.initial_positions.shape)
        sparse_pairs = provider.pairs(positions)
        assert np.array_equal(sparse_pairs, problem.collision_pairs)
        dense_pairs = problem.collision_pairs
        e_dense, g_dense = frequency_energy_and_grad(
            positions, dense_pairs, problem.config.freq_force_smoothing_mm)
        e_sparse, g_sparse = frequency_energy_and_grad(
            positions, sparse_pairs, problem.config.freq_force_smoothing_mm)
        assert e_dense == e_sparse
        assert np.array_equal(g_dense, g_sparse)


@pytest.mark.parametrize("topology_name", PAPER_TOPOLOGY_ORDER)
@pytest.mark.parametrize("seed", SEEDS)
class TestViolationEquivalence:
    def test_violation_sets_identical(self, topology_name, seed):
        layout = human_layout(
            build_netlist(get_topology(topology_name)),
            PlacerConfig(seed=seed))
        dense = find_spatial_violations(layout, backend="dense")
        sparse = find_spatial_violations(layout, backend="sparse")
        assert dense == sparse

    def test_violation_tables_identical(self, topology_name, seed):
        layout = human_layout(
            build_netlist(get_topology(topology_name)),
            PlacerConfig(seed=seed))
        dense = ViolationTable.build(
            layout, violations=find_spatial_violations(layout,
                                                       backend="dense"))
        sparse = ViolationTable.build(
            layout, violations=find_spatial_violations(layout,
                                                       backend="sparse"))
        assert dense.violations == sparse.violations
        assert np.array_equal(dense.g_ghz, sparse.g_ghz)
        assert np.array_equal(dense.detuning_ghz, sparse.detuning_ghz)
        assert np.array_equal(dense.is_qq, sparse.is_qq)


#: Reduced-iteration engine settings so six topologies stay test-sized.
_FAST = dict(max_iterations=60, min_iterations=10)


@pytest.mark.parametrize("topology_name", PAPER_TOPOLOGY_ORDER)
@pytest.mark.parametrize("seed", SEEDS)
class TestLegalizeDeterminism:
    """The legalizer reads none of the size-chosen numbers (its slot
    grid computes required gaps on demand), so there is no pair of
    paths to compare; what holds is that legalizing the same global
    positions twice gives the same layout and stats."""

    def test_legalize_is_deterministic(self, topology_name, seed):
        problem = _problem(topology_name, seed, **_FAST)
        global_positions = GlobalPlacer(problem, problem.config).run().positions
        pos_a, stats_a = legalize(problem, global_positions, problem.config)
        pos_b, stats_b = legalize(problem, global_positions, problem.config)
        assert np.array_equal(pos_a, pos_b), "legalize is not deterministic"
        assert stats_a == stats_b, "legalize stats are not deterministic"
