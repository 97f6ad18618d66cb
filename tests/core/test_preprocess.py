"""Unit tests for placement preprocessing (padding, partitioning, nets)."""

import itertools

import numpy as np
import pytest

from repro.core.config import PlacerConfig
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, grid_topology

from ..oracles import is_intended_pair, is_resonant_pair, required_gap
from ..oracles.legality import collision_pairs


@pytest.fixture(scope="module")
def problem():
    return build_problem(build_netlist(grid_topology(3, 3)), PlacerConfig())


class TestInstances:
    def test_counts(self, problem):
        netlist = problem.netlist
        expected_segments = sum(r.segment_count(0.3)
                                for r in netlist.resonators)
        assert problem.num_instances == 9 + expected_segments
        assert problem.num_qubits == 9

    def test_qubits_first(self, problem):
        assert problem.is_qubit[:9].all()
        assert not problem.is_qubit[9:].any()

    def test_arrays_consistent(self, problem):
        n = problem.num_instances
        assert problem.sizes.shape == (n, 2)
        assert problem.frequencies.shape == (n,)
        assert problem.paddings.shape == (n,)
        assert problem.resonator_index.shape == (n,)

    def test_paddings_by_kind(self, problem):
        assert np.allclose(problem.paddings[problem.is_qubit], 0.4)
        assert np.allclose(problem.paddings[~problem.is_qubit], 0.1)

    def test_clearances_by_kind(self, problem):
        cfg = problem.config
        assert np.allclose(problem.clearances[problem.is_qubit],
                           cfg.qubit_clearance_mm)
        assert np.allclose(problem.clearances[~problem.is_qubit],
                           cfg.segment_clearance_mm)

    def test_inflated_sizes(self, problem):
        inflated = problem.inflated_sizes()
        assert np.all(inflated > problem.sizes)


class TestNets:
    def test_chain_structure(self, problem):
        # Each resonator with k segments contributes k+1 two-pin links.
        total_segments = problem.num_instances - 9
        expected = total_segments + len(problem.netlist.resonators)
        assert problem.nets.shape == (expected, 2)

    def test_chains_connect_endpoint_qubits(self, problem):
        nets = {tuple(n) for n in problem.nets.tolist()}
        groups = {}
        for i in range(problem.num_instances):
            r = int(problem.resonator_index[i])
            if r >= 0:
                groups.setdefault(r, []).append(i)
        for resonator in problem.netlist.resonators:
            u, v = resonator.endpoints
            chain = groups[resonator.index]
            assert (u, chain[0]) in nets or (chain[0], u) in nets
            assert (chain[-1], v) in nets or (v, chain[-1]) in nets
            for a, b in zip(chain, chain[1:]):
                assert (a, b) in nets or (b, a) in nets


class TestCollisionMap:
    def test_matches_bruteforce(self, problem):
        threshold = problem.config.detuning_threshold_ghz
        expected = set()
        for i, j in itertools.combinations(range(problem.num_instances), 2):
            if abs(problem.frequencies[i] - problem.frequencies[j]) > threshold:
                continue
            ri, rj = problem.resonator_index[i], problem.resonator_index[j]
            if ri >= 0 and ri == rj:
                continue
            expected.add((i, j))
        got = {tuple(p) for p in collision_pairs(problem).tolist()}
        assert got == expected

    def test_no_sibling_pairs(self, problem):
        for i, j in collision_pairs(problem):
            ri, rj = problem.resonator_index[i], problem.resonator_index[j]
            assert not (ri >= 0 and ri == rj)

    def test_pairs_sorted_unique(self, problem):
        pairs = [tuple(p) for p in collision_pairs(problem).tolist()]
        assert pairs == sorted(set(pairs))
        assert all(i < j for i, j in pairs)


class TestRegionAndInit:
    def test_region_large_enough(self, problem):
        inflated_area = float(np.prod(problem.inflated_sizes(), axis=1).sum())
        assert problem.region.area >= inflated_area

    def test_initial_positions_inside_region(self, problem):
        pos = problem.initial_positions
        region = problem.region
        margin = 1.0
        assert np.all(pos[:, 0] >= region.x - margin)
        assert np.all(pos[:, 0] <= region.x2 + margin)

    def test_initial_positions_distinct(self, problem):
        pos = problem.initial_positions
        unique = {(round(x, 9), round(y, 9)) for x, y in pos}
        assert len(unique) == problem.num_instances

    def test_deterministic_under_seed(self):
        netlist = build_netlist(grid_topology(2, 2))
        a = build_problem(netlist, PlacerConfig(seed=5))
        b = build_problem(netlist, PlacerConfig(seed=5))
        c = build_problem(netlist, PlacerConfig(seed=6))
        assert np.allclose(a.initial_positions, b.initial_positions)
        assert not np.allclose(a.initial_positions, c.initial_positions)


class TestPairPredicates:
    def test_intended_sibling_segments(self, problem):
        groups = {}
        for i in range(problem.num_instances):
            r = int(problem.resonator_index[i])
            if r >= 0:
                groups.setdefault(r, []).append(i)
        chain = next(iter(groups.values()))
        assert is_intended_pair(problem, chain[0], chain[1])

    def test_intended_qubit_attachment(self, problem):
        resonator = problem.netlist.resonators[0]
        u = resonator.endpoints[0]
        seg = next(i for i in range(problem.num_instances)
                   if problem.resonator_index[i] == resonator.index)
        assert is_intended_pair(problem, u, seg)
        assert is_intended_pair(problem, seg, u)

    def test_unrelated_not_intended(self, problem):
        # Two qubits are never an intended pair.
        assert not is_intended_pair(problem, 0, 1)

    def test_required_gap(self, problem):
        seg = 9  # first segment
        assert required_gap(problem, 0, seg, resonant=True) == pytest.approx(0.5)
        assert required_gap(problem, 0, seg, resonant=False) == pytest.approx(
            0.5 * (problem.clearances[0] + problem.clearances[seg]))

    def test_is_resonant_pair(self, problem):
        freqs = problem.frequencies
        i, j = collision_pairs(problem)[0]
        assert is_resonant_pair(problem, int(i), int(j))
        detuned = next(
            (a, b) for a, b in itertools.combinations(range(9), 2)
            if abs(freqs[a] - freqs[b]) > 0.1)
        assert not is_resonant_pair(problem, *detuned)


class TestRemovedSurface:
    """The per-pair predicates moved to ``tests/oracles`` as free
    functions; the library applies the rules as vectorized kernels
    (``repro.core.interactions.intended_adjacency``)."""

    @pytest.mark.parametrize("name", ["is_intended_pair", "is_resonant_pair",
                                      "required_gap"])
    def test_pair_method_gone(self, problem, name):
        assert not hasattr(problem, name)

    def test_dense_candidate_pairs_gone(self):
        from repro.core import interactions
        assert not hasattr(interactions, "dense_candidate_pairs")
