"""Unit tests for the integration-aware legalizer (Algorithm 1)."""

import itertools
import math

import numpy as np
import pytest

from repro.core.config import PlacerConfig
from repro.core.engine import GlobalPlacer
from repro.core.legalizer import Legalizer, _spiral_offsets, legalize
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, grid_topology


@pytest.fixture(scope="module")
def placed_grid9(fast_config):
    problem = build_problem(build_netlist(grid_topology(3, 3)), fast_config)
    global_result = GlobalPlacer(problem).run()
    positions, stats = legalize(problem, global_result.positions)
    return problem, positions, stats


def pair_gap(problem, positions, i, j):
    dx = abs(positions[i, 0] - positions[j, 0]) \
        - 0.5 * (problem.sizes[i, 0] + problem.sizes[j, 0])
    dy = abs(positions[i, 1] - positions[j, 1]) \
        - 0.5 * (problem.sizes[i, 1] + problem.sizes[j, 1])
    if dx > 0 or dy > 0:
        return math.hypot(max(dx, 0.0), max(dy, 0.0))
    return max(dx, dy)


class TestSpiralOffsets:
    def test_starts_at_origin(self):
        assert _spiral_offsets(3)[0] == (0, 0)

    def test_ring_counts(self):
        offsets = _spiral_offsets(2)
        assert len(offsets) == 1 + 8 + 16

    def test_sorted_by_ring(self):
        offsets = _spiral_offsets(3)
        rings = [max(abs(dx), abs(dy)) for dx, dy in offsets]
        assert rings == sorted(rings)


class TestLegality:
    def test_no_bare_overlaps(self, placed_grid9):
        problem, positions, _ = placed_grid9
        n = problem.num_instances
        for i, j in itertools.combinations(range(n), 2):
            assert pair_gap(problem, positions, i, j) >= -1e-9, (i, j)

    def test_clearances_respected(self, placed_grid9):
        problem, positions, _ = placed_grid9
        n = problem.num_instances
        for i, j in itertools.combinations(range(n), 2):
            if problem.is_intended_pair(i, j):
                continue
            required = 0.5 * (problem.clearances[i] + problem.clearances[j])
            assert pair_gap(problem, positions, i, j) >= required - 1e-9, (i, j)

    def test_resonant_spacing_respected(self, placed_grid9):
        problem, positions, stats = placed_grid9
        if stats.resonant_relaxations:
            pytest.skip("legalizer reported relaxations on this instance")
        for i, j in map(tuple, problem.collision_pairs.tolist()):
            if problem.is_intended_pair(i, j):
                continue
            required = problem.paddings[i] + problem.paddings[j]
            assert pair_gap(problem, positions, i, j) >= required - 1e-9, (i, j)

    def test_resonators_contiguous(self, placed_grid9):
        problem, positions, stats = placed_grid9
        assert stats.integration_failures == 0
        lg = Legalizer(problem)
        lg.positions = positions
        for seg_ids in lg._segments_by_resonator().values():
            if len(seg_ids) > 1:
                assert len(lg._clusters(seg_ids)) == 1


class TestClassicMode:
    def test_classic_skips_resonant_rule(self, fast_classic_config):
        problem = build_problem(build_netlist(grid_topology(3, 3)),
                                fast_classic_config)
        global_result = GlobalPlacer(problem).run()
        positions, stats = legalize(problem, global_result.positions)
        # Classic must still be overlap-free...
        for i, j in itertools.combinations(range(problem.num_instances), 2):
            assert pair_gap(problem, positions, i, j) >= -1e-9
        # ...but reports no frequency bookkeeping.
        assert stats.resonant_relaxations == 0


class TestStats:
    def test_displacements_recorded(self, placed_grid9):
        _, _, stats = placed_grid9
        assert stats.qubit_displacement_mm >= 0
        assert stats.segment_displacement_mm > 0

    def test_shape_validation(self, placed_grid9):
        problem, _, _ = placed_grid9
        with pytest.raises(ValueError):
            legalize(problem, np.zeros((1, 2)))

    def test_deterministic(self, fast_config):
        problem = build_problem(build_netlist(grid_topology(2, 2)),
                                fast_config)
        global_positions = GlobalPlacer(problem).run().positions
        a, _ = legalize(problem, global_positions)
        b, _ = legalize(problem, global_positions)
        assert np.allclose(a, b)


def _bfs_clusters(positions, ids, prox):
    """Oracle: proximity components by seeded BFS, largest first."""
    ids = list(ids)
    pts = positions[ids]
    diff = pts[:, None, :] - pts[None, :, :]
    adj = (diff[..., 0] ** 2 + diff[..., 1] ** 2) <= prox * prox
    seen = set()
    groups = []
    for s in range(len(ids)):
        if s in seen:
            continue
        comp, frontier = {s}, [s]
        while frontier:
            nxt = [t for f in frontier for t in np.flatnonzero(adj[f])
                   if t not in comp]
            comp.update(nxt)
            frontier = nxt
        seen |= comp
        groups.append([ids[t] for t in sorted(comp)])
    return sorted(groups, key=len, reverse=True)


class TestClusters:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bfs_oracle(self, placed_grid9, seed):
        problem, positions, _ = placed_grid9
        lg = Legalizer(problem)
        rng = np.random.default_rng(seed)
        pitch = lg._segment_pitch
        for trial in range(40):
            k = int(rng.integers(1, 25))
            ids = rng.choice(problem.num_instances, size=k, replace=False)
            # Lattice random walks with occasional jumps: chains that
            # are whole, broken once, or shattered.
            steps = rng.integers(-1, 2, size=(k, 2)) * pitch
            jumps = rng.random(k) < rng.choice([0.0, 0.1, 0.5])
            steps[jumps] *= rng.integers(2, 6, size=(int(jumps.sum()), 1))
            lg.positions[ids] = np.cumsum(steps, axis=0)
            assert lg._clusters(ids.tolist()) == _bfs_clusters(
                lg.positions, ids.tolist(), lg._proximity_mm())

    def test_degenerate_inputs(self, placed_grid9):
        problem, _, _ = placed_grid9
        lg = Legalizer(problem)
        assert lg._clusters([]) == []
        assert lg._clusters([3]) == [[3]]
