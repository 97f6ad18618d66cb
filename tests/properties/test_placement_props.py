"""Property-based tests: legalization invariants on random devices.

For randomly generated connected device topologies, the full placement
flow must always produce overlap-free layouts with contiguous resonators
and (when frequency-aware) padded spacing between resonant pairs.
"""

import itertools
import math

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlacerConfig, QPlacer
from repro.core.legalizer import Legalizer
from repro.devices import build_netlist
from repro.devices.topology import Topology

from ..oracles import is_intended_pair
from ..oracles.legality import collision_pairs


@st.composite
def random_topologies(draw):
    """Small random connected device graphs with planar-ish coords."""
    n = draw(st.integers(min_value=3, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    # Random spanning tree plus a few extra edges.
    graph = nx.random_labeled_tree(n, seed=int(seed))
    extra = draw(st.integers(min_value=0, max_value=3))
    nodes = list(graph.nodes)
    for _ in range(extra):
        u, v = rng.choice(nodes, size=2, replace=False)
        if u != v:
            graph.add_edge(int(u), int(v))
    pos = nx.kamada_kawai_layout(graph)
    coords = {int(k): (float(x) * n, float(y) * n) for k, (x, y) in pos.items()}
    # Guarantee distinct coordinates.
    for i, k in enumerate(sorted(coords)):
        x, y = coords[k]
        coords[k] = (x + 1e-3 * i, y)
    return Topology(name=f"random-{n}", description="hypothesis device",
                    graph=graph, coords=coords)


FAST = PlacerConfig(max_iterations=60, min_iterations=10, num_bins=32)


def pair_gap(problem, positions, i, j):
    dx = abs(positions[i, 0] - positions[j, 0]) \
        - 0.5 * (problem.sizes[i, 0] + problem.sizes[j, 0])
    dy = abs(positions[i, 1] - positions[j, 1]) \
        - 0.5 * (problem.sizes[i, 1] + problem.sizes[j, 1])
    if dx > 0 or dy > 0:
        return math.hypot(max(dx, 0.0), max(dy, 0.0))
    return max(dx, dy)


class TestPlacementInvariants:
    @given(random_topologies())
    @settings(max_examples=10, deadline=None)
    def test_layout_always_legal(self, topology):
        result = QPlacer(FAST).place(build_netlist(topology))
        problem = result.problem
        positions = result.layout.positions
        for i, j in itertools.combinations(range(problem.num_instances), 2):
            gap = pair_gap(problem, positions, i, j)
            assert gap >= -1e-9, f"overlap between {i} and {j}"
            if not is_intended_pair(problem, i, j):
                required = 0.5 * (problem.clearances[i]
                                  + problem.clearances[j])
                assert gap >= required - 1e-9

    @given(random_topologies())
    @settings(max_examples=10, deadline=None)
    def test_resonators_always_contiguous(self, topology):
        result = QPlacer(FAST).place(build_netlist(topology))
        assert result.legalize_stats.integration_failures == 0
        lg = Legalizer(result.problem)
        lg.positions = result.layout.positions
        for seg_ids in lg._segments_by_resonator().values():
            if len(seg_ids) > 1:
                assert len(lg._clusters(seg_ids)) == 1

    @given(random_topologies())
    @settings(max_examples=8, deadline=None)
    def test_resonant_spacing_unless_relaxed(self, topology):
        result = QPlacer(FAST).place(build_netlist(topology))
        if result.legalize_stats.resonant_relaxations:
            return  # relaxations are counted, not silent
        problem = result.problem
        positions = result.layout.positions
        for i, j in map(tuple, collision_pairs(problem).tolist()):
            if is_intended_pair(problem, i, j):
                continue
            required = problem.paddings[i] + problem.paddings[j]
            assert pair_gap(problem, positions, i, j) >= required - 1e-9
