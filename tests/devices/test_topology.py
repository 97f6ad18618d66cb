"""Unit tests for the Table I topology generators."""

import math

import networkx as nx
import pytest

from repro.devices.topology import (
    PAPER_TOPOLOGY_ORDER,
    SCALE_TOPOLOGY_ORDER,
    TOPOLOGY_LABELS,
    Topology,
    all_paper_topologies,
    aspen11_topology,
    aspen_m_topology,
    eagle_topology,
    falcon_topology,
    get_topology,
    grid_topology,
    heavy_hex_lattice,
    octagon_topology,
    xtree_topology,
)
from tests.oracles import hop_distances, shortest_path

#: (name, qubits, couplers) straight from Table I / known devices.
PAPER_SIZES = [
    ("grid-25", 25, 40),
    ("falcon-27", 27, 28),
    ("eagle-127", 127, 144),
    ("aspen11-40", 40, 48),
    ("aspenm-80", 80, 106),
    ("xtree-53", 53, 52),
]


class TestPaperTopologies:
    @pytest.mark.parametrize("name,qubits,couplers", PAPER_SIZES)
    def test_sizes_match_table1(self, name, qubits, couplers):
        topo = get_topology(name)
        assert topo.num_qubits == qubits
        assert topo.num_couplers == couplers

    @pytest.mark.parametrize("name", PAPER_TOPOLOGY_ORDER)
    def test_connected(self, name):
        assert nx.is_connected(get_topology(name).graph)

    @pytest.mark.parametrize("name", PAPER_TOPOLOGY_ORDER)
    def test_coords_cover_all_nodes(self, name):
        topo = get_topology(name)
        assert set(topo.coords) == set(range(topo.num_qubits))

    @pytest.mark.parametrize("name", PAPER_TOPOLOGY_ORDER)
    def test_coords_distinct(self, name):
        topo = get_topology(name)
        seen = {tuple(round(c, 6) for c in xy) for xy in topo.coords.values()}
        assert len(seen) == topo.num_qubits

    @pytest.mark.parametrize("name", PAPER_TOPOLOGY_ORDER)
    def test_adjacent_coords_near_unit(self, name):
        # Lattice drawings keep coupled qubits ~1 unit apart; the layered
        # tree drawing (xtree) only guarantees the lower bound (its upper
        # levels fan out, which is exactly why its Human layout is big).
        topo = get_topology(name)
        upper = math.inf if name.startswith("xtree") else 2.0
        for u, v in topo.graph.edges:
            (x1, y1), (x2, y2) = topo.coords[u], topo.coords[v]
            d = math.hypot(x1 - x2, y1 - y2)
            assert 0.5 <= d <= upper, f"edge {(u, v)} drawn at distance {d}"

    def test_labels_cover_order(self):
        assert set(TOPOLOGY_LABELS) == (set(PAPER_TOPOLOGY_ORDER)
                                        | set(SCALE_TOPOLOGY_ORDER))

    def test_all_paper_topologies_order(self):
        names = [t.name for t in all_paper_topologies()]
        assert names == list(PAPER_TOPOLOGY_ORDER)


class TestGrid:
    def test_custom_size(self):
        topo = grid_topology(2, 3)
        assert topo.num_qubits == 6
        assert topo.num_couplers == 7  # 4 horizontal + 3 vertical

    def test_degree_bounds(self):
        topo = grid_topology(5, 5)
        assert topo.max_degree == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            grid_topology(0, 5)


class TestHeavyHex:
    def test_falcon_degree_at_most_3(self):
        assert falcon_topology().max_degree == 3

    def test_eagle_degree_at_most_3(self):
        assert eagle_topology().max_degree == 3

    def test_eagle_heavy_hex_cycles(self):
        # Heavy-hex cells are 12-cycles; the graph must be bipartite.
        assert nx.is_bipartite(eagle_topology().graph)

    def test_falcon_bipartite(self):
        assert nx.is_bipartite(falcon_topology().graph)

    def test_generic_generator_other_size(self):
        topo = heavy_hex_lattice(5, 11)
        assert nx.is_connected(topo.graph)
        assert topo.max_degree <= 3

    def test_generator_validations(self):
        with pytest.raises(ValueError):
            heavy_hex_lattice(1, 15)
        with pytest.raises(ValueError):
            heavy_hex_lattice(7, 3)


class TestOctagon:
    def test_ring_edges(self):
        topo = octagon_topology(1, 1)
        assert topo.num_qubits == 8
        assert topo.num_couplers == 8
        degrees = [d for _, d in topo.graph.degree]
        assert all(d == 2 for d in degrees)

    def test_horizontal_coupling(self):
        topo = octagon_topology(1, 2)
        assert topo.num_couplers == 8 * 2 + 2

    def test_vertical_coupling(self):
        topo = octagon_topology(2, 1)
        assert topo.num_couplers == 8 * 2 + 2

    def test_aspen11_structure(self):
        topo = aspen11_topology()
        assert topo.name == "aspen11-40"
        assert topo.max_degree == 3

    def test_aspen_m_structure(self):
        topo = aspen_m_topology()
        assert topo.name == "aspenm-80"
        # 80 ring edges + 2x(4 horizontal adjacencies)x2 + 5 vertical x2.
        assert topo.num_couplers == 80 + 16 + 10


class TestXtree:
    def test_level3_is_tree(self):
        topo = xtree_topology()
        assert nx.is_tree(topo.graph)
        assert topo.num_qubits == 53

    def test_level_sizes(self):
        topo = xtree_topology()
        degrees = dict(topo.graph.degree)
        assert degrees[0] == 4  # root fan-out

    def test_custom_branching(self):
        topo = xtree_topology(branching=(2, 2), name="xtree-7")
        assert topo.num_qubits == 7
        assert nx.is_tree(topo.graph)

    def test_rejects_bad_branching(self):
        with pytest.raises(ValueError):
            xtree_topology(branching=(0, 3), name="bad")


class TestTopologyClass:
    def test_coupling_map_canonical(self):
        topo = grid_topology(2, 2)
        assert topo.coupling_map == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_neighbors_sorted(self):
        topo = grid_topology(3, 3)
        assert topo.neighbors(4) == [1, 3, 5, 7]

    def test_shortest_path_endpoints(self):
        topo = grid_topology(3, 3)
        path = shortest_path(topo, 0, 8)
        assert path[0] == 0 and path[-1] == 8
        assert len(path) == 5  # 4 hops on a 3x3 grid

    def test_distance_matrix(self):
        topo = grid_topology(2, 2)
        dm = topo.hop_distance_matrix()
        assert dm[0, 3] == 2
        assert dm[0, 0] == 0

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="grid-25"):
            get_topology("not-a-chip")

    def test_validates_node_numbering(self):
        graph = nx.Graph([(1, 2)])
        with pytest.raises(ValueError, match="0..n-1"):
            Topology(name="bad", description="", graph=graph,
                     coords={1: (0, 0), 2: (1, 0)})

    def test_validates_connectivity(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1])
        with pytest.raises(ValueError, match="connected"):
            Topology(name="bad", description="", graph=graph,
                     coords={0: (0, 0), 1: (1, 0)})

    def test_validates_coords_coverage(self):
        graph = nx.Graph([(0, 1)])
        with pytest.raises(ValueError, match="coords"):
            Topology(name="bad", description="", graph=graph,
                     coords={0: (0, 0)})


class TestCanonicalPaths:
    def test_next_hop_walks_are_shortest_paths(self):
        for topo in (grid_topology(3, 3), falcon_topology()):
            nxt = topo.shortest_path_next_hop()
            dm = hop_distances(topo)
            n = topo.num_qubits
            for s in range(n):
                for d in range(n):
                    path = shortest_path(topo, s, d)
                    assert path[0] == s and path[-1] == d
                    assert len(path) == dm[s][d] + 1
                    for u, v in zip(path, path[1:]):
                        assert topo.graph.has_edge(u, v)
                    if s != d:
                        assert nxt[s, d] == path[1]

    def test_next_hop_prefers_lowest_index_neighbour(self):
        topo = grid_topology(3, 3)
        nxt = topo.shortest_path_next_hop()
        dm = hop_distances(topo)
        for s in range(9):
            for d in range(9):
                if s == d:
                    assert nxt[s, d] == s
                    continue
                closer = [q for q in topo.neighbors(s)
                          if dm[q][d] == dm[s][d] - 1]
                assert nxt[s, d] == min(closer)

    def test_next_hop_cached(self):
        topo = grid_topology(3, 3)
        assert topo.shortest_path_next_hop() is topo.shortest_path_next_hop()

    def test_shortest_path_trivial_and_invalid(self):
        topo = grid_topology(2, 2)
        assert shortest_path(topo, 3, 3) == [3]
        with pytest.raises(nx.NodeNotFound):
            shortest_path(topo, 0, 99)
        with pytest.raises(nx.NodeNotFound):
            shortest_path(topo, 99, 99)  # trivial case is validated too

    def test_single_node_chip(self):
        topo = grid_topology(1, 1)
        assert topo.shortest_path_next_hop().tolist() == [[0]]
        assert shortest_path(topo, 0, 0) == [0]


class TestHopDistanceSubmatrix:
    def test_matches_distance_matrix(self):
        topo = falcon_topology()
        dm = hop_distances(topo)
        rows = [0, 5, 26]
        cols = [1, 7, 13, 20]
        block = topo.hop_distance_submatrix(rows, cols)
        assert block.shape == (3, 4)
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                assert block[i, j] == dm[r][c]

    def test_square_default_cols(self):
        topo = grid_topology(3, 3)
        block = topo.hop_distance_submatrix([2, 4, 8])
        assert block.shape == (3, 3)
        assert block[0, 2] == hop_distances(topo)[2][8]
        assert (block.diagonal() == 0).all()

    def test_invalid_nodes_raise_keyerror(self):
        topo = grid_topology(2, 2)
        with pytest.raises(KeyError):
            topo.hop_distance_submatrix([0, 4])
        with pytest.raises(KeyError):
            topo.hop_distance_submatrix([0], [-1])
