"""Unit tests for frequency-comb construction and conflict colouring."""

import itertools

import networkx as nx
import pytest

from repro.devices.frequency import (
    assign_frequencies,
    frequency_levels,
    qubit_conflict_graph,
    resonator_conflict_graph,
)
from repro.devices.topology import (
    PAPER_TOPOLOGY_ORDER,
    get_topology,
    grid_topology,
)


class TestFrequencyLevels:
    def test_paper_qubit_band_gives_four_levels(self):
        levels = frequency_levels((4.8, 5.2), 0.1)
        assert len(levels) == 4
        assert levels[0] == pytest.approx(4.8)
        assert levels[-1] == pytest.approx(5.2)

    def test_paper_resonator_band_gives_ten_levels(self):
        levels = frequency_levels((6.0, 7.0), 0.1)
        assert len(levels) == 10

    def test_spacing_strictly_exceeds_threshold(self):
        for band in [(4.8, 5.2), (6.0, 7.0), (1.0, 1.35)]:
            levels = frequency_levels(band, 0.1)
            for a, b in zip(levels, levels[1:]):
                assert b - a > 0.1

    def test_narrow_band_single_level(self):
        levels = frequency_levels((5.0, 5.05), 0.1)
        assert levels == [pytest.approx(5.025)]

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            frequency_levels((5.2, 4.8), 0.1)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            frequency_levels((4.8, 5.2), 0.0)

    def test_levels_sorted(self):
        levels = frequency_levels((6.0, 7.0), 0.07)
        assert levels == sorted(levels)


class TestConflictGraphs:
    def test_qubit_conflicts_radius1_equals_topology(self):
        topo = grid_topology(3, 3)
        graph = qubit_conflict_graph(topo, radius=1)
        assert set(graph.edges) == set(topo.graph.edges)

    def test_qubit_conflicts_radius2_superset(self):
        topo = grid_topology(3, 3)
        g1 = qubit_conflict_graph(topo, radius=1)
        g2 = qubit_conflict_graph(topo, radius=2)
        assert set(g1.edges) <= set(g2.edges)
        assert g2.has_edge(0, 2)  # two hops apart on the grid

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            qubit_conflict_graph(grid_topology(2, 2), radius=0)

    def test_resonator_conflicts_share_qubit(self):
        topo = grid_topology(2, 2)
        graph = resonator_conflict_graph(topo)
        assert graph.has_edge((0, 1), (0, 2))     # share qubit 0
        assert not graph.has_edge((0, 1), (2, 3))  # disjoint endpoints

    def test_resonator_conflict_is_line_graph(self):
        topo = grid_topology(3, 3)
        graph = resonator_conflict_graph(topo)
        reference = nx.line_graph(topo.graph)
        assert graph.number_of_edges() == reference.number_of_edges()


class TestAssignment:
    @pytest.mark.parametrize("name", PAPER_TOPOLOGY_ORDER)
    def test_paper_topologies_conflict_free(self, name):
        plan = assign_frequencies(get_topology(name))
        assert plan.is_conflict_free

    @pytest.mark.parametrize("name", PAPER_TOPOLOGY_ORDER)
    def test_connected_qubits_detuned(self, name):
        topo = get_topology(name)
        plan = assign_frequencies(topo)
        for u, v in topo.graph.edges:
            detuning = abs(plan.qubit_freq_ghz[u] - plan.qubit_freq_ghz[v])
            assert detuning > 0.1, f"qubits {u},{v} resonant"

    @pytest.mark.parametrize("name", ["grid-25", "falcon-27"])
    def test_resonators_sharing_qubit_detuned(self, name):
        topo = get_topology(name)
        plan = assign_frequencies(topo)
        for e1, e2 in itertools.combinations(topo.coupling_map, 2):
            if set(e1) & set(e2):
                detuning = abs(plan.resonator_freq_ghz[e1]
                               - plan.resonator_freq_ghz[e2])
                assert detuning > 0.1, f"resonators {e1},{e2} resonant"

    def test_frequencies_inside_bands(self):
        plan = assign_frequencies(get_topology("grid-25"))
        assert all(4.8 <= f <= 5.2 for f in plan.qubit_freq_ghz.values())
        assert all(6.0 <= f <= 7.0 for f in plan.resonator_freq_ghz.values())

    def test_deterministic(self):
        topo = get_topology("falcon-27")
        p1 = assign_frequencies(topo)
        p2 = assign_frequencies(topo)
        assert p1.qubit_freq_ghz == p2.qubit_freq_ghz
        assert p1.resonator_freq_ghz == p2.resonator_freq_ghz

    def test_frequency_reuse_happens(self):
        # 4 levels for 25+ qubits forces reuse — the placer's raison d'etre.
        plan = assign_frequencies(get_topology("grid-25"))
        assert len(set(plan.qubit_freq_ghz.values())) < 25

    def test_radius2_requires_more_levels(self):
        # Distance-2 colouring of a grid needs 5 colours; only 4 levels
        # exist, so conflicts must be reported (not silently dropped).
        plan = assign_frequencies(get_topology("grid-25"),
                                  qubit_conflict_radius=2)
        assert not plan.is_conflict_free
        assert plan.unresolved_qubit_pairs

    def test_plan_detuning_helper(self):
        plan = assign_frequencies(grid_topology(2, 2))
        assert plan.detuning_ghz(5.0, 5.2) == pytest.approx(0.2)
