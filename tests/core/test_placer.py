"""Unit tests for the QPlacer orchestrator."""

import numpy as np
import pytest

from repro.core.placer import QPlacer, place_topology
from repro.devices.components import Qubit


class TestPlacementResult:
    def test_fields(self, grid9_placed):
        result = grid9_placed
        assert result.num_cells == result.problem.num_instances
        assert result.iterations == result.global_result.iterations
        assert result.runtime_s > 0
        assert result.avg_iteration_s > 0

    def test_layout_matches_problem(self, grid9_placed):
        layout = grid9_placed.layout
        assert layout.num_instances == grid9_placed.num_cells
        assert layout.strategy == "qplacer"
        assert layout.netlist is grid9_placed.problem.netlist

    def test_layout_at_origin(self, grid9_placed):
        mer = grid9_placed.layout.enclosing_rect()
        assert mer.x == pytest.approx(0.0)
        assert mer.y == pytest.approx(0.0)

    def test_qubit_count_preserved(self, grid9_placed):
        qubits = [i for i in grid9_placed.layout.instances
                  if isinstance(i, Qubit)]
        assert len(qubits) == 9


class TestStrategyNames:
    def test_qplacer_name(self, fast_config):
        assert QPlacer(fast_config).strategy_name == "qplacer"

    def test_classic_name(self, fast_classic_config):
        assert QPlacer(fast_classic_config).strategy_name == "classic"

    def test_classic_layout_tag(self, grid9_classic):
        assert grid9_classic.layout.strategy == "classic"


class TestPlaceTopology:
    def test_by_name(self, fast_config):
        result = place_topology("grid-25", fast_config)
        assert result.layout.netlist.topology.name == "grid-25"

    def test_by_netlist(self, grid9_netlist, fast_config):
        result = place_topology(grid9_netlist, fast_config)
        assert result.layout.netlist is grid9_netlist

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            place_topology("nonexistent-chip")


class TestDeterminism:
    def test_same_seed_same_layout(self, grid9_netlist, fast_config):
        a = QPlacer(fast_config).place(grid9_netlist)
        b = QPlacer(fast_config).place(grid9_netlist)
        assert np.allclose(a.layout.positions, b.layout.positions)
