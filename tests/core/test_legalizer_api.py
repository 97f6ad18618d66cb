"""Tests for the legalizer's public refinement API and diagnostics.

Covers the transactional batch-move surface (``load`` / ``neighbors`` /
``try_moves`` / ``commit`` / ``rollback``) that the detailed placer
drives, and the enriched spiral-exhaustion error.
"""

import numpy as np
import pytest

from repro.core.config import PlacerConfig
from repro.core.engine import GlobalPlacer
from repro.core.legalizer import Legalizer, SpiralExhaustedError, legalize
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, grid_topology


@pytest.fixture(scope="module")
def legal_grid9(fast_config):
    problem = build_problem(build_netlist(grid_topology(3, 3)), fast_config)
    positions = GlobalPlacer(problem).run().positions
    legal, _ = legalize(problem, positions, fast_config)
    return problem, legal


@pytest.fixture()
def loaded(legal_grid9, fast_config):
    problem, legal = legal_grid9
    lg = Legalizer(problem, fast_config)
    lg.load(legal)
    return problem, lg, legal


def _swap_pair(problem, lg):
    """Two same-size qubits to exchange (any grid has at least two)."""
    qubits = np.flatnonzero(problem.is_qubit)
    i, j = int(qubits[0]), int(qubits[1])
    pos_i = (float(lg.positions[i, 0]), float(lg.positions[i, 1]))
    pos_j = (float(lg.positions[j, 0]), float(lg.positions[j, 1]))
    return i, j, pos_i, pos_j


def _reach(positions):
    """A query radius around the origin covering the whole layout."""
    return float(np.abs(positions).max()) + 1.0


class TestLoad:
    def test_load_rejects_bad_shape(self, legal_grid9, fast_config):
        problem, _ = legal_grid9
        lg = Legalizer(problem, fast_config)
        with pytest.raises(ValueError):
            lg.load(np.zeros((3, 2)))

    def test_load_refuses_a_placed_legalizer(self, loaded):
        problem, lg, legal = loaded
        before = lg.neighbors(float(legal[0, 0]), float(legal[0, 1]), 1.0)
        with pytest.raises(RuntimeError, match="already placed"):
            lg.load(legal)
        # Nothing was placed twice: queries see each instance once.
        after = lg.neighbors(float(legal[0, 0]), float(legal[0, 1]), 1.0)
        assert np.array_equal(after, before)
        every = lg.neighbors(0.0, 0.0, _reach(legal))
        assert sorted(every.tolist()) == list(range(problem.num_instances))

    def test_neighbors_is_superset_of_true_neighbors(self, loaded):
        problem, lg, legal = loaded
        radius = 1.0
        x, y = float(legal[0, 0]), float(legal[0, 1])
        got = set(lg.neighbors(x, y, radius).tolist())
        within = np.flatnonzero(
            (np.abs(legal[:, 0] - x) <= radius)
            & (np.abs(legal[:, 1] - y) <= radius))
        assert set(within.tolist()) <= got


class TestTryMoves:
    def test_swap_commit(self, loaded):
        problem, lg, legal = loaded
        i, j, pos_i, pos_j = _swap_pair(problem, lg)
        assert lg.try_moves([(i, pos_j), (j, pos_i)])
        lg.commit()
        assert tuple(lg.positions[i]) == pos_j
        assert tuple(lg.positions[j]) == pos_i
        untouched = [k for k in range(problem.num_instances)
                     if k not in (i, j)]
        assert np.array_equal(lg.positions[untouched], legal[untouched])

    def test_rollback_restores_layout(self, loaded):
        problem, lg, legal = loaded
        i, j, pos_i, pos_j = _swap_pair(problem, lg)
        assert lg.try_moves([(i, pos_j), (j, pos_i)])
        lg.rollback()
        assert np.array_equal(lg.positions, legal)

    def test_infeasible_move_restores_layout(self, loaded):
        problem, lg, legal = loaded
        qubits = np.flatnonzero(problem.is_qubit)
        i, j = int(qubits[0]), int(qubits[1])
        # Dropping i directly onto j violates the bare overlap rule.
        target = (float(legal[j, 0]), float(legal[j, 1]))
        assert not lg.try_moves([(i, target)])
        assert np.array_equal(lg.positions, legal)
        # No transaction was left open.
        with pytest.raises(RuntimeError):
            lg.commit()

    def test_contiguity_violation_rejected(self, loaded):
        problem, lg, legal = loaded
        by_res = {r: ids for r, ids in
                  lg._segments_by_resonator().items() if len(ids) > 1}
        if not by_res:
            pytest.skip("no multi-segment resonator on this device")
        seg = int(next(iter(by_res.values()))[0])
        # Far from everything: spacing-feasible but the chain breaks.
        far = (float(legal[:, 0].max()) + 10.0,
               float(legal[:, 1].max()) + 10.0)
        assert not lg.try_moves([(seg, far)])
        assert np.array_equal(lg.positions, legal)

    def test_double_open_transaction_raises(self, loaded):
        problem, lg, _ = loaded
        i, j, pos_i, pos_j = _swap_pair(problem, lg)
        assert lg.try_moves([(i, pos_j), (j, pos_i)])
        with pytest.raises(RuntimeError, match="already open"):
            lg.try_moves([(i, pos_i)])
        lg.rollback()

    def test_duplicate_instance_rejected_before_any_change(self, loaded):
        problem, lg, legal = loaded
        i, j, pos_i, pos_j = _swap_pair(problem, lg)
        before = lg.neighbors(0.0, 0.0, _reach(legal))
        for batch in ([(i, pos_j), (i, pos_j)],
                      [(i, pos_j), (j, pos_i), (i, pos_i)]):
            with pytest.raises(ValueError, match="more than once"):
                lg.try_moves(batch)
        assert np.array_equal(lg.positions, legal)
        # No transaction was left open, and the index is intact.
        with pytest.raises(RuntimeError):
            lg.commit()
        assert np.array_equal(lg.neighbors(0.0, 0.0, _reach(legal)), before)
        assert lg.try_moves([(i, pos_j), (j, pos_i)])
        lg.rollback()
        assert np.array_equal(lg.positions, legal)

    def test_commit_without_transaction_raises(self, loaded):
        _, lg, _ = loaded
        with pytest.raises(RuntimeError):
            lg.commit()
        with pytest.raises(RuntimeError):
            lg.rollback()


class TestSpiralExhaustion:
    def test_overfull_chip_raises_with_diagnostics(self, fast_config):
        from dataclasses import replace

        # Radius 0 leaves each instance exactly one candidate site; a
        # collapsed global placement cannot fit more than one instance
        # there, so legalization must fail with the crowd diagnostics.
        config = replace(fast_config, spiral_max_radius_sites=0)
        problem = build_problem(build_netlist(grid_topology(2, 2)), config)
        collapsed = np.zeros((problem.num_instances, 2))
        with pytest.raises(SpiralExhaustedError) as info:
            legalize(problem, collapsed, config)
        err = info.value
        assert err.rings_attempted == 1
        assert err.sites_attempted == 1
        assert err.neighbors_in_reach >= 1
        assert err.densest_cell_count >= 1
        assert len(err.densest_cell_mm) == 2
        message = str(err)
        assert "ring" in message
        assert "densest" in message
        assert str(err.instance) in message
