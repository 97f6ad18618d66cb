"""Unit tests for the basis transpiler, including exact unitary checks."""

import math

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import BASIS_GATES
from repro.circuits.library import get_benchmark
from tests.oracles.circuit import count_ops
from tests.oracles.transpile import (
    cancel_pairs,
    lower_to_basis,
    merge_rz,
    transpile,
)

from .util_sim import circuit_unitary, unitaries_equal_up_to_phase


def assert_equivalent(original: QuantumCircuit, compiled: QuantumCircuit):
    """Both circuits must implement the same unitary up to global phase."""
    u1 = circuit_unitary(original)
    u2 = circuit_unitary(compiled)
    assert unitaries_equal_up_to_phase(u1, u2, tol=1e-9)


class TestLowering:
    @pytest.mark.parametrize("builder", [
        lambda qc: qc.h(0),
        lambda qc: qc.rx(0, 0.7),
        lambda qc: qc.ry(0, -1.2),
        lambda qc: qc.cx(0, 1),
        lambda qc: qc.cx(1, 0),
        lambda qc: qc.rzz(0, 1, 0.9),
        lambda qc: qc.swap(0, 1),
    ])
    def test_single_gate_equivalence(self, builder):
        qc = QuantumCircuit(2)
        builder(qc)
        lowered = lower_to_basis(qc)
        assert all(g.name in BASIS_GATES or g.name == "barrier"
                   for g in lowered.gates)
        assert_equivalent(qc, lowered)

    def test_basis_gates_pass_through(self):
        qc = QuantumCircuit(2).rz(0, 0.3).sx(0).x(1).cz(0, 1)
        lowered = lower_to_basis(qc)
        assert lowered.gates == qc.gates

    def test_nested_lowering(self):
        # swap -> cx -> h -> rz/sx: three levels of recursion.
        qc = QuantumCircuit(2).swap(0, 1)
        lowered = lower_to_basis(qc)
        assert {g.name for g in lowered.gates} <= BASIS_GATES
        assert_equivalent(qc, lowered)


class TestMergeRz:
    def test_adjacent_rz_merged(self):
        qc = QuantumCircuit(1).rz(0, 0.3).rz(0, 0.4)
        merged = merge_rz(qc)
        assert merged.size == 1
        assert merged.gates[0].params[0] == pytest.approx(0.7)

    def test_zero_rotation_dropped(self):
        qc = QuantumCircuit(1).rz(0, 0.5).rz(0, -0.5)
        assert merge_rz(qc).size == 0

    def test_full_turn_dropped(self):
        qc = QuantumCircuit(1).rz(0, math.pi).rz(0, math.pi)
        assert merge_rz(qc).size == 0

    def test_interposed_gate_blocks_merge(self):
        qc = QuantumCircuit(1).rz(0, 0.3).x(0).rz(0, 0.4)
        merged = merge_rz(qc)
        assert count_ops(merged) == {"rz": 2, "x": 1}

    def test_other_qubit_does_not_block(self):
        qc = QuantumCircuit(2).rz(0, 0.3).x(1).rz(0, 0.4)
        merged = merge_rz(qc)
        assert count_ops(merged)["rz"] == 1

    def test_equivalence(self):
        qc = QuantumCircuit(2).rz(0, 0.3).cz(0, 1).rz(0, 0.4).rz(1, 1.1).rz(1, -0.4)
        assert_equivalent(qc, merge_rz(qc))


class TestCancelPairs:
    def test_double_x_cancels(self):
        qc = QuantumCircuit(1).x(0).x(0)
        assert cancel_pairs(qc).size == 0

    def test_double_cz_cancels(self):
        qc = QuantumCircuit(2).cz(0, 1).cz(0, 1)
        assert cancel_pairs(qc).size == 0

    def test_sx_pair_fuses_to_x(self):
        qc = QuantumCircuit(1).sx(0).sx(0)
        out = cancel_pairs(qc)
        assert count_ops(out) == {"x": 1}
        assert_equivalent(qc, out)

    def test_interposed_gate_blocks_cancel(self):
        qc = QuantumCircuit(2).cz(0, 1).x(0).cz(0, 1)
        assert cancel_pairs(qc).size == 3

    def test_spectator_qubit_does_not_block(self):
        qc = QuantumCircuit(3).cz(0, 1).x(2).cz(0, 1)
        out = cancel_pairs(qc)
        assert count_ops(out) == {"x": 1}


class TestTranspile:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_output_is_basis_only(self, level):
        qc = get_benchmark("qaoa-4")
        out = transpile(qc, optimization_level=level)
        assert all(g.name in BASIS_GATES or g.name == "barrier"
                   for g in out.gates)

    @pytest.mark.parametrize("name", ["bv-4", "qaoa-4", "ising-4", "qgan-4"])
    def test_benchmark_equivalence_l3(self, name):
        qc = get_benchmark(name)
        assert_equivalent(qc, transpile(qc, optimization_level=3))

    def test_levels_monotone_size(self):
        qc = get_benchmark("ising-4")
        sizes = [transpile(qc, optimization_level=k).size for k in range(4)]
        assert sizes[0] >= sizes[1] >= sizes[2] >= sizes[3]

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            transpile(QuantumCircuit(1), optimization_level=4)

    def test_idempotent_at_l3(self):
        qc = get_benchmark("qgan-4")
        once = transpile(qc, optimization_level=3)
        twice = transpile(once, optimization_level=3)
        assert twice.size == once.size
