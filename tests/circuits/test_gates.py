"""Unit tests for the gate IR."""

import pytest

from repro.circuits.gates import (
    BASIS_GATES,
    Gate,
    barrier,
    cx,
    cz,
    h,
    rx,
    ry,
    rz,
    rzz,
    swap,
    sx,
    x,
)
from tests.oracles.circuit import remap_gate


class TestConstruction:
    def test_constructors(self):
        assert rz(0, 0.5) == Gate("rz", (0,), (0.5,))
        assert cz(0, 1) == Gate("cz", (0, 1))
        assert rzz(0, 1, 0.3).params == (0.3,)

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="unknown gate"):
            Gate("t", (0,))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            Gate("cz", (0,))
        with pytest.raises(ValueError):
            Gate("x", (0, 1))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            cz(1, 1)

    def test_parametric_needs_param(self):
        with pytest.raises(ValueError):
            Gate("rz", (0,))

    def test_clifford_rejects_params(self):
        with pytest.raises(ValueError):
            Gate("x", (0,), (0.1,))

    def test_barrier_any_width(self):
        b = barrier(0, 1, 2)
        assert b.qubits == (0, 1, 2)
        with pytest.raises(ValueError):
            Gate("barrier", ())


class TestProperties:
    def test_two_qubit_flags(self):
        assert cz(0, 1).is_two_qubit
        assert cx(0, 1).is_two_qubit
        assert not x(0).is_two_qubit

    def test_basis_membership(self):
        assert rz(0, 1.0).is_basis
        assert sx(0).is_basis
        assert not h(0).is_basis
        assert not swap(0, 1).is_basis

    def test_basis_gate_set(self):
        assert BASIS_GATES == {"rz", "sx", "x", "cz"}

    def test_params_are_floats(self):
        assert isinstance(rx(0, 1).params[0], float)


class TestRemap:
    def test_remap_dict(self):
        g = remap_gate(cx(0, 1), {0: 5, 1: 7})
        assert g.qubits == (5, 7)
        assert g.name == "cx"

    def test_remap_preserves_params(self):
        g = remap_gate(ry(2, 0.7), {2: 0})
        assert g.params == (0.7,)

    def test_gates_hashable_and_frozen(self):
        g = cz(0, 1)
        assert hash(g) == hash(cz(0, 1))
        with pytest.raises(AttributeError):
            g.name = "cx"
