"""Unit tests for the Table I benchmark-circuit library."""

import pytest

from repro.circuits.library import (
    PAPER_BENCHMARKS,
    all_paper_benchmarks,
    bernstein_vazirani,
    get_benchmark,
    ising_chain,
    qaoa,
    qgan,
)
from repro.circuits.library.bv import default_secret
from repro.circuits.library.qaoa import maxcut_instance
from tests.oracles.circuit import count_ops


class TestRegistry:
    def test_paper_benchmark_names(self):
        assert PAPER_BENCHMARKS == (
            "bv-4", "bv-9", "bv-16", "qaoa-4", "qaoa-9",
            "ising-4", "qgan-4", "qgan-9")

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_get_benchmark_width(self, name):
        qc = get_benchmark(name)
        assert qc.num_qubits == int(name.split("-")[1])
        assert qc.name == name

    def test_all_paper_benchmarks(self):
        assert [c.name for c in all_paper_benchmarks()] == list(PAPER_BENCHMARKS)

    def test_bad_names(self):
        with pytest.raises(ValueError):
            get_benchmark("bv")
        with pytest.raises(ValueError):
            get_benchmark("shor-9")

    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_deterministic(self, name):
        a, b = get_benchmark(name), get_benchmark(name)
        assert a.gates == b.gates


class TestBV:
    def test_oracle_matches_secret(self):
        qc = bernstein_vazirani(5, secret="1010")
        cx_targets = [g.qubits for g in qc.gates if g.name == "cx"]
        assert cx_targets == [(0, 4), (2, 4)]

    def test_default_secret_alternates(self):
        assert default_secret(4) == "1010"

    def test_hadamard_structure(self):
        qc = bernstein_vazirani(4)
        ops = count_ops(qc)
        # H on data twice (3 qubits) + H on ancilla once, X on ancilla.
        assert ops["h"] == 7
        assert ops["x"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(1)
        with pytest.raises(ValueError):
            bernstein_vazirani(4, secret="11")
        with pytest.raises(ValueError):
            bernstein_vazirani(4, secret="1x0")


class TestQAOA:
    def test_maxcut_instance_has_ring(self):
        edges = maxcut_instance(6)
        for i in range(6):
            assert (min(i, (i + 1) % 6), max(i, (i + 1) % 6)) in edges

    def test_layer_structure(self):
        qc = qaoa(4, layers=1)
        ops = count_ops(qc)
        assert ops["h"] == 4
        assert ops["rx"] == 4
        assert ops["rzz"] == len(maxcut_instance(4))

    def test_multi_layer_scales(self):
        one = count_ops(qaoa(4, layers=1))["rzz"]
        two = count_ops(qaoa(4, layers=2))["rzz"]
        assert two == 2 * one

    def test_validation(self):
        with pytest.raises(ValueError):
            qaoa(4, layers=0)
        with pytest.raises(ValueError):
            maxcut_instance(1)


class TestIsing:
    def test_trotter_structure(self):
        qc = ising_chain(4, steps=2)
        ops = count_ops(qc)
        assert ops["rzz"] == 2 * 3  # 3 bonds per step
        assert ops["rx"] == 2 * 4

    def test_even_odd_ordering(self):
        qc = ising_chain(5, steps=1)
        bonds = [g.qubits for g in qc.gates if g.name == "rzz"]
        assert bonds == [(0, 1), (2, 3), (1, 2), (3, 4)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ising_chain(1)
        with pytest.raises(ValueError):
            ising_chain(4, steps=0)


class TestQGAN:
    def test_entanglement_chain(self):
        qc = qgan(4, layers=2)
        cxs = [g.qubits for g in qc.gates if g.name == "cx"]
        assert cxs == [(0, 1), (1, 2), (2, 3)] * 2

    def test_final_rotation_layer(self):
        qc = qgan(3, layers=1)
        # 2 ry layers (1 per block + closing) and 1 rz layer.
        ops = count_ops(qc)
        assert ops["ry"] == 6
        assert ops["rz"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            qgan(1)
        with pytest.raises(ValueError):
            qgan(4, layers=0)
