"""Unit tests for the Eq. 15 program-fidelity estimator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.circuits.library import get_benchmark
from repro.circuits.mapping import evaluation_mappings, map_circuit
from repro.crosstalk.fidelity import (
    ViolationTable,
    average_program_fidelity,
    estimate_program_fidelity,
)
from repro.crosstalk.noise_model import NoiseParams
from repro.baselines.human import human_layout
from tests.oracles import shortest_path
from tests.oracles.circuit import used_pairs, used_qubits


@pytest.fixture(scope="module")
def clean_setup(grid9_module):
    return grid9_module


@pytest.fixture(scope="module")
def grid9_module():
    from repro.devices import build_netlist, grid_topology
    topo = grid_topology(3, 3)
    netlist = build_netlist(topo)
    layout = human_layout(netlist)   # crosstalk-free reference layout
    return topo, netlist, layout


class TestCleanLayout:
    def test_breakdown_structure(self, grid9_module):
        topo, _, layout = grid9_module
        mapped = map_circuit(get_benchmark("bv-4"), topo, seed=0)
        fb = estimate_program_fidelity(layout, mapped)
        assert 0.0 < fb.total <= 1.0
        assert fb.total == pytest.approx(
            fb.gate_factor * fb.decoherence_factor
            * fb.qubit_crosstalk_factor * fb.resonator_crosstalk_factor)

    def test_no_crosstalk_on_human_layout(self, grid9_module):
        # The Human layout has no resonant hotspots; the only crosstalk
        # residue comes from deeply detuned strip adjacencies near shared
        # qubits, which must stay at the sub-percent level.
        topo, _, layout = grid9_module
        mapped = map_circuit(get_benchmark("bv-4"), topo, seed=0)
        fb = estimate_program_fidelity(layout, mapped)
        assert fb.qubit_crosstalk_factor == pytest.approx(1.0, abs=1e-6)
        assert fb.resonator_crosstalk_factor == pytest.approx(1.0, abs=2e-2)

    def test_active_counts(self, grid9_module):
        topo, _, layout = grid9_module
        mapped = map_circuit(get_benchmark("bv-4"), topo, seed=0)
        fb = estimate_program_fidelity(layout, mapped)
        physical = mapped.physical_arrays.to_circuit()
        assert fb.active_qubits == len(used_qubits(physical))
        assert fb.active_resonators == len(used_pairs(physical))

    def test_bigger_circuit_lower_fidelity(self, grid9_module):
        topo, _, layout = grid9_module
        small = map_circuit(get_benchmark("bv-4"), topo, seed=0)
        large = map_circuit(get_benchmark("qaoa-9"), topo, seed=0)
        f_small = estimate_program_fidelity(layout, small).total
        f_large = estimate_program_fidelity(layout, large).total
        assert f_large < f_small

    def test_noise_params_scale(self, grid9_module):
        topo, _, layout = grid9_module
        mapped = map_circuit(get_benchmark("bv-4"), topo, seed=0)
        good = estimate_program_fidelity(
            layout, mapped, NoiseParams(two_qubit_gate_error=1e-4)).total
        bad = estimate_program_fidelity(
            layout, mapped, NoiseParams(two_qubit_gate_error=5e-2)).total
        assert good > bad


class TestCrosstalkImpact:
    def test_hotspot_collapses_fidelity(self, grid9_module):
        """Moving two same-frequency qubits within the padding sum must
        destroy the fidelity of circuits that use them."""
        topo, netlist, layout = grid9_module
        # Find two same-frequency qubits.
        same = {}
        for q, f in netlist.plan.qubit_freq_ghz.items():
            same.setdefault(round(f, 6), []).append(q)
        pair = next(qs for qs in same.values() if len(qs) >= 2)[:2]

        polluted = replace(layout, positions=layout.positions.copy())
        qi = polluted.qubit_indices
        # Centre distance 0.55 mm -> bare gap 0.15 mm, the clearance-scale
        # adjacency at which classic layouts create hotspots.
        polluted.positions[qi[pair[1]]] = \
            polluted.positions[qi[pair[0]]] + np.array([0.55, 0.0])

        # Build a connected subset guaranteed to engage both qubits.
        subset = list(shortest_path(topo, pair[0], pair[1]))
        for extra in topo.neighbors(pair[0]):
            if len(subset) >= 4:
                break
            if extra not in subset:
                subset.append(extra)
        mapped = map_circuit(get_benchmark("bv-4"), topo, subset=sorted(subset))
        assert set(pair) <= used_qubits(mapped.physical_arrays.to_circuit())
        clean = estimate_program_fidelity(layout, mapped).total
        dirty = estimate_program_fidelity(polluted, mapped).total
        assert dirty < 0.05 * clean

    def test_inactive_hotspot_harmless(self, grid9_module):
        """A hotspot between qubits the program never touches must not
        change the program fidelity (Sec. V-C)."""
        topo, netlist, layout = grid9_module
        same = {}
        for q, f in netlist.plan.qubit_freq_ghz.items():
            same.setdefault(round(f, 6), []).append(q)
        pair = next(qs for qs in same.values() if len(qs) >= 2)[:2]

        polluted = replace(layout, positions=layout.positions.copy())
        qi = polluted.qubit_indices
        polluted.positions[qi[pair[1]]] = \
            polluted.positions[qi[pair[0]]] + np.array([0.8, 0.0])

        # Map onto a subset avoiding both qubits entirely.
        avoid = set(pair)
        subset = [q for q in range(9) if q not in avoid]
        sub = sorted(subset)[:4]
        import networkx as nx
        if not nx.is_connected(topo.graph.subgraph(sub)):
            pytest.skip("no connected clean subset on this plan")
        mapped = map_circuit(get_benchmark("bv-4"), topo, subset=sub)
        if used_qubits(mapped.physical_arrays.to_circuit()) & avoid:
            pytest.skip("routing touched the polluted qubits")
        clean = estimate_program_fidelity(layout, mapped).total
        dirty = estimate_program_fidelity(polluted, mapped).total
        assert dirty == pytest.approx(clean, rel=1e-6)


class TestAverage:
    def test_average_matches_mean(self, grid9_module):
        topo, _, layout = grid9_module
        mappings = evaluation_mappings(get_benchmark("bv-4"), topo,
                                       num_mappings=5)
        avg = average_program_fidelity(layout, mappings)
        singles = [estimate_program_fidelity(layout, m).total
                   for m in mappings]
        assert avg == pytest.approx(np.mean(singles))

    def test_empty_mappings_rejected(self, grid9_module):
        _, _, layout = grid9_module
        with pytest.raises(ValueError):
            average_program_fidelity(layout, [])


class TestViolationTableBuild:
    def test_backend_knob_removed(self, grid9_module):
        """The grid is the only violation scan; no entry point takes a
        backend."""
        _, _, layout = grid9_module
        with pytest.raises(TypeError, match="backend"):
            ViolationTable.build(layout, backend="dense")
