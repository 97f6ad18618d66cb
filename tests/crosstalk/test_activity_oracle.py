"""The Eq. 15 activity gather against a set-based oracle.

:meth:`~repro.crosstalk.fidelity.ViolationTable.activity` turns a
mapping's qubit mask and coupler keys into the per-violation activity
mask with two array gathers.  The oracle below is the straightforward
set scan it replaced: active resonators are the netlist resonators
whose stored endpoints are an active coupler edge, and a violation is
active when either member is an active qubit or a segment of an active
resonator.  Every breakdown must match it exactly, including the cases
a gather gets wrong most easily: a layout without a netlist, mappings
compiled for a different topology size, and a resonator whose stored
endpoints are not in canonical ``(lo, hi)`` order.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Set, Tuple

import numpy as np
import pytest

from repro.analysis.experiments import build_suite
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import evaluation_mappings
from repro.crosstalk.fidelity import (
    FidelityBreakdown,
    ViolationTable,
    estimate_program_fidelity,
)
from repro.crosstalk.noise_model import NoiseParams, decoherence_error
from repro.crosstalk.violations import SpatialViolation
from repro.devices.components import Qubit, ResonatorSegment
from repro.devices.layout import Layout
from repro.devices.topology import get_topology

Edge = Tuple[int, int]
STRATEGIES = ("qplacer", "classic", "human")


def _active_resonator_indices(layout: Layout,
                              active_edges: Set[Edge]) -> Set[int]:
    """Resonator indices whose coupler edge carries two-qubit gates."""
    if layout.netlist is None:
        return set()
    return {
        r.index for r in layout.netlist.resonators
        if r.endpoints in active_edges
    }


def _violation_is_active(layout: Layout, violation: SpatialViolation,
                         active_qubits: Set[int],
                         active_resonators: Set[int]) -> bool:
    """True when at least one member of the pair is actively engaged."""
    for idx in (violation.i, violation.j):
        inst = layout.instances[idx]
        if isinstance(inst, Qubit) and inst.index in active_qubits:
            return True
        if (isinstance(inst, ResonatorSegment)
                and inst.resonator_index in active_resonators):
            return True
    return False


def _oracle(layout: Layout, mapped, table: ViolationTable,
            params: NoiseParams = NoiseParams()) -> FidelityBreakdown:
    """Eq. 15 with set-scanned activity and the production float path."""
    active_qubits = mapped.active_qubits
    active_resonators = _active_resonator_indices(layout,
                                                  mapped.active_edges)
    duration = mapped.duration_ns
    n_single, n_two = mapped.timed_gate_totals()
    gate_factor = ((1.0 - params.single_qubit_gate_error) ** n_single
                   * (1.0 - params.two_qubit_gate_error) ** n_two)
    decoherence_factor = ((1.0 - decoherence_error(duration, params))
                          ** len(active_qubits))
    active = np.array([
        _violation_is_active(layout, v, active_qubits, active_resonators)
        for v in table.violations], dtype=bool)
    qq_factor = rr_factor = 1.0
    pair_count = int(active.sum())
    if pair_count:
        eps = table.crosstalk_errors(duration)
        qq_factor = float(np.prod(1.0 - eps[active & table.is_qq]))
        rr_factor = float(np.prod(1.0 - eps[active & ~table.is_qq]))
    return FidelityBreakdown(
        total=gate_factor * decoherence_factor * qq_factor * rr_factor,
        gate_factor=gate_factor,
        decoherence_factor=decoherence_factor,
        qubit_crosstalk_factor=qq_factor,
        resonator_crosstalk_factor=rr_factor,
        active_qubits=len(active_qubits),
        active_resonators=len(active_resonators),
        crosstalk_pairs=pair_count)


@functools.lru_cache(maxsize=None)
def _layouts(topology: str):
    return build_suite(topology).layouts


@functools.lru_cache(maxsize=None)
def _mappings(topology: str):
    topo = get_topology(topology)
    return tuple(
        mapped
        for name in ("qaoa-9", "bv-16")
        for mapped in evaluation_mappings(get_benchmark(name), topo,
                                          num_mappings=8, base_seed=3))


def _assert_matches_oracle(layout: Layout, mappings) -> None:
    table = ViolationTable.build(layout)
    assert len(table) > 0
    for mapped in mappings:
        assert (estimate_program_fidelity(layout, mapped, violations=table)
                == _oracle(layout, mapped, table))


@pytest.mark.parametrize("topology", ["grid-25", "falcon-27"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_default_layouts(topology, strategy):
    _assert_matches_oracle(_layouts(topology)[strategy], _mappings(topology))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_netlist_less_layout(strategy):
    layout = dataclasses.replace(_layouts("falcon-27")[strategy],
                                 netlist=None)
    _assert_matches_oracle(layout, _mappings("falcon-27"))
    fb = estimate_program_fidelity(layout, _mappings("falcon-27")[0])
    assert fb.active_resonators == 0


@pytest.mark.parametrize("layout_topo,mapping_topo",
                         [("falcon-27", "grid-25"), ("grid-25", "falcon-27")])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_mappings_for_another_topology(layout_topo, mapping_topo, strategy):
    _assert_matches_oracle(_layouts(layout_topo)[strategy],
                           _mappings(mapping_topo))


@pytest.mark.parametrize("strategy", ["qplacer", "classic"])
def test_reversed_resonator_endpoints(strategy):
    layout = _layouts("grid-25")[strategy]
    mappings = _mappings("grid-25")
    # Reverse the active resonator whose segments sit in the most
    # violations, so the orientation visibly changes the breakdown.
    table = ViolationTable.build(layout)
    edges = mappings[0].active_edges
    members = np.concatenate([table.res_i, table.res_j])
    candidates = [r for r in layout.netlist.resonators if r.endpoints in edges]
    target = max(candidates,
                 key=lambda r: (int(np.sum(members == r.index)), -r.index))
    lo, hi = target.endpoints
    flipped = dataclasses.replace(target, endpoints=(hi, lo))
    netlist = dataclasses.replace(
        layout.netlist,
        resonators=[flipped if r is target else r
                    for r in layout.netlist.resonators])
    reversed_layout = dataclasses.replace(layout, netlist=netlist)
    _assert_matches_oracle(reversed_layout, mappings)
    before = estimate_program_fidelity(layout, mappings[0])
    after = estimate_program_fidelity(reversed_layout, mappings[0])
    assert after.active_resonators == before.active_resonators - 1


def test_endpoints_beyond_mapping_never_alias():
    """A resonator on a qubit the mapping's ``n`` cannot reach stays
    inactive (the set form never finds ``(0, n + 3)`` among the edges),
    even though ``0 * n + (n + 3)`` is the key of active coupler
    ``(1, 3)``."""
    n = 5
    none = np.array([-1])
    table = ViolationTable(
        violations=[None], qubit_i=none, qubit_j=none,
        res_i=np.array([0]), res_j=none, g_ghz=np.zeros(1),
        detuning_ghz=np.zeros(1), is_qq=np.zeros(1, dtype=bool),
        res_e0=np.array([0]), res_e1=np.array([n + 3]),
        res_index=np.array([0]), gather_size=2)
    active, num_active = table.activity(np.ones(n, dtype=bool),
                                        np.array([1 * n + 3]))
    assert not active.any()
    assert num_active == 0
