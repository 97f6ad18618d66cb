"""Eq. (18) evaluated one hotspot pair at a time with ``Rect`` objects.

:func:`repro.crosstalk.hotspots.hotspot_report` computes the padded
footprints, facing lengths and centroid distances as columns; this is
the per-pair loop it replaced, over the
:func:`~repro.crosstalk.violations.find_spatial_violations` records,
kept as the specification it is pinned to bit for bit.
"""

from __future__ import annotations

from typing import List, Set

from repro import constants
from repro.crosstalk.hotspots import HotspotPair, HotspotReport
from repro.crosstalk.violations import find_spatial_violations
from repro.devices.components import Qubit, ResonatorSegment
from repro.devices.layout import Layout

from .geometry import adjacency_length, centroid_distance


def _impacted_from_pair(layout: Layout, i: int, j: int) -> Set[int]:
    """Qubits affected by a hotspot pair (non-local resonator spread)."""
    impacted: Set[int] = set()
    endpoints = {}
    if layout.netlist is not None:
        endpoints = {r.index: r.endpoints for r in layout.netlist.resonators}
    for idx in (i, j):
        inst = layout.instances[idx]
        if isinstance(inst, Qubit):
            impacted.add(inst.index)
        elif isinstance(inst, ResonatorSegment):
            impacted.update(endpoints.get(inst.resonator_index, ()))
    return impacted


def hotspot_report(layout: Layout,
                   detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ
                   ) -> HotspotReport:
    """Evaluate Eq. (18) on a layout, pair by pair."""
    violations = find_spatial_violations(
        layout, detuning_threshold_ghz=detuning_threshold_ghz)
    apoly = layout.apoly()
    pairs: List[HotspotPair] = []
    impacted: Set[int] = set()
    for v in violations:
        if not v.resonant:
            continue
        pi = layout.padded_rect(v.i)
        pj = layout.padded_rect(v.j)
        facing = adjacency_length(pi, pj)
        dc = centroid_distance(pi, pj)
        pairs.append(HotspotPair(
            i=v.i, j=v.j, facing_mm=facing,
            centroid_distance_mm=dc,
            contribution=facing * dc))
        impacted.update(_impacted_from_pair(layout, v.i, v.j))
    total = sum(p.contribution for p in pairs)
    ph = total / apoly if apoly > 0 else 0.0
    return HotspotReport(ph=ph, pairs=pairs,
                         impacted_qubits=impacted, apoly=apoly)
