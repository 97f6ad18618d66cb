"""The ``Human`` baseline: IBM-style manually optimised layout (Sec. V-B).

Qubits sit on a 2D lattice following the topology's canonical drawing,
spaced so that each coupler's reshaped resonator strip fits between its
endpoint qubits:

``D = L * dr / (Lq + 2 dq)``            (paper's strip-length formula)
``pitch = (Lq + 2 dq) + D``

Resonator segments are arranged as a compact block at each edge's
midpoint — the reshaped strip.  By construction nearest neighbours are
either intended pairs or detuned, so the layout is (near) crosstalk-free
but pays a large substrate area, which is exactly the trade-off Fig. 13
quantifies.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .. import constants
from ..core.config import PlacerConfig
from ..core.preprocess import build_problem
from ..devices.layout import Layout
from ..devices.netlist import QuantumNetlist


def human_strip_length_mm(resonator_length_mm: float,
                          resonator_padding_mm: float = constants.RESONATOR_PADDING_MM,
                          qubit_size_mm: float = constants.QUBIT_SIZE_MM,
                          qubit_padding_mm: float = constants.QUBIT_PADDING_MM) -> float:
    """The paper's strip length ``D = L * dr / (Lq + 2 dq)``."""
    if resonator_length_mm <= 0:
        raise ValueError("resonator length must be positive")
    return (resonator_length_mm * resonator_padding_mm
            / (qubit_size_mm + 2.0 * qubit_padding_mm))


def human_qubit_pitch_mm(netlist: QuantumNetlist,
                         qubit_padding_mm: float = constants.QUBIT_PADDING_MM) -> float:
    """Qubit lattice pitch: padded qubit size plus the mean strip length."""
    qubit_size = netlist.qubits[0].width if netlist.qubits else constants.QUBIT_SIZE_MM
    padded = qubit_size + 2.0 * qubit_padding_mm
    mean_length = float(np.mean([r.length_mm for r in netlist.resonators])) \
        if netlist.resonators else 0.0
    mean_d = human_strip_length_mm(
        mean_length, netlist.resonators[0].pitch if netlist.resonators else 0.1,
        qubit_size, qubit_padding_mm) if netlist.resonators else 0.0
    return padded + mean_d


def human_layout(netlist: QuantumNetlist,
                 config: Optional[PlacerConfig] = None) -> Layout:
    """Build the manually optimised reference layout.

    Args:
        netlist: Device netlist (topology + frequencies + components).
        config: Supplies the segment size ``lb``; defaults elsewhere.

    Returns:
        A :class:`Layout` whose instances match the placement problem's
        (qubits first, then resonator segments), so every metric applies
        unchanged.
    """
    if config is None:
        config = PlacerConfig()
    problem = build_problem(netlist, config)
    coords = netlist.topology.coords
    pitch = human_qubit_pitch_mm(netlist, config.qubit_padding_mm)

    positions = np.zeros_like(problem.initial_positions)
    qubit_instance_index = {
        inst.index: i for i, inst in enumerate(problem.instances)
        if problem.is_qubit[i]
    }
    for q, (cx, cy) in coords.items():
        positions[qubit_instance_index[q]] = (cx * pitch, cy * pitch)

    padded_qubit = (netlist.qubits[0].width + 2.0 * config.qubit_padding_mm
                    if netlist.qubits else 1.2)
    lb = config.segment_size_mm
    cols = max(1, int(padded_qubit // lb))
    segments_by_resonator: Dict[int, List[int]] = {}
    for i, inst in enumerate(problem.instances):
        r = int(problem.resonator_index[i])
        if r >= 0:
            segments_by_resonator.setdefault(r, []).append(i)

    for resonator in netlist.resonators:
        u, v = resonator.endpoints
        pu = positions[qubit_instance_index[u]]
        pv = positions[qubit_instance_index[v]]
        mid = (pu + pv) / 2.0
        direction = pv - pu
        norm = float(np.hypot(*direction))
        if norm == 0:
            direction = np.array([1.0, 0.0])
            norm = 1.0
        e = direction / norm           # along the edge
        p = np.array([-e[1], e[0]])    # perpendicular
        seg_ids = segments_by_resonator.get(resonator.index, [])
        rows = max(1, math.ceil(len(seg_ids) / cols))
        for k, seg in enumerate(seg_ids):
            row, col = divmod(k, cols)
            along = (row - (rows - 1) / 2.0) * lb
            across = (col - (cols - 1) / 2.0) * lb
            positions[seg] = mid + along * e + across * p
    return Layout(
        instances=problem.instances,
        positions=positions,
        netlist=netlist,
        strategy="human",
    ).translated_to_origin()
