"""The all-pairs ``triu`` spatial-violation scan.

:mod:`repro.crosstalk.violations` screens candidate pairs with a
uniform grid and applies the intended-adjacency rule as one vectorized
kernel.  This module keeps the scan as it stood before either: every
``i < j`` pair is a candidate, and the intended-adjacency exclusion is
a per-pair loop over a ``qubit -> attached resonators`` dict.  The
identity tests and the scaling bench's gate pin the library's records
to these, and :func:`spatial_candidate_pairs` to the grid's candidates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro import constants
from repro.crosstalk.violations import (
    KIND_QQ,
    KIND_QR,
    KIND_RR,
    SpatialViolation,
)
from repro.devices.components import Qubit, ResonatorSegment
from repro.devices.layout import Layout
from repro.physics.capacitance import (
    qubit_parasitic_capacitance_ff,
    resonator_parasitic_capacitance_ff,
)
from repro.physics.coupling import (
    effective_coupling_ghz,
    qubit_qubit_coupling_ghz,
    resonator_resonator_coupling_ghz,
)


def _attached_resonators_by_qubit(layout: Layout
                                  ) -> Optional[Dict[int, Set[int]]]:
    """Map qubit index -> indices of resonators attached to it."""
    if layout.netlist is None:
        return None
    attached: Dict[int, Set[int]] = {}
    for resonator in layout.netlist.resonators:
        for q in resonator.endpoints:
            attached.setdefault(q, set()).add(resonator.index)
    return attached


def spatial_candidate_pairs(positions: np.ndarray, half_w: np.ndarray,
                            half_h: np.ndarray, pads: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]:
    """``(i, j, |dx|, |dy|)`` of every pair whose padded footprints
    touch, screened from all ``triu`` pairs (lexicographic order)."""
    n = positions.shape[0]
    if n < 2:
        no_pairs = np.zeros(0, dtype=np.int64)
        no_dist = np.zeros(0, dtype=np.float64)
        return no_pairs, no_pairs, no_dist, no_dist
    iu, ju = np.triu_indices(n, 1)
    dx = np.abs(positions[iu, 0] - positions[ju, 0])
    dy = np.abs(positions[iu, 1] - positions[ju, 1])
    pw = half_w[iu] + half_w[ju] + pads[iu] + pads[ju]
    ph = half_h[iu] + half_h[ju] + pads[iu] + pads[ju]
    cand = (dx <= pw) & (dy <= ph)
    return iu[cand], ju[cand], dx[cand], dy[cand]


def _footprints(layout: Layout) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]:
    insts = layout.instances
    return (np.asarray(layout.positions, dtype=float),
            np.array([0.5 * it.width for it in insts]),
            np.array([0.5 * it.height for it in insts]),
            np.array([it.padding for it in insts]))


def count_candidate_pairs(layout: Layout) -> int:
    """Number of padded-footprint candidate pairs."""
    return int(spatial_candidate_pairs(*_footprints(layout))[0].size)


def find_spatial_violations(layout: Layout,
                            detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ,
                            include_qr: bool = True) -> List[SpatialViolation]:
    """All spatial violations of a layout, from the all-pairs scan."""
    insts = layout.instances
    pos, half_w, half_h, pads = _footprints(layout)
    is_q = np.array([isinstance(it, Qubit) for it in insts], dtype=bool)
    res_idx = np.array([
        it.resonator_index if isinstance(it, ResonatorSegment) else -1
        for it in insts], dtype=np.int64)
    iu, ju, dx, dy = spatial_candidate_pairs(pos, half_w, half_h, pads)

    # Bare edge-to-edge gap versus the padding-sum requirement.
    bgx = np.maximum(0.0, dx - (half_w[iu] + half_w[ju]))
    bgy = np.maximum(0.0, dy - (half_h[iu] + half_h[ju]))
    gaps = np.hypot(bgx, bgy)
    viol = gaps < (pads[iu] + pads[ju]) - 1e-6
    iu, ju, gaps = iu[viol], ju[viol], gaps[viol]

    # Intended-adjacency exclusion, one qubit-segment pair at a time.
    keep = ~((res_idx[iu] == res_idx[ju]) & (res_idx[iu] >= 0))
    attached = _attached_resonators_by_qubit(layout)
    if attached is not None:
        for k in np.flatnonzero((is_q[iu] ^ is_q[ju]) & keep):
            a, b = int(iu[k]), int(ju[k])
            q, s = (a, b) if is_q[a] else (b, a)
            if int(res_idx[s]) in attached.get(insts[q].index, ()):
                keep[k] = False
    iu, ju, gaps = iu[keep], ju[keep], gaps[keep]

    ox = np.maximum(0.0,
                    np.minimum(pos[iu, 0] + half_w[iu], pos[ju, 0] + half_w[ju])
                    - np.maximum(pos[iu, 0] - half_w[iu], pos[ju, 0] - half_w[ju]))
    oy = np.maximum(0.0,
                    np.minimum(pos[iu, 1] + half_h[iu], pos[ju, 1] + half_h[ju])
                    - np.maximum(pos[iu, 1] - half_h[iu], pos[ju, 1] - half_h[ju]))
    facing = np.maximum(ox, oy)

    freqs = np.array([it.frequency for it in insts])
    both_q = is_q[iu] & is_q[ju]
    neither_q = ~is_q[iu] & ~is_q[ju]
    if not include_qr:
        keep = both_q | neither_q
        iu, ju, gaps, facing = iu[keep], ju[keep], gaps[keep], facing[keep]
        both_q, neither_q = both_q[keep], neither_q[keep]

    detuning = np.abs(freqs[iu] - freqs[ju])
    g = np.empty(iu.size)
    if both_q.any():
        cp = qubit_parasitic_capacitance_ff(gaps[both_q])
        g[both_q] = qubit_qubit_coupling_ghz(
            freqs[iu[both_q]], freqs[ju[both_q]], cp)
    mixed = ~both_q
    if mixed.any():
        cp = resonator_parasitic_capacitance_ff(
            gaps[mixed], np.maximum(facing[mixed], 1e-3))
        qr = mixed & ~neither_q
        rr = mixed & neither_q
        sel_rr = neither_q[mixed]
        g_mixed = np.empty(int(mixed.sum()))
        if rr.any():
            g_mixed[sel_rr] = resonator_resonator_coupling_ghz(
                freqs[iu[rr]], freqs[ju[rr]], cp[sel_rr])
        if qr.any():
            g_mixed[~sel_rr] = qubit_qubit_coupling_ghz(
                freqs[iu[qr]], freqs[ju[qr]], cp[~sel_rr],
                constants.QUBIT_CAPACITANCE_FF,
                constants.RESONATOR_CAPACITANCE_FF)
        g[mixed] = g_mixed
    g_eff = effective_coupling_ghz(g, detuning, detuning_threshold_ghz)
    resonant = detuning <= detuning_threshold_ghz

    kinds = np.where(both_q, KIND_QQ, np.where(neither_q, KIND_RR, KIND_QR))
    return [
        SpatialViolation(
            i=int(iu[k]), j=int(ju[k]), kind=str(kinds[k]),
            gap_mm=float(gaps[k]), facing_mm=float(facing[k]),
            detuning_ghz=float(detuning[k]), g_ghz=float(g[k]),
            g_eff_ghz=float(g_eff[k]), resonant=bool(resonant[k]))
        for k in range(iu.size)
    ]
