"""Spatial-violation detection (Sec. III / Sec. V-C metrics).

Two components *violate spatial constraints* when the Euclidean
edge-to-edge gap of their bare footprints is smaller than the sum of
their paddings (the paper's minimum-distance rule, Sec. IV-B1).  Each
violation carries the physics needed by the noise model: the bare gap,
the facing (adjacent) length, the detuning, and the resulting parasitic
coupling strengths ``g`` and ``g_eff``.

Intended couplings are excluded:

* sibling segments of one resonator (they *must* cluster, Eq. 10);
* a qubit and the segments of a resonator attached to that qubit (they
  must abut to form the coupler connection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from .. import constants
from ..core.interactions import dense_candidate_pairs, grid_candidate_pairs
from ..devices.components import Qubit, ResonatorSegment
from ..devices.layout import Layout
from ..physics.capacitance import (
    qubit_parasitic_capacitance_ff,
    resonator_parasitic_capacitance_ff,
)
from ..physics.coupling import (
    effective_coupling_ghz,
    qubit_qubit_coupling_ghz,
    resonator_resonator_coupling_ghz,
)

#: Violation kinds: qubit-qubit, resonator-resonator, qubit-resonator.
KIND_QQ = "qq"
KIND_RR = "rr"
KIND_QR = "qr"


@dataclass(frozen=True)
class SpatialViolation:
    """One pair of components closer than their required spacing.

    Attributes:
        i, j: Instance indices in the layout (i < j).
        kind: One of ``"qq"``, ``"rr"``, ``"qr"``.
        gap_mm: Edge-to-edge gap between the bare footprints.
        facing_mm: Adjacent (facing) length between the footprints.
        detuning_ghz: ``|wi - wj|``.
        g_ghz: Parasitic coupling strength at this gap.
        g_eff_ghz: Effective coupling after detuning (Eq. 4/5).
        resonant: True when the detuning is within ``Delta_c``.
    """

    i: int
    j: int
    kind: str
    gap_mm: float
    facing_mm: float
    detuning_ghz: float
    g_ghz: float
    g_eff_ghz: float
    resonant: bool


def attached_resonators_by_qubit(layout: Layout) -> Optional[Dict[int, Set[int]]]:
    """Map qubit index -> indices of resonators attached to it."""
    if layout.netlist is None:
        return None
    attached: Dict[int, Set[int]] = {}
    for resonator in layout.netlist.resonators:
        for q in resonator.endpoints:
            attached.setdefault(q, set()).add(resonator.index)
    return attached


def spatial_candidate_pairs(positions: np.ndarray, half_w: np.ndarray,
                            half_h: np.ndarray, pads: np.ndarray,
                            backend: str = "sparse"
                            ) -> Tuple[np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]:
    """``(i, j, |dx|, |dy|)`` of pairs whose padded footprints touch.

    Candidates come from a uniform grid sized to the largest possible
    padded reach, so only nearby pairs are screened, at every size.
    ``backend="dense"`` selects the all-pairs ``triu`` oracle instead;
    both return the same pairs in the same lexicographic order, so every
    downstream filter produces identical violation lists under either
    strategy.  The per-axis centre distances come back alongside the
    indices so the violation scan never recomputes them.  Fewer than two
    instances yield empty arrays.
    """
    if backend not in ("dense", "sparse"):
        raise ValueError(f"unknown violation-scan backend {backend!r}")
    n = positions.shape[0]
    if n < 2:
        no_pairs = np.zeros(0, dtype=np.int64)
        no_dist = np.zeros(0, dtype=np.float64)
        return no_pairs, no_pairs, no_dist, no_dist
    if backend == "dense":
        iu, ju = dense_candidate_pairs(n)
        presorted = True
    else:
        # pw, ph <= 2 * max(half + pad): a cutoff of that bound makes
        # the grid candidates a superset of every touching pair.
        reach = 2.0 * float(np.max(np.maximum(half_w, half_h) + pads))
        iu, ju = grid_candidate_pairs(positions, max(reach, 1e-9),
                                      sort=False)
        presorted = False
    dx = np.abs(positions[iu, 0] - positions[ju, 0])
    dy = np.abs(positions[iu, 1] - positions[ju, 1])
    pw = half_w[iu] + half_w[ju] + pads[iu] + pads[ju]
    ph = half_h[iu] + half_h[ju] + pads[iu] + pads[ju]
    cand = (dx <= pw) & (dy <= ph)
    iu, ju, dx, dy = iu[cand], ju[cand], dx[cand], dy[cand]
    if not presorted and iu.size:
        order = np.argsort(iu.astype(np.int64) * np.int64(n) + ju)
        iu, ju, dx, dy = iu[order], ju[order], dx[order], dy[order]
    return iu, ju, dx, dy


def _footprints(layout: Layout) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]:
    """``(centres, half widths, half heights, paddings)`` per instance."""
    insts = layout.instances
    return (np.asarray(layout.positions, dtype=float),
            np.array([0.5 * it.width for it in insts]),
            np.array([0.5 * it.height for it in insts]),
            np.array([it.padding for it in insts]))


def count_candidate_pairs(layout: Layout, backend: str = "sparse") -> int:
    """Number of padded-footprint candidate pairs (scaling telemetry)."""
    iu, _, _, _ = spatial_candidate_pairs(*_footprints(layout),
                                          backend=backend)
    return int(iu.size)


class ViolatingPairs(NamedTuple):
    """Columns of a layout's violating pairs, in lexicographic order.

    ``pos``/``half_w``/``half_h``/``pads``/``is_q`` are per instance;
    ``i``/``j`` (instance indices, ``i < j``), the centre distances
    ``dx``/``dy``, the bare edge-to-edge ``gap`` and the bare
    ``facing`` length are per pair.
    """

    pos: np.ndarray
    half_w: np.ndarray
    half_h: np.ndarray
    pads: np.ndarray
    is_q: np.ndarray
    i: np.ndarray
    j: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    gap: np.ndarray
    facing: np.ndarray


def violating_pairs(layout: Layout, backend: str = "sparse") -> ViolatingPairs:
    """The purely geometric half of the violation scan.

    Candidates (padded footprints touching), then the bare-gap filter
    against the padding sum, then the intended-adjacency exclusion
    (sibling segments; a qubit against the segments of a resonator
    attached to it), then the bare facing length of the survivors.
    :func:`find_spatial_violations` and the frozen-layout ensemble
    scorer share it; both are frequency-dependent only after it.
    """
    insts = layout.instances
    pos, half_w, half_h, pads = _footprints(layout)
    is_q = np.array([isinstance(it, Qubit) for it in insts], dtype=bool)
    res_idx = np.array([
        it.resonator_index if isinstance(it, ResonatorSegment) else -1
        for it in insts], dtype=np.int64)

    iu, ju, dx, dy = spatial_candidate_pairs(pos, half_w, half_h, pads,
                                             backend=backend)

    # Bare edge-to-edge gap versus the padding-sum requirement.
    bgx = np.maximum(0.0, dx - (half_w[iu] + half_w[ju]))
    bgy = np.maximum(0.0, dy - (half_h[iu] + half_h[ju]))
    gaps = np.hypot(bgx, bgy)
    viol = gaps < (pads[iu] + pads[ju]) - 1e-6
    iu, ju, dx, dy, gaps = iu[viol], ju[viol], dx[viol], dy[viol], gaps[viol]

    # Intended-adjacency exclusion (checked per surviving qubit-segment
    # pair — few remain).
    keep = ~((res_idx[iu] == res_idx[ju]) & (res_idx[iu] >= 0))
    attached = attached_resonators_by_qubit(layout)
    if attached is not None:
        for k in np.flatnonzero((is_q[iu] ^ is_q[ju]) & keep):
            a, b = int(iu[k]), int(ju[k])
            q, s = (a, b) if is_q[a] else (b, a)
            if int(res_idx[s]) in attached.get(insts[q].index, ()):
                keep[k] = False
    iu, ju, dx, dy, gaps = iu[keep], ju[keep], dx[keep], dy[keep], gaps[keep]

    ox = np.maximum(0.0,
                    np.minimum(pos[iu, 0] + half_w[iu], pos[ju, 0] + half_w[ju])
                    - np.maximum(pos[iu, 0] - half_w[iu], pos[ju, 0] - half_w[ju]))
    oy = np.maximum(0.0,
                    np.minimum(pos[iu, 1] + half_h[iu], pos[ju, 1] + half_h[ju])
                    - np.maximum(pos[iu, 1] - half_h[iu], pos[ju, 1] - half_h[ju]))
    return ViolatingPairs(pos=pos, half_w=half_w, half_h=half_h, pads=pads,
                          is_q=is_q, i=iu, j=ju, dx=dx, dy=dy, gap=gaps,
                          facing=np.maximum(ox, oy))


def find_spatial_violations(layout: Layout,
                            detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ,
                            include_qr: bool = True,
                            backend: str = "sparse") -> List[SpatialViolation]:
    """All spatial violations in a layout.

    A pair violates when the padded footprints intersect with positive
    area.  Intended-adjacency pairs (sibling segments; a resonator's
    segments against its own endpoint qubits) are skipped.

    Args:
        layout: The placed layout.
        detuning_threshold_ghz: Resonance threshold ``Delta_c``.
        include_qr: Also report qubit-resonator violations (these are
            deeply detuned and mostly informational).
        backend: Candidate-pair strategy: ``"sparse"`` (the grid) or
            the ``"dense"`` all-pairs oracle; the resulting violation
            list is identical under either.
    """
    pairs = violating_pairs(layout, backend=backend)
    is_q = pairs.is_q
    iu, ju, gaps, facing = pairs.i, pairs.j, pairs.gap, pairs.facing
    freqs = np.array([it.frequency for it in layout.instances])
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


def count_by_kind(violations: List[SpatialViolation]) -> Dict[str, int]:
    """Histogram of violations by kind."""
    counts = {KIND_QQ: 0, KIND_RR: 0, KIND_QR: 0}
    for v in violations:
        counts[v.kind] += 1
    return counts
