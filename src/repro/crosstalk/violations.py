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
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .. import constants
from ..core.interactions import (grid_candidate_pairs, intended_adjacency,
                                 resonator_endpoints)
from ..devices.components import Qubit, ResonatorSegment
from ..devices.layout import Layout
from ..physics.capacitance import (
    qubit_parasitic_capacitance_ff,
    resonator_parasitic_capacitance_ff,
)
from ..physics.coupling import effective_coupling_ghz, qubit_qubit_coupling_ghz

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


def spatial_candidate_pairs(positions: np.ndarray, half_w: np.ndarray,
                            half_h: np.ndarray, pads: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray,
                                       np.ndarray, np.ndarray]:
    """``(i, j, |dx|, |dy|)`` of pairs whose padded footprints touch.

    Candidates come from a uniform grid sized to the largest possible
    padded reach, so only nearby pairs are screened, at every size.  The
    pairs come back in lexicographic order, as an all-pairs ``triu``
    scan would list them, with the per-axis centre distances alongside
    so the violation scan never recomputes them.  Fewer than two
    instances yield empty arrays.
    """
    n = positions.shape[0]
    # pw, ph <= 2 * max(half + pad): a cutoff of that bound makes the
    # grid candidates a superset of every touching pair.
    reach = 2.0 * float(np.max(np.maximum(half_w, half_h) + pads,
                               initial=0.0))
    iu, ju = grid_candidate_pairs(positions, max(reach, 1e-9), sort=False)
    dx = np.abs(positions[iu, 0] - positions[ju, 0])
    dy = np.abs(positions[iu, 1] - positions[ju, 1])
    pw = half_w[iu] + half_w[ju] + pads[iu] + pads[ju]
    ph = half_h[iu] + half_h[ju] + pads[iu] + pads[ju]
    cand = (dx <= pw) & (dy <= ph)
    iu, ju, dx, dy = iu[cand], ju[cand], dx[cand], dy[cand]
    order = np.argsort(iu.astype(np.int64) * np.int64(n) + ju)
    return iu[order], ju[order], dx[order], dy[order]


def _footprints(layout: Layout) -> Tuple[np.ndarray, ...]:
    """Per-instance columns, from one walk over the instances.

    ``(centres, half widths, half heights, paddings, is-qubit mask,
    topology qubit index or -1, resonator index or -1)``.
    """
    insts = layout.instances
    is_q = np.array([isinstance(it, Qubit) for it in insts], dtype=bool)
    return (np.asarray(layout.positions, dtype=float),
            np.array([0.5 * it.width for it in insts]),
            np.array([0.5 * it.height for it in insts]),
            np.array([it.padding for it in insts]),
            is_q,
            np.array([it.index if q else -1 for it, q in zip(insts, is_q)],
                     dtype=np.int64),
            np.array([it.resonator_index
                      if isinstance(it, ResonatorSegment) else -1
                      for it in insts], dtype=np.int64))


def count_candidate_pairs(layout: Layout) -> int:
    """Number of padded-footprint candidate pairs (scaling telemetry)."""
    iu, _, _, _ = spatial_candidate_pairs(*_footprints(layout)[:4])
    return int(iu.size)


class ViolatingPairs(NamedTuple):
    """Columns of a layout's violating pairs, in lexicographic order.

    ``pos``/``half_w``/``half_h``/``pads``/``is_q`` are per instance,
    and ``ends`` per resonator index
    (:func:`~repro.core.interactions.resonator_endpoints`).
    ``i``/``j`` (instance indices, ``i < j``), the centre distances
    ``dx``/``dy``, the bare edge-to-edge ``gap``, the bare ``facing``
    length and the parasitic capacitance ``cp`` (fF) are per pair, and
    so are the ``(P, 2)`` member
    columns ``qubit`` (topology qubit index of a qubit member, else -1)
    and ``resonator`` (resonator index of a segment member, else -1).
    """

    pos: np.ndarray
    half_w: np.ndarray
    half_h: np.ndarray
    pads: np.ndarray
    is_q: np.ndarray
    ends: np.ndarray
    i: np.ndarray
    j: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    gap: np.ndarray
    facing: np.ndarray
    cp: np.ndarray
    qubit: np.ndarray
    resonator: np.ndarray

    def impacted_qubits(self) -> np.ndarray:
        """``(P, 6)`` topology qubits each pair impacts, ``-1`` padded.

        A qubit member impacts itself; a segment member impacts both
        endpoints of its resonator (the non-local spread of resonator
        crosstalk, Fig. 12 middle).
        """
        ends = np.where((self.resonator >= 0)[:, :, None],
                        self.ends[np.maximum(self.resonator, 0)], -1)
        return np.concatenate([self.qubit, ends.reshape(-1, 4)], axis=1)


def violating_pairs(layout: Layout) -> ViolatingPairs:
    """The purely geometric half of the violation scan.

    Candidates (padded footprints touching), then the bare-gap filter
    against the padding sum, then the
    :func:`~repro.core.interactions.intended_adjacency`
    exclusion, then the bare facing length of the survivors.
    :func:`violation_columns` and the frozen-layout ensemble scorer
    share it; both are frequency-dependent only after it.
    """
    pos, half_w, half_h, pads, is_q, qubit, resonator = _footprints(layout)
    ends = resonator_endpoints(layout.netlist, resonator)
    iu, ju, dx, dy = spatial_candidate_pairs(pos, half_w, half_h, pads)

    # Bare edge-to-edge gap versus the padding-sum requirement.
    bgx = np.maximum(0.0, dx - (half_w[iu] + half_w[ju]))
    bgy = np.maximum(0.0, dy - (half_h[iu] + half_h[ju]))
    gaps = np.hypot(bgx, bgy)
    keep = gaps < (pads[iu] + pads[ju]) - 1e-6
    keep[keep] = ~intended_adjacency(qubit, resonator, ends,
                                     iu[keep], ju[keep])
    iu, ju, dx, dy, gaps = iu[keep], ju[keep], dx[keep], dy[keep], gaps[keep]

    ox = np.maximum(0.0,
                    np.minimum(pos[iu, 0] + half_w[iu], pos[ju, 0] + half_w[ju])
                    - np.maximum(pos[iu, 0] - half_w[iu], pos[ju, 0] - half_w[ju]))
    oy = np.maximum(0.0,
                    np.minimum(pos[iu, 1] + half_h[iu], pos[ju, 1] + half_h[ju])
                    - np.maximum(pos[iu, 1] - half_h[iu], pos[ju, 1] - half_h[ju]))
    facing = np.maximum(ox, oy)
    # Parasitic capacitance: gap-only for qubit pairs, the facing-length
    # model when a resonator segment is involved.
    cp = np.where(is_q[iu] & is_q[ju], qubit_parasitic_capacitance_ff(gaps),
                  resonator_parasitic_capacitance_ff(
                      gaps, np.maximum(facing, 1e-3)))
    return ViolatingPairs(pos=pos, half_w=half_w, half_h=half_h, pads=pads,
                          is_q=is_q, ends=ends, i=iu, j=ju, dx=dx, dy=dy,
                          gap=gaps, facing=facing, cp=cp,
                          qubit=np.stack([qubit[iu], qubit[ju]], axis=1),
                          resonator=np.stack([resonator[iu], resonator[ju]],
                                             axis=1))


class ViolationColumns(NamedTuple):
    """A layout's spatial violations as columns, one row per pair.

    ``pairs`` is the geometric scan (:class:`ViolatingPairs`); the
    per-row ``kind`` (``KIND_*``), ``detuning``, parasitic ``g``,
    effective ``g_eff`` and ``resonant`` flag are its frequency tail.
    :class:`SpatialViolation` row ``k`` holds the same numbers.
    """

    pairs: ViolatingPairs
    kind: np.ndarray
    detuning: np.ndarray
    g: np.ndarray
    g_eff: np.ndarray
    resonant: np.ndarray


def violation_columns(layout: Layout,
                      detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ
                      ) -> ViolationColumns:
    """Scan a layout's spatial violations into columns.

    A pair violates when the bare edge-to-edge gap is below the padding
    sum; intended adjacencies are skipped (:func:`violating_pairs`).
    Every layout scorer (Eq. 15 tables, Eq. 18 ``Ph``, layout metrics)
    reads these columns; :func:`find_spatial_violations` is their
    record view.
    """
    pairs = violating_pairs(layout)
    is_q = pairs.is_q
    iu, ju = pairs.i, pairs.j
    freqs = np.array([it.frequency for it in layout.instances])
    both_q = is_q[iu] & is_q[ju]
    neither_q = ~is_q[iu] & ~is_q[ju]

    detuning = np.abs(freqs[iu] - freqs[ju])
    # Eq. (6) with each member's own shunt capacitance covers the qq,
    # rr and qr couplings.
    caps = np.where(is_q, constants.QUBIT_CAPACITANCE_FF,
                    constants.RESONATOR_CAPACITANCE_FF)
    g = qubit_qubit_coupling_ghz(freqs[iu], freqs[ju], pairs.cp, caps[iu],
                                 caps[ju])
    return ViolationColumns(
        pairs=pairs,
        kind=np.where(both_q, KIND_QQ, np.where(neither_q, KIND_RR, KIND_QR)),
        detuning=detuning, g=g,
        g_eff=effective_coupling_ghz(g, detuning, detuning_threshold_ghz),
        resonant=detuning <= detuning_threshold_ghz)


def find_spatial_violations(layout: Layout,
                            detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ,
                            include_qr: bool = True) -> List[SpatialViolation]:
    """All spatial violations in a layout, one record per pair.

    The list view of :func:`violation_columns`.

    Args:
        layout: The placed layout.
        detuning_threshold_ghz: Resonance threshold ``Delta_c``.
        include_qr: Also report qubit-resonator violations (these are
            deeply detuned and mostly informational).
    """
    cols = violation_columns(layout, detuning_threshold_ghz)
    p = cols.pairs
    rows = range(p.i.size) if include_qr else \
        np.flatnonzero(cols.kind != KIND_QR)
    return [
        SpatialViolation(
            i=int(p.i[k]), j=int(p.j[k]), kind=str(cols.kind[k]),
            gap_mm=float(p.gap[k]), facing_mm=float(p.facing[k]),
            detuning_ghz=float(cols.detuning[k]), g_ghz=float(cols.g[k]),
            g_eff_ghz=float(cols.g_eff[k]),
            resonant=bool(cols.resonant[k]))
        for k in rows
    ]


def count_by_kind(violations: List[SpatialViolation]) -> Dict[str, int]:
    """Histogram of violations by kind."""
    counts = {KIND_QQ: 0, KIND_RR: 0, KIND_QR: 0}
    for v in violations:
        counts[v.kind] += 1
    return counts
