"""Placement preprocessing (Sec. IV-B): padding, partitioning, nets.

Turns a :class:`~repro.devices.netlist.QuantumNetlist` into a
:class:`PlacementProblem` — flat numpy arrays the optimizer consumes:

* movable **instances**: every qubit plus every resonator segment
  (resonators are partitioned into ``lb x lb`` blocks here);
* **chain nets**: for a resonator coupling ``(q_u, q_v)`` with segments
  ``s_0..s_k`` the 2-pin chain ``q_u-s_0, s_0-s_1, ..., s_k-q_v`` — the
  wirelength objective pulls each coupler into a contiguous snake
  between its endpoints;
* the **intended-adjacency keys**: each instance's topology qubit index
  and each resonator's endpoint qubits, which the legality rules read
  through :func:`~repro.core.interactions.intended_adjacency`;
* the placement **region**, sized from the clearance-inflated footprint
  area and the whitespace factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..devices.components import Instance, Qubit, ResonatorSegment
from ..devices.geometry import Rect
from ..devices.netlist import QuantumNetlist
from .config import PlacerConfig
from .interactions import resonator_endpoints


@dataclass
class PlacementProblem:
    """Numeric view of one placement instance.

    Attributes:
        netlist: Source netlist.
        config: Placer configuration used to build the problem.
        instances: Movable instances (all qubits first, then segments).
        nets: ``(m, 2)`` int array of 2-pin chain nets.
        sizes: ``(n, 2)`` bare footprint dimensions (mm).
        clearances: ``(n,)`` per-instance routing clearance (mm).
        paddings: ``(n,)`` per-instance crosstalk padding (mm).
        frequencies: ``(n,)`` operating frequencies (GHz).
        resonator_index: ``(n,)`` owner resonator id, -1 for qubits.
        qubit_index: ``(n,)`` topology qubit index, -1 for segments.
        resonator_ends: ``(R, 2)`` endpoint qubit indices per resonator
            id (:func:`~repro.core.interactions.resonator_endpoints`).
        is_qubit: ``(n,)`` bool mask.
        region: Placement canvas.
        initial_positions: ``(n, 2)`` deterministic starting centres.
        freq_pair_cutoff_mm: Reach of the engine's frequency force.
        density_flush_interval: Objective evaluations between density
            checkpoints (1: every evaluation is the exact recompute).
        auto_detailed_passes: Detailed passes when the config leaves
            ``detailed_passes`` unset.

    The last three come from the size rule (:data:`SPARSE_MIN_INSTANCES`).
    """

    netlist: QuantumNetlist
    config: PlacerConfig
    instances: List[Instance]
    nets: np.ndarray
    sizes: np.ndarray
    clearances: np.ndarray
    paddings: np.ndarray
    frequencies: np.ndarray
    resonator_index: np.ndarray
    qubit_index: np.ndarray
    resonator_ends: np.ndarray
    is_qubit: np.ndarray
    region: Rect
    initial_positions: np.ndarray
    freq_pair_cutoff_mm: float
    density_flush_interval: int
    auto_detailed_passes: int

    @property
    def num_instances(self) -> int:
        """Number of movable instances."""
        return len(self.instances)

    @property
    def num_qubits(self) -> int:
        """Number of qubit instances."""
        return int(self.is_qubit.sum())

    def inflated_sizes(self) -> np.ndarray:
        """Footprints grown by the routing clearance (density footprint)."""
        return self.sizes + self.clearances[:, None]


#: The size rule, run only by :func:`build_problem`.  Up to this many
#: instances the engine sums every resonant pair (cutoff: the region
#: diagonal), recomputes density exactly and skips detailed placement.
#: Above it, pairs further apart than :data:`FREQ_PAIR_CUTOFF_MM` (mm;
#: each < 1/cutoff) are dropped, the incremental density map is flushed
#: every :data:`DENSITY_FLUSH_INTERVAL` evaluations, and one detailed
#: pass runs.  Every Table I topology (largest: eagle-127, 1814
#: instances) sits at or below it; grid-121 and the condor tiers above.
SPARSE_MIN_INSTANCES = 2048
FREQ_PAIR_CUTOFF_MM = 3.0
DENSITY_FLUSH_INTERVAL = 16


def build_problem(netlist: QuantumNetlist,
                  config: Optional[PlacerConfig] = None) -> PlacementProblem:
    """Run the Sec. IV-B preprocessing and assemble the numeric problem."""
    if config is None:
        config = PlacerConfig()

    qubits: List[Instance] = list(netlist.qubits)
    segments: List[Instance] = []
    chain_nets: List[Tuple[int, int]] = []

    qubit_instance_index = {q.index: i for i, q in enumerate(netlist.qubits)}
    next_index = len(qubits)
    for resonator in netlist.resonators:
        segs = resonator.make_segments(config.segment_size_mm,
                                       config.resonator_padding_mm)
        seg_indices = list(range(next_index, next_index + len(segs)))
        segments.extend(segs)
        next_index += len(segs)
        u, v = resonator.endpoints
        iu, iv = qubit_instance_index[u], qubit_instance_index[v]
        chain = [iu, *seg_indices, iv]
        chain_nets.extend((chain[k], chain[k + 1]) for k in range(len(chain) - 1))

    instances: List[Instance] = qubits + segments
    n = len(instances)
    sizes = np.array([[inst.width, inst.height] for inst in instances])
    paddings = np.array([inst.padding for inst in instances])
    frequencies = np.array([inst.frequency for inst in instances])
    is_qubit = np.array([isinstance(inst, Qubit) for inst in instances])
    resonator_index = np.array([
        inst.resonator_index if isinstance(inst, ResonatorSegment) else -1
        for inst in instances
    ], dtype=np.int64)
    qubit_index = np.full(n, -1, dtype=np.int64)
    qubit_index[:len(qubits)] = [q.index for q in netlist.qubits]
    clearances = np.where(is_qubit, config.qubit_clearance_mm,
                          config.segment_clearance_mm)

    inflated = sizes + clearances[:, None]
    total_area = float(np.prod(inflated, axis=1).sum())
    side = float(np.sqrt(total_area / config.whitespace_factor))
    region = Rect(0.0, 0.0, side, side)

    initial = _initial_positions(netlist, instances, qubit_instance_index,
                                 region, config)
    large = n > SPARSE_MIN_INSTANCES
    return PlacementProblem(
        netlist=netlist,
        config=config,
        instances=instances,
        nets=np.array(chain_nets, dtype=np.int64),
        sizes=sizes,
        clearances=clearances,
        paddings=paddings,
        frequencies=frequencies,
        resonator_index=resonator_index,
        qubit_index=qubit_index,
        resonator_ends=resonator_endpoints(netlist, resonator_index),
        is_qubit=is_qubit,
        region=region,
        initial_positions=initial,
        freq_pair_cutoff_mm=(FREQ_PAIR_CUTOFF_MM if large
                             else math.hypot(region.w, region.h)),
        density_flush_interval=DENSITY_FLUSH_INTERVAL if large else 1,
        auto_detailed_passes=1 if large else 0,
    )


def _initial_positions(netlist: QuantumNetlist, instances: Sequence[Instance],
                       qubit_instance_index: Dict[int, int], region: Rect,
                       config: PlacerConfig) -> np.ndarray:
    """Deterministic warm start: scaled topology coordinates plus jitter.

    Qubits land on their canonical topology drawing scaled into the
    middle 70% of the region; each resonator's segments start near the
    midpoint of their endpoint qubits with a small seeded jitter that
    breaks the coincident-position symmetry.
    """
    coords = netlist.topology.coords
    xs = np.array([coords[q][0] for q in sorted(coords)])
    ys = np.array([coords[q][1] for q in sorted(coords)])
    span_x = max(xs.max() - xs.min(), 1e-9)
    span_y = max(ys.max() - ys.min(), 1e-9)
    margin = 0.15
    scale_x = region.w * (1 - 2 * margin) / span_x
    scale_y = region.h * (1 - 2 * margin) / span_y

    rng = np.random.default_rng(config.seed)
    positions = np.zeros((len(instances), 2))
    for q, inst_idx in qubit_instance_index.items():
        cx, cy = coords[q]
        positions[inst_idx, 0] = region.x + region.w * margin + (cx - xs.min()) * scale_x
        positions[inst_idx, 1] = region.y + region.h * margin + (cy - ys.min()) * scale_y

    jitter = 0.25 * config.segment_site_pitch_mm()
    # One pass groups segments by resonator (same enumeration order as a
    # per-resonator scan) — the repeated O(n) scans were a scaling sink
    # on condor-class netlists with thousands of resonators.
    segs_by_resonator: Dict[int, List[int]] = {}
    for i, inst in enumerate(instances):
        if isinstance(inst, ResonatorSegment):
            segs_by_resonator.setdefault(inst.resonator_index, []).append(i)
    for resonator in netlist.resonators:
        u, v = resonator.endpoints
        pu = positions[qubit_instance_index[u]]
        pv = positions[qubit_instance_index[v]]
        seg_ids = segs_by_resonator.get(resonator.index, [])
        count = len(seg_ids)
        for k, i in enumerate(seg_ids):
            t = (k + 1) / (count + 1)
            base = pu + t * (pv - pu)
            positions[i] = base + rng.normal(0.0, jitter, size=2)
    return positions
