"""Placement preprocessing (Sec. IV-B): padding, partitioning, nets.

Turns a :class:`~repro.devices.netlist.QuantumNetlist` into a
:class:`PlacementProblem` — flat numpy arrays the optimizer consumes:

* movable **instances**: every qubit plus every resonator segment
  (resonators are partitioned into ``lb x lb`` blocks here);
* **chain nets**: for a resonator coupling ``(q_u, q_v)`` with segments
  ``s_0..s_k`` the 2-pin chain ``q_u-s_0, s_0-s_1, ..., s_k-q_v`` — the
  wirelength objective pulls each coupler into a contiguous snake
  between its endpoints;
* the **frequency collision map** (Sec. IV-C1): all instance pairs within
  ``Delta_c``, excluding sibling segments (Eq. 10's Kronecker delta), so
  the repulsive force never iterates all-to-all;
* the placement **region**, sized from the clearance-inflated footprint
  area and the whitespace factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..devices.components import Instance, Qubit, ResonatorSegment
from ..devices.geometry import Rect
from ..devices.netlist import QuantumNetlist
from .config import PlacerConfig
from .interactions import sort_pairs


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
        is_qubit: ``(n,)`` bool mask.
        region: Placement canvas.
        initial_positions: ``(n, 2)`` deterministic starting centres.
        attached_resonators: qubit instance index -> resonator ids whose
            segments may legally abut that qubit.
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
    is_qubit: np.ndarray
    region: Rect
    initial_positions: np.ndarray
    attached_resonators: Dict[int, Set[int]]
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

    def required_gap(self, i: int, j: int, resonant: bool) -> float:
        """Minimum legal edge-to-edge gap between two instances.

        Intended pairs (handled by the caller) need none; resonant pairs
        need the full padding sum; ordinary pairs need the mean clearance.
        """
        if resonant:
            return float(self.paddings[i] + self.paddings[j])
        return float(0.5 * (self.clearances[i] + self.clearances[j]))

    def is_intended_pair(self, i: int, j: int) -> bool:
        """Pairs allowed to touch: siblings, or qubit + attached segment."""
        ri, rj = int(self.resonator_index[i]), int(self.resonator_index[j])
        if ri >= 0 and ri == rj:
            return True
        if self.is_qubit[i] and rj >= 0:
            return rj in self.attached_resonators.get(i, ())
        if self.is_qubit[j] and ri >= 0:
            return ri in self.attached_resonators.get(j, ())
        return False

    def is_resonant_pair(self, i: int, j: int) -> bool:
        """Eq. (9)'s tau: detuning within the threshold."""
        return (abs(float(self.frequencies[i] - self.frequencies[j]))
                <= self.config.detuning_threshold_ghz)

    @cached_property
    def collision_pairs(self) -> np.ndarray:
        """``(p, 2)`` int array of resonant pairs, lex-sorted.

        Computed on first access and cached on the instance; the engine
        never reads it (its neighbor list yields the same pairs), so a
        placement run does not materialise it.
        """
        return _collision_pairs(self.frequencies, self.resonator_index,
                                self.config.detuning_threshold_ghz)


def _collision_pairs(frequencies: np.ndarray, resonator_index: np.ndarray,
                     threshold: float) -> np.ndarray:
    """Frequency collision map: resonant pairs, sibling segments excluded.

    Components were assigned frequencies from a discrete comb, so pairs
    within ``threshold`` are found by sorting: for each instance only a
    short run of the frequency-sorted order can collide.  Every sorted
    position pair ``a < b`` is visited once and ``order`` is a
    permutation, so the pairs are already distinct: one packed-key sort
    (:func:`~repro.core.interactions.sort_pairs`) orders them
    lexicographically, as ``np.unique(axis=0)`` would.
    """
    n = len(frequencies)
    order = np.argsort(frequencies, kind="stable")
    sorted_freqs = frequencies[order]
    # For each sorted position a, candidates extend to hi[a]-1.  The
    # searchsorted bound is slightly widened so the exact run condition
    # ``sorted_freqs[b] - fa <= threshold`` (applied below, matching the
    # scalar implementation bit for bit) is always a subset of it.
    hi = np.searchsorted(sorted_freqs, sorted_freqs + (threshold + 1e-9),
                         side="right")
    counts = np.maximum(hi - np.arange(n) - 1, 0)
    if counts.max(initial=0) <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    a_idx = np.repeat(np.arange(n), counts)
    # Offsets 1..count within each run, built from one global arange.
    ends = np.cumsum(counts)
    b_idx = a_idx + (np.arange(ends[-1]) - (ends - counts)[a_idx]) + 1
    keep = sorted_freqs[b_idx] - sorted_freqs[a_idx] <= threshold
    i = order[a_idx[keep]]
    j = order[b_idx[keep]]
    ri, rj = resonator_index[i], resonator_index[j]
    keep = ~((ri >= 0) & (ri == rj))
    i, j = i[keep], j[keep]
    i, j = sort_pairs(np.minimum(i, j), np.maximum(i, j), n)
    return np.stack([i, j], axis=1).astype(np.int64)


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
    attached: Dict[int, Set[int]] = {}

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
        attached.setdefault(iu, set()).add(resonator.index)
        attached.setdefault(iv, set()).add(resonator.index)

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
        is_qubit=is_qubit,
        region=region,
        initial_positions=initial,
        attached_resonators=attached,
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
