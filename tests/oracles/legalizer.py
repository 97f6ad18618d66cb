"""Reference (pure-Python) legalizer, kept verbatim from the seed.

This module preserves the original scalar implementation of Algorithm 1
for two purposes:

* **golden equivalence tests** — the vectorized legalizer in
  :mod:`repro.core.legalizer` must produce overlap-free, frequency-legal
  layouts whose metrics match this implementation within tolerance;
* **performance baselines** — ``benchmarks/bench_perf_placement.py``
  times this implementation against the vectorized one to record the
  speedup of every PR.

Do not optimise this file; it is the fixed point the fast path is
measured against.  See :mod:`repro.core.legalizer` for the maintained
documentation of the algorithm itself.

The legalizer turns the global-placement result into a legal layout in
three phases, exactly following Alg. 1:

1. **Qubit legalization** (``Q-LG``): a greedy spiral search snaps every
   qubit to the nearest free site of the qubit lattice, followed by a
   min-cost assignment refinement (per frequency level, so the resonant
   separation achieved by the spiral is preserved) that minimises total
   displacement — the paper's min-cost-flow step [88].
2. **Segment legalization** (``T-LG``): a Tetris-like scan places the
   resonator segments left-to-right onto the segment lattice with
   minimal displacement [17].
3. **Resonator integration**: every resonator's segments must form one
   contiguous cluster.  Non-compliant resonators keep their largest
   cluster and reclaim the scattered segments by moving them to free
   sites adjacent to the cluster or swapping them with neighbouring
   instances, subject to the resonant checker ``tau``.

Placement feasibility for a candidate site is a single rule,
:meth:`Legalizer._can_place`: intended pairs may touch; resonant
non-intended pairs need the full padding sum (only when the config is
frequency-aware — the Classic baseline skips this check, which is where
its frequency hotspots come from); all other pairs need the mean routing
clearance.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.core.config import PlacerConfig
from repro.core.preprocess import PlacementProblem

from . import is_intended_pair, is_resonant_pair


# The reference shares the live telemetry dataclass so the two
# implementations stay field-compatible (``phase_seconds`` simply stays
# empty on this unprofiled path).
from repro.core.legalizer import LegalizeStats  # noqa: E402


class _SpatialHash:
    """Uniform-grid index of placed instances for local queries."""

    def __init__(self, cell_size: float) -> None:
        self.cell = cell_size
        self._buckets: Dict[Tuple[int, int], Set[int]] = {}
        self._where: Dict[int, Tuple[int, int]] = {}

    def _key(self, x: float, y: float) -> Tuple[int, int]:
        return (int(math.floor(x / self.cell)), int(math.floor(y / self.cell)))

    def add(self, idx: int, x: float, y: float) -> None:
        key = self._key(x, y)
        self._buckets.setdefault(key, set()).add(idx)
        self._where[idx] = key

    def remove(self, idx: int) -> None:
        key = self._where.pop(idx, None)
        if key is not None:
            self._buckets.get(key, set()).discard(idx)

    def near(self, x: float, y: float, radius: float) -> Iterable[int]:
        """Indices of instances whose centres may lie within ``radius``."""
        span = int(math.ceil(radius / self.cell))
        kx, ky = self._key(x, y)
        for dx in range(-span, span + 1):
            for dy in range(-span, span + 1):
                yield from self._buckets.get((kx + dx, ky + dy), ())


def _spiral_offsets(max_radius: int) -> List[Tuple[int, int]]:
    """Lattice offsets ordered by ring, then by Euclidean distance."""
    offsets: List[Tuple[int, int]] = [(0, 0)]
    for r in range(1, max_radius + 1):
        ring = []
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                if max(abs(dx), abs(dy)) == r:
                    ring.append((dx, dy))
        ring.sort(key=lambda o: (o[0] * o[0] + o[1] * o[1], o))
        offsets.extend(ring)
    return offsets


class Legalizer:
    """Stateful legalization of one placement problem."""

    def __init__(self, problem: PlacementProblem,
                 config: Optional[PlacerConfig] = None) -> None:
        self.problem = problem
        self.config = config if config is not None else problem.config
        p = self.problem
        self.positions = np.zeros_like(p.initial_positions)
        self._placed: Set[int] = set()
        # Interaction radius: the largest possible required gap plus the
        # largest instance extent — hash queries beyond it are never needed.
        max_half = float(np.max(p.sizes)) / 2.0
        max_gap = float(2.0 * np.max(p.paddings))
        self._interact_radius = 2.0 * max_half + max_gap + 1e-6
        self._hash = _SpatialHash(cell_size=max(self._interact_radius, 0.5))
        self._qubit_pitch = self.config.qubit_site_pitch_mm(
            float(p.sizes[p.is_qubit][:, 0].max()) if p.is_qubit.any() else 0.4)
        self._segment_pitch = self.config.segment_site_pitch_mm()
        self._offsets = _spiral_offsets(self.config.spiral_max_radius_sites)
        self.stats = LegalizeStats()

    # -- geometric feasibility ---------------------------------------------------

    def _gap(self, i: int, xi: float, yi: float, j: int) -> float:
        """Edge-to-edge gap between instance i at (xi, yi) and placed j."""
        p = self.problem
        xj, yj = self.positions[j]
        gx = abs(xi - xj) - 0.5 * (p.sizes[i, 0] + p.sizes[j, 0])
        gy = abs(yi - yj) - 0.5 * (p.sizes[i, 1] + p.sizes[j, 1])
        return math.hypot(max(gx, 0.0), max(gy, 0.0)) if (gx > 0 or gy > 0) \
            else max(gx, gy)

    def _can_place(self, i: int, x: float, y: float,
                   ignore: Tuple[int, ...] = (),
                   enforce_resonant: Optional[bool] = None) -> bool:
        """Check all spacing rules for instance ``i`` at ``(x, y)``."""
        p = self.problem
        if enforce_resonant is None:
            enforce_resonant = self.config.frequency_aware
        tol = 1e-9
        for j in self._hash.near(x, y, self._interact_radius):
            if j == i or j in ignore or j not in self._placed:
                continue
            gap = self._gap(i, x, y, j)
            if is_intended_pair(p, i, j):
                required = 0.0
            elif enforce_resonant and is_resonant_pair(p, i, j):
                required = p.paddings[i] + p.paddings[j]
            else:
                required = 0.5 * (p.clearances[i] + p.clearances[j])
            if gap < required - tol:
                return False
        return True

    def _place(self, i: int, x: float, y: float) -> None:
        self.positions[i] = (x, y)
        self._hash.add(i, x, y)
        self._placed.add(i)

    def _unplace(self, i: int) -> None:
        self._hash.remove(i)
        self._placed.discard(i)

    def _site(self, target: np.ndarray, pitch: float,
              offset: Tuple[int, int]) -> Tuple[float, float]:
        """Lattice site nearest ``target`` shifted by ``offset`` cells."""
        base_x = round(target[0] / pitch) * pitch
        base_y = round(target[1] / pitch) * pitch
        return (base_x + offset[0] * pitch, base_y + offset[1] * pitch)

    def _spiral_place(self, i: int, target: np.ndarray, pitch: float) -> bool:
        """Greedy spiral: nearest feasible lattice site around ``target``.

        When the config is frequency-aware and no resonant-compliant site
        exists within the search bound, the constraint is relaxed to the
        plain clearance rule and the relaxation is counted (residual
        hotspot).
        """
        for offset in self._offsets:
            x, y = self._site(target, pitch, offset)
            if self._can_place(i, x, y):
                self._place(i, x, y)
                return True
        if self.config.frequency_aware:
            for offset in self._offsets:
                x, y = self._site(target, pitch, offset)
                if self._can_place(i, x, y, enforce_resonant=False):
                    self.stats.resonant_relaxations += 1
                    self._place(i, x, y)
                    return True
        raise RuntimeError(
            f"legalizer spiral exhausted for instance {i}; "
            f"increase spiral_max_radius_sites")

    # -- phase 1: qubits ------------------------------------------------------------

    def _legalize_qubits(self, global_positions: np.ndarray) -> None:
        p = self.problem
        qubit_ids = [i for i in range(p.num_instances) if p.is_qubit[i]]
        for i in sorted(qubit_ids,
                        key=lambda q: (global_positions[q, 0], global_positions[q, 1])):
            self._spiral_place(i, global_positions[i], self._qubit_pitch)
        self._refine_qubits(global_positions, qubit_ids)
        self.stats.qubit_displacement_mm = float(np.abs(
            self.positions[qubit_ids] - global_positions[qubit_ids]).sum())

    def _refine_qubits(self, global_positions: np.ndarray,
                       qubit_ids: Sequence[int]) -> None:
        """Min-cost assignment refinement per frequency level.

        Qubits of one frequency level may permute over their site set
        without changing any resonant-separation property, so each level
        is refined independently with an optimal assignment [88].
        """
        p = self.problem
        by_level: Dict[float, List[int]] = {}
        for i in qubit_ids:
            by_level.setdefault(round(float(p.frequencies[i]), 6), []).append(i)
        for ids in by_level.values():
            if len(ids) < 2:
                continue
            sites = self.positions[ids].copy()
            desired = global_positions[ids]
            cost = ((desired[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
            rows, cols = linear_sum_assignment(cost)
            for r, c in zip(rows, cols):
                idx = ids[r]
                self._hash.remove(idx)
                self.positions[idx] = sites[c]
                self._hash.add(idx, sites[c][0], sites[c][1])

    # -- phase 2: segments (Tetris) ----------------------------------------------------

    def _adjacent_sites(self, anchor_xy: Tuple[float, float],
                        target: np.ndarray) -> List[Tuple[float, float]]:
        """Ring-1 lattice sites around ``anchor``, nearest-to-target first."""
        pitch = self._segment_pitch
        ax = round(anchor_xy[0] / pitch)
        ay = round(anchor_xy[1] / pitch)
        sites = [((ax + dx) * pitch, (ay + dy) * pitch)
                 for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                 if not (dx == 0 and dy == 0)]
        sites.sort(key=lambda s: (s[0] - target[0]) ** 2 + (s[1] - target[1]) ** 2)
        return sites

    def _legalize_segments(self, global_positions: np.ndarray) -> None:
        """Tetris-like chain placement (T-LG).

        Resonators are processed left-to-right; within one resonator the
        segments follow their chain order, each snapping to a feasible
        lattice site adjacent to the previously placed sibling so the
        resonator stays contiguous by construction.  When a chain gets
        walled in, the segment falls back to a free-standing spiral and
        the integration phase repairs it.
        """
        p = self.problem
        if not self.config.chain_aware_tetris:
            # Classical flavour [17]: plain left-to-right scan, each
            # segment independently snapped to the nearest feasible site.
            seg_ids = [i for i in range(p.num_instances) if not p.is_qubit[i]]
            for i in sorted(seg_ids,
                            key=lambda s: (global_positions[s, 0],
                                           global_positions[s, 1])):
                self._spiral_place(i, global_positions[i], self._segment_pitch)
            self.stats.segment_displacement_mm = float(np.abs(
                self.positions[seg_ids] - global_positions[seg_ids]).sum())
            return
        by_resonator = self._segments_by_resonator()
        order = sorted(
            by_resonator,
            key=lambda r: (float(global_positions[by_resonator[r], 0].mean()),
                           float(global_positions[by_resonator[r], 1].mean())))
        for r in order:
            chain = by_resonator[r]  # creation order == chain order
            placed_chain: List[int] = []
            broke_contiguity = False
            for seg in chain:
                target = global_positions[seg]
                placed = False
                # Prefer contiguity: sites adjacent to the previous
                # sibling, then to any placed sibling.
                anchors = list(reversed(placed_chain))
                for anchor in anchors:
                    for (x, y) in self._adjacent_sites(tuple(self.positions[anchor]), target):
                        if self._can_place(seg, x, y):
                            self._place(seg, x, y)
                            placed = True
                            break
                    if placed:
                        break
                if not placed:
                    self._spiral_place(seg, target, self._segment_pitch)
                    broke_contiguity = placed_chain != []
                placed_chain.append(seg)
            if broke_contiguity and len(chain) > 1:
                # Re-coil the whole chain now, while the layout is still
                # sparse — far cheaper than post-hoc integration repair.
                if len(self._clusters(chain)) > 1:
                    self._rebuild_resonator(chain)
        seg_ids = [i for i in range(p.num_instances) if not p.is_qubit[i]]
        self.stats.segment_displacement_mm = float(np.abs(
            self.positions[seg_ids] - global_positions[seg_ids]).sum())

    # -- phase 3: resonator integration (Alg. 1 lines 3-16) ------------------------------

    def _proximity_mm(self) -> float:
        """Segments within this centre distance count as connected."""
        return 1.6 * self._segment_pitch

    def _clusters(self, seg_ids: Sequence[int]) -> List[List[int]]:
        """Connected components of a resonator's segments by proximity."""
        prox = self._proximity_mm()
        parent = {i: i for i in seg_ids}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ids = list(seg_ids)
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                a, b = ids[ai], ids[bi]
                dx = self.positions[a, 0] - self.positions[b, 0]
                dy = self.positions[a, 1] - self.positions[b, 1]
                if math.hypot(dx, dy) <= prox:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
        groups: Dict[int, List[int]] = {}
        for i in ids:
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values(), key=len, reverse=True)

    def _sites_adjacent_to_cluster(self, cluster: Sequence[int],
                                   ring: int = 1) -> List[Tuple[float, float]]:
        """Candidate lattice sites within ``ring`` cells of the cluster.

        Only ring-1 sites keep the mover inside the proximity radius of a
        cluster member; larger rings are used as stepping stones when the
        immediate frontier is congested (the mover then becomes the new
        frontier for the next pass).
        """
        pitch = self._segment_pitch
        span = range(-ring, ring + 1)
        sites: Set[Tuple[float, float]] = set()
        for member in cluster:
            mx, my = self.positions[member]
            for dx in span:
                for dy in span:
                    if dx == 0 and dy == 0:
                        continue
                    x = round(mx / pitch + dx) * pitch
                    y = round(my / pitch + dy) * pitch
                    sites.add((x, y))
        centre = self.positions[list(cluster)].mean(axis=0)
        # Sole deviation from the seed: an explicit (d2, x, y) tie-break
        # instead of set-iteration order for equidistant sites, so the
        # reference and the vectorized legalizer are comparable site by
        # site (the seed's tie order was an accident of hashing).
        return sorted(sites, key=lambda s: ((s[0] - centre[0]) ** 2
                                            + (s[1] - centre[1]) ** 2,
                                            s[0], s[1]))

    def _neighbors_of_cluster(self, cluster: Sequence[int]) -> List[int]:
        """Placed non-qubit instances adjacent to the cluster."""
        prox = self._proximity_mm()
        cluster_set = set(cluster)
        found: Set[int] = set()
        for member in cluster:
            mx, my = self.positions[member]
            for j in self._hash.near(mx, my, prox):
                if j in cluster_set or j in found or self.problem.is_qubit[j]:
                    continue
                dx = self.positions[j, 0] - mx
                dy = self.positions[j, 1] - my
                if math.hypot(dx, dy) <= prox:
                    found.add(j)
        return sorted(found)

    def _try_move(self, seg: int, cluster: Sequence[int],
                  enforce_resonant: Optional[bool] = None) -> bool:
        """Move a scattered segment onto a free site beside the cluster."""
        self._unplace(seg)
        for (x, y) in self._sites_adjacent_to_cluster(cluster):
            if self._can_place(seg, x, y, enforce_resonant=enforce_resonant):
                self._place(seg, x, y)
                self.stats.integration_moves += 1
                if enforce_resonant is False and self.config.frequency_aware:
                    self.stats.resonant_relaxations += 1
                return True
        self._place(seg, self.positions[seg, 0], self.positions[seg, 1])
        return False

    def _try_swap(self, seg: int, cluster: Sequence[int],
                  enforce_resonant: Optional[bool] = None) -> bool:
        """Swap a scattered segment with a neighbour of the cluster.

        Both relocations must pass the resonant checker ``tau`` embedded
        in :meth:`_can_place` (Alg. 1 line 12), unless the caller relaxes
        the check in the final repair pass.
        """
        p = self.problem
        seg_pos = tuple(self.positions[seg])
        by_resonator = self._segments_by_resonator()
        seg_res = int(p.resonator_index[seg])
        seg_segs = by_resonator.get(seg_res, [seg])
        for other in self._neighbors_of_cluster(cluster):
            if int(p.resonator_index[other]) == seg_res:
                continue
            other_res = int(p.resonator_index[other])
            other_segs = by_resonator.get(other_res, [other])
            before = (len(self._clusters(seg_segs))
                      + len(self._clusters(other_segs)))
            other_pos = tuple(self.positions[other])
            self._unplace(seg)
            self._unplace(other)
            if (self._can_place(seg, other_pos[0], other_pos[1],
                                enforce_resonant=enforce_resonant)
                    and self._can_place(other, seg_pos[0], seg_pos[1], ignore=(seg,),
                                        enforce_resonant=enforce_resonant)):
                self._place(seg, other_pos[0], other_pos[1])
                self._place(other, seg_pos[0], seg_pos[1])
                # Accept only when the swap strictly reduces the total
                # fragmentation of the two resonators involved: greedy
                # descent on a global objective cannot ping-pong.
                after = (len(self._clusters(seg_segs))
                         + len(self._clusters(other_segs)))
                if after < before:
                    self.stats.integration_swaps += 1
                    if enforce_resonant is False and self.config.frequency_aware:
                        self.stats.resonant_relaxations += 1
                    return True
                self._unplace(seg)
                self._unplace(other)
            self._place(seg, seg_pos[0], seg_pos[1])
            self._place(other, other_pos[0], other_pos[1])
        return False

    def _segments_by_resonator(self) -> Dict[int, List[int]]:
        groups: Dict[int, List[int]] = {}
        for i in range(self.problem.num_instances):
            r = int(self.problem.resonator_index[i])
            if r >= 0:
                groups.setdefault(r, []).append(i)
        return groups

    def _repair_resonator(self, seg_ids: Sequence[int], relaxed: bool) -> bool:
        """One repair sweep over a disconnected resonator; True = moved."""
        clusters = self._clusters(seg_ids)
        if len(clusters) == 1:
            return False
        main = clusters[0]
        progressed = False
        for cluster in clusters[1:]:
            for seg in cluster:
                moved = self._try_move(seg, main) or self._try_swap(seg, main)
                if not moved and relaxed:
                    moved = (self._try_move(seg, main, enforce_resonant=False)
                             or self._try_swap(seg, main, enforce_resonant=False))
                if moved:
                    main = self._clusters(seg_ids)[0]
                    progressed = True
        return progressed

    def _rebuild_resonator(self, seg_ids: Sequence[int],
                           enforce_resonant: Optional[bool] = None,
                           max_starts: int = 8) -> bool:
        """Tear a disconnected resonator down and re-place it as a chain.

        All segments are unplaced (freeing their own sites) and re-laid
        contiguously, trying up to ``max_starts`` feasible start sites
        spiralling out from the chain's centroid.  Restores the original
        positions when no start yields a complete chain.
        """
        old = {s: tuple(self.positions[s]) for s in seg_ids}
        centroid = self.positions[list(seg_ids)].mean(axis=0)
        for s in seg_ids:
            self._unplace(s)

        def build_chain(start_xy: Tuple[float, float]) -> bool:
            """Coil the whole chain from one start site; False = undo."""
            placed_chain: List[int] = []
            coil_centre = np.array(start_xy)
            for seg in seg_ids:
                placed = False
                if not placed_chain:
                    if self._can_place(seg, start_xy[0], start_xy[1],
                                       enforce_resonant=enforce_resonant):
                        self._place(seg, start_xy[0], start_xy[1])
                        placed = True
                else:
                    for anchor in reversed(placed_chain):
                        for (x, y) in self._adjacent_sites(
                                tuple(self.positions[anchor]), coil_centre):
                            if self._can_place(seg, x, y,
                                               enforce_resonant=enforce_resonant):
                                self._place(seg, x, y)
                                placed = True
                                break
                        if placed:
                            break
                if not placed:
                    for s in placed_chain:
                        self._unplace(s)
                    return False
                placed_chain.append(seg)
            return True

        # Multi-start: a free pocket may be too small for the whole
        # chain, so try successive feasible start sites spiralling out.
        attempts = 0
        success = False
        for offset in self._offsets:
            start = self._site(centroid, self._segment_pitch, offset)
            if not self._can_place(seg_ids[0], start[0], start[1],
                                   enforce_resonant=enforce_resonant):
                continue
            attempts += 1
            if build_chain(start):
                success = True
                break
            if attempts >= max_starts:
                break
        if not success:
            # Fresh territory beside the occupied bounding box: always
            # enough room for a full chain (costs area, keeps integrity).
            placed = sorted(self._placed)
            if placed:
                edge_x = float(self.positions[placed, 0].max())
                for row_step in range(0, 40):
                    start = self._site(
                        np.array([edge_x + 2.0 * self._segment_pitch,
                                  centroid[1] + row_step * 2.0 * self._segment_pitch]),
                        self._segment_pitch, (0, 0))
                    if self._can_place(seg_ids[0], start[0], start[1],
                                       enforce_resonant=enforce_resonant) \
                            and build_chain(start):
                        success = True
                        break
        if not success:
            for s in seg_ids:
                if s not in self._placed:
                    self._place(s, old[s][0], old[s][1])
            return False
        if enforce_resonant is False and self.config.frequency_aware:
            self.stats.resonant_relaxations += 1
        self.stats.integration_moves += len(seg_ids)
        return True

    def _integrate_resonators(self, max_passes: int = 6) -> None:
        by_resonator = self._segments_by_resonator()
        multi = {r: segs for r, segs in by_resonator.items() if len(segs) > 1}

        def disconnected() -> List[int]:
            return [r for r, segs in sorted(multi.items())
                    if len(self._clusters(segs)) > 1]

        # Strict fixpoint passes first, then relaxed ones: a swap may
        # only be fixable after another resonator's repair freed space.
        for attempt in range(max_passes):
            relaxed = attempt >= max_passes - 2
            todo = disconnected()
            if not todo:
                break
            progressed = False
            for r in todo:
                if self._repair_resonator(multi[r], relaxed):
                    progressed = True
            if not progressed and relaxed:
                break
        # Last resort: rebuild whole chains, strict first, then relaxed.
        for r in disconnected():
            self._rebuild_resonator(multi[r])
        for r in disconnected():
            self._rebuild_resonator(multi[r], enforce_resonant=False)
        self.stats.integration_failures = len(disconnected())

    # -- entry point ---------------------------------------------------------------------

    def run(self, global_positions: np.ndarray) -> Tuple[np.ndarray, LegalizeStats]:
        """Legalize ``global_positions``; returns (positions, stats)."""
        if global_positions.shape != self.positions.shape:
            raise ValueError("position array shape mismatch")
        self._legalize_qubits(global_positions)
        self._legalize_segments(global_positions)
        if self.config.legalize_integration:
            self._integrate_resonators()
        return self.positions.copy(), self.stats


def legalize(problem: PlacementProblem, global_positions: np.ndarray,
             config: Optional[PlacerConfig] = None
             ) -> Tuple[np.ndarray, LegalizeStats]:
    """Convenience wrapper: run Algorithm 1 on a global-placement result."""
    return Legalizer(problem, config).run(global_positions)
