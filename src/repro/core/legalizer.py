"""Integration-aware legalization (Sec. IV-C2, Algorithm 1), vectorized.

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

This module is the *fast path*: pairwise required gaps come from a
:class:`~repro.core.interactions.RequiredGapTable` (dense ``(n, n)``
matrices on paper-scale problems, on-demand rows on condor-class ones —
the strategy follows ``config.interaction_backend``), spiral offsets are
generated once per radius with numpy, and candidate sites are screened
ring-by-ring, against the placed instances a linked-cell spatial hash
returns, with array arithmetic instead of per-pair Python calls.  The
seed's scalar implementation is preserved verbatim in
:mod:`repro.core.legalizer_reference` and the equivalence tests pin
this implementation to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .. import profiling
from .config import PlacerConfig
from .interactions import RequiredGapTable
from .preprocess import PlacementProblem

#: Comparison slack absorbing float rounding in gap/required comparisons.
_TOL = 1e-9


class SpiralExhaustedError(RuntimeError):
    """The greedy spiral found no feasible site within its search bound.

    Attributes:
        instance: Instance index that could not be placed.
        rings_attempted: Chebyshev rings screened (``spiral_max_radius_
            sites + 1`` including ring 0).
        sites_attempted: Total lattice sites screened.
        neighbors_in_reach: Placed instances inside the outermost ring's
            interaction reach of the target.
        densest_cell_count: Occupancy of the most crowded hash-cell-
            sized neighbourhood among those neighbours.
        densest_cell_mm: Centre ``(x, y)`` of that neighbourhood.
    """

    def __init__(self, message: str, *, instance: int, rings_attempted: int,
                 sites_attempted: int, neighbors_in_reach: int,
                 densest_cell_count: int,
                 densest_cell_mm: Tuple[float, float]) -> None:
        super().__init__(message)
        self.instance = instance
        self.rings_attempted = rings_attempted
        self.sites_attempted = sites_attempted
        self.neighbors_in_reach = neighbors_in_reach
        self.densest_cell_count = densest_cell_count
        self.densest_cell_mm = densest_cell_mm


@dataclass
class LegalizeStats:
    """Telemetry of one legalization run.

    Attributes:
        qubit_displacement_mm: Total qubit movement from global result.
        segment_displacement_mm: Total segment movement.
        resonant_relaxations: Sites accepted despite a resonant-spacing
            shortfall (spiral exhausted) — these become residual
            hotspots, the paper's nonzero Qplacer ``Ph``.
        integration_failures: Resonators left disconnected after repair.
        integration_moves: Segments moved during integration repair.
        integration_swaps: Segment swaps during integration repair.
        phase_seconds: Per-phase wall-clock of the run (``"legalize"``,
            ``"legalize/qubits"``, ... — see :mod:`repro.profiling`).
    """

    qubit_displacement_mm: float = 0.0
    segment_displacement_mm: float = 0.0
    resonant_relaxations: int = 0
    integration_failures: int = 0
    integration_moves: int = 0
    integration_swaps: int = 0
    #: Wall-clock telemetry is excluded from equality: two runs
    #: that produced the same layout compare equal.
    phase_seconds: Dict[str, float] = field(default_factory=dict,
                                            compare=False)


#: Packed cell keys: ``(cx + OFFSET) * STRIDE + (cy + OFFSET)``.  With
#: cell sizes >= 0.5 mm, |cx| < 2**20 covers coordinates to ~500 km —
#: far past any chip region — and the packed key fits int64 (< 2**42).
_KEY_OFFSET = 1 << 20
_KEY_STRIDE = 1 << 21

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_IDS.setflags(write=False)


class _SpatialHash:
    """Flat linked-cell index of placed instances.

    Cell membership lives in three preallocated int64 arrays — ``_next``
    / ``_prev`` intrusive list links and ``_cell`` (the packed cell key
    an instance currently occupies, ``-1`` when absent) — plus one dict
    from packed cell key to list head.  Adds and removes are O(1)
    pointer splices with no per-bucket set/list churn, and batched
    queries (:meth:`near_many`) walk every covered cell exactly once.
    """

    def __init__(self, cell_size: float, capacity: int) -> None:
        self.cell = float(cell_size)
        self._next = np.full(capacity, -1, dtype=np.int64)
        self._prev = np.full(capacity, -1, dtype=np.int64)
        self._cell = np.full(capacity, -1, dtype=np.int64)
        self._heads: Dict[int, int] = {}

    def _key(self, x: float, y: float) -> int:
        return ((int(math.floor(x / self.cell)) + _KEY_OFFSET) * _KEY_STRIDE
                + int(math.floor(y / self.cell)) + _KEY_OFFSET)

    def add(self, idx: int, x: float, y: float) -> None:
        key = self._key(x, y)
        head = self._heads.get(key, -1)
        self._next[idx] = head
        self._prev[idx] = -1
        if head >= 0:
            self._prev[head] = idx
        self._heads[key] = idx
        self._cell[idx] = key

    def remove(self, idx: int) -> None:
        key = int(self._cell[idx])
        if key < 0:
            return
        nxt = int(self._next[idx])
        prv = int(self._prev[idx])
        if prv >= 0:
            self._next[prv] = nxt
        elif nxt >= 0:
            self._heads[key] = nxt
        else:
            del self._heads[key]
        if nxt >= 0:
            self._prev[nxt] = prv
        self._cell[idx] = -1

    def move(self, idx: int, x: float, y: float) -> None:
        self.remove(idx)
        self.add(idx, x, y)

    def _collect(self, keys: np.ndarray) -> np.ndarray:
        """All member indices of the given packed cell keys."""
        out: List[int] = []
        heads = self._heads
        nxt = self._next
        for key in keys.tolist():
            j = heads.get(key, -1)
            while j >= 0:
                out.append(j)
                j = int(nxt[j])
        if not out:
            return _EMPTY_IDS
        return np.asarray(out, dtype=np.int64)

    def near_many(self, xs: np.ndarray, ys: np.ndarray,
                  radius: float) -> np.ndarray:
        """Instances within ``radius`` (per axis) of ANY query point.

        Returns a superset: every placed instance whose centre lies
        within ``radius`` on both axes of at least one ``(xs, ys)``
        point is included (each exactly once — an instance occupies one
        cell), plus whatever else shares the covered cells.
        """
        span = int(math.ceil(radius / self.cell))
        cx = np.floor(np.asarray(xs, dtype=float) / self.cell).astype(np.int64)
        cy = np.floor(np.asarray(ys, dtype=float) / self.cell).astype(np.int64)
        offs = np.arange(-span, span + 1, dtype=np.int64)
        gx = cx[:, None, None] + offs[None, :, None]
        gy = cy[:, None, None] + offs[None, None, :]
        keys = np.unique((gx + _KEY_OFFSET) * _KEY_STRIDE
                         + (gy + _KEY_OFFSET))
        return self._collect(keys)

    def near_array(self, x: float, y: float, radius: float) -> np.ndarray:
        """Single-point :meth:`near_many` (superset of true neighbours)."""
        span = int(math.ceil(radius / self.cell))
        kx = int(math.floor(x / self.cell))
        ky = int(math.floor(y / self.cell))
        offs = np.arange(-span, span + 1, dtype=np.int64)
        keys = (((kx + offs[:, None] + _KEY_OFFSET) * _KEY_STRIDE)
                + ky + offs[None, :] + _KEY_OFFSET).ravel()
        return self._collect(keys)

    def near(self, x: float, y: float, radius: float) -> Iterable[int]:
        """Indices of instances whose centres may lie within ``radius``."""
        yield from self.near_array(x, y, radius).tolist()


@lru_cache(maxsize=16)
def _spiral_offsets_array(max_radius: int) -> np.ndarray:
    """``(N, 2)`` lattice offsets ordered by ring, then Euclidean distance.

    The ordering matches the seed's :func:`_spiral_offsets` exactly:
    ring (Chebyshev radius) ascending, then squared Euclidean distance,
    then ``(dx, dy)`` lexicographically.  Cached per radius — generating
    the ~16k offsets of the default radius dominated the seed legalizer's
    construction time.
    """
    span = np.arange(-max_radius, max_radius + 1, dtype=np.int64)
    dx, dy = np.meshgrid(span, span, indexing="ij")
    dx, dy = dx.ravel(), dy.ravel()
    ring = np.maximum(np.abs(dx), np.abs(dy))
    d2 = dx * dx + dy * dy
    order = np.lexsort((dy, dx, d2, ring))
    out = np.stack([dx[order], dy[order]], axis=1)
    out.setflags(write=False)
    return out


def _ring_bounds(ring: int) -> Tuple[int, int]:
    """Slice of :func:`_spiral_offsets_array` holding one Chebyshev ring."""
    lo = (2 * ring - 1) ** 2 if ring > 0 else 0
    return lo, (2 * ring + 1) ** 2


def _spiral_offsets(max_radius: int) -> List[Tuple[int, int]]:
    """Lattice offsets ordered by ring, then by Euclidean distance."""
    return [(int(dx), int(dy)) for dx, dy in _spiral_offsets_array(max_radius)]


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
        self._hash = _SpatialHash(cell_size=max(self._interact_radius, 0.5),
                                  capacity=p.num_instances)
        self._txn: Optional[List[Tuple[int, Tuple[float, float]]]] = None
        self._segs_by_res: Optional[Dict[int, List[int]]] = None
        self._qubit_pitch = self.config.qubit_site_pitch_mm(
            float(p.sizes[p.is_qubit][:, 0].max()) if p.is_qubit.any() else 0.4)
        self._segment_pitch = self.config.segment_site_pitch_mm()
        self._offsets_arr = _spiral_offsets_array(
            self.config.spiral_max_radius_sites)
        self.stats = LegalizeStats()

        n = p.num_instances
        self._placed_mask = np.zeros(n, dtype=bool)
        self._half = 0.5 * np.asarray(p.sizes, dtype=float)
        self._req = RequiredGapTable(
            p.resonator_index, p.frequencies, p.clearances, p.paddings,
            p.attached_resonators, self.config.detuning_threshold_ghz,
            backend=self.config.resolved_interaction_backend(n))

    # -- geometric feasibility ---------------------------------------------------

    def _gaps_to(self, js: np.ndarray, i: int, x: float, y: float) -> np.ndarray:
        """Edge-to-edge gaps from instance ``i`` at ``(x, y)`` to ``js``."""
        pos = self.positions[js]
        gx = np.abs(x - pos[:, 0]) - (self._half[i, 0] + self._half[js, 0])
        gy = np.abs(y - pos[:, 1]) - (self._half[i, 1] + self._half[js, 1])
        gxc = np.maximum(gx, 0.0)
        gyc = np.maximum(gy, 0.0)
        return np.where((gx > 0.0) | (gy > 0.0),
                        np.sqrt(gxc * gxc + gyc * gyc),
                        np.maximum(gx, gy))

    def _neighbor_mask(self, x: float, y: float, reach: float) -> np.ndarray:
        """Placed instances whose centre lies within ``reach`` per axis."""
        pos = self.positions
        return (self._placed_mask
                & (np.abs(pos[:, 0] - x) <= reach)
                & (np.abs(pos[:, 1] - y) <= reach))

    def _screen(self, js: np.ndarray, i: int,
                ignore: Tuple[int, ...]) -> np.ndarray:
        """Drop ``i`` and ``ignore`` from a hash query result."""
        if js.size == 0:
            return js
        keep = js != i
        for j in ignore:
            keep &= js != j
        return js[keep]

    def _can_place(self, i: int, x: float, y: float,
                   ignore: Tuple[int, ...] = (),
                   enforce_resonant: Optional[bool] = None) -> bool:
        """Check all spacing rules for instance ``i`` at ``(x, y)``.

        The spatial-hash screen only decides *which* instances get a gap
        check; any instance beyond the interaction radius passes
        trivially (its gap exceeds every possible requirement), so the
        superset query never changes a verdict.
        """
        if enforce_resonant is None:
            enforce_resonant = self.config.frequency_aware
        js = self._screen(
            self._hash.near_array(x, y, self._interact_radius), i, ignore)
        if js.size == 0:
            return True
        req = self._req.pairs(i, js, enforce_resonant)
        gaps = self._gaps_to(js, i, x, y)
        return bool(np.all(gaps >= req - _TOL))

    def _first_feasible_site(self, i: int, sites: Sequence[Tuple[float, float]],
                             ignore: Tuple[int, ...] = (),
                             enforce_resonant: Optional[bool] = None
                             ) -> Optional[Tuple[float, float]]:
        """First site of ``sites`` where ``i`` can be placed, else None.

        Equivalent to scanning the list with :meth:`_can_place`, but the
        whole candidate batch is screened against the neighbourhood with
        one (sites x neighbours) gap matrix.
        """
        if not sites:
            return None
        if enforce_resonant is None:
            enforce_resonant = self.config.frequency_aware
        arr = np.asarray(sites, dtype=float)
        js = self._screen(
            self._hash.near_many(arr[:, 0], arr[:, 1],
                                 self._interact_radius), i, ignore)
        if js.size == 0:
            return (float(arr[0, 0]), float(arr[0, 1]))
        req = self._req.pairs(i, js, enforce_resonant)
        pos = self.positions[js]
        gx = (np.abs(arr[:, 0][:, None] - pos[None, :, 0])
              - (self._half[i, 0] + self._half[js, 0])[None, :])
        gy = (np.abs(arr[:, 1][:, None] - pos[None, :, 1])
              - (self._half[i, 1] + self._half[js, 1])[None, :])
        gxc = np.maximum(gx, 0.0)
        gyc = np.maximum(gy, 0.0)
        gaps = np.where((gx > 0.0) | (gy > 0.0),
                        np.sqrt(gxc * gxc + gyc * gyc),
                        np.maximum(gx, gy))
        ok = np.all(gaps >= req[None, :] - _TOL, axis=1)
        hits = np.flatnonzero(ok)
        if hits.size == 0:
            return None
        k = int(hits[0])
        return (float(arr[k, 0]), float(arr[k, 1]))

    def _place(self, i: int, x: float, y: float) -> None:
        self.positions[i] = (x, y)
        self._hash.add(i, x, y)
        self._placed.add(i)
        self._placed_mask[i] = True

    def _unplace(self, i: int) -> None:
        self._hash.remove(i)
        self._placed.discard(i)
        self._placed_mask[i] = False

    def _site(self, target: np.ndarray, pitch: float,
              offset: Tuple[int, int]) -> Tuple[float, float]:
        """Lattice site nearest ``target`` shifted by ``offset`` cells."""
        base_x = round(target[0] / pitch) * pitch
        base_y = round(target[1] / pitch) * pitch
        return (base_x + offset[0] * pitch, base_y + offset[1] * pitch)

    def _feasible_sites(self, i: int, target: np.ndarray, pitch: float,
                        enforce_resonant: Optional[bool] = None
                        ) -> Iterator[Tuple[float, float]]:
        """Feasible lattice sites around ``target`` in spiral order.

        Each Chebyshev ring is screened as one batch: a (sites x
        neighbours) gap matrix replaces per-site `_can_place` calls.  The
        generator re-screens nothing after a yield, so callers that
        mutate placement state between yields must restore it before
        pulling the next site (as `_rebuild_resonator` does).
        """
        if enforce_resonant is None:
            enforce_resonant = self.config.frequency_aware
        base_x = round(target[0] / pitch) * pitch
        base_y = round(target[1] / pitch) * pitch
        offs = self._offsets_arr
        max_ring = self.config.spiral_max_radius_sites
        for ring in range(max_ring + 1):
            lo, hi = _ring_bounds(ring)
            sx = base_x + offs[lo:hi, 0] * pitch
            sy = base_y + offs[lo:hi, 1] * pitch
            # Hash screen per ring: the union of each site's interaction
            # ball covers only the ring's perimeter — O(ring) work on
            # large rings instead of O(ring^2) for the whole disc.
            js = self._screen(
                self._hash.near_many(sx, sy, self._interact_radius), i, ())
            if js.size == 0:
                ok = np.ones(hi - lo, dtype=bool)
            else:
                req = self._req.pairs(i, js, enforce_resonant)
                pos = self.positions[js]
                gx = (np.abs(sx[:, None] - pos[None, :, 0])
                      - (self._half[i, 0] + self._half[js, 0])[None, :])
                gy = (np.abs(sy[:, None] - pos[None, :, 1])
                      - (self._half[i, 1] + self._half[js, 1])[None, :])
                gxc = np.maximum(gx, 0.0)
                gyc = np.maximum(gy, 0.0)
                gaps = np.where((gx > 0.0) | (gy > 0.0),
                                np.sqrt(gxc * gxc + gyc * gyc),
                                np.maximum(gx, gy))
                ok = np.all(gaps >= req[None, :] - _TOL, axis=1)
            for k in np.flatnonzero(ok):
                yield (float(sx[k]), float(sy[k]))

    def _spiral_place(self, i: int, target: np.ndarray, pitch: float) -> bool:
        """Greedy spiral: nearest feasible lattice site around ``target``.

        When the config is frequency-aware and no resonant-compliant site
        exists within the search bound, the constraint is relaxed to the
        plain clearance rule and the relaxation is counted (residual
        hotspot).
        """
        for (x, y) in self._feasible_sites(i, target, pitch):
            self._place(i, x, y)
            return True
        if self.config.frequency_aware:
            for (x, y) in self._feasible_sites(i, target, pitch,
                                               enforce_resonant=False):
                self.stats.resonant_relaxations += 1
                self._place(i, x, y)
                return True
        raise self._spiral_exhausted(i, target, pitch)

    def _spiral_exhausted(self, i: int, target: np.ndarray,
                          pitch: float) -> SpiralExhaustedError:
        """Diagnose an exhausted spiral: how crowded was the window?"""
        max_ring = self.config.spiral_max_radius_sites
        rings = max_ring + 1
        sites = (2 * max_ring + 1) ** 2
        reach = max_ring * pitch + self._interact_radius
        mask = self._neighbor_mask(float(target[0]), float(target[1]), reach)
        mask[i] = False
        crowd = int(np.count_nonzero(mask))
        cell = self._hash.cell
        densest_count = 0
        densest_xy = (float(target[0]), float(target[1]))
        js = np.flatnonzero(mask)
        if js.size:
            keys = np.floor(self.positions[js] / cell).astype(np.int64)
            uniq, counts = np.unique(keys, axis=0, return_counts=True)
            k = int(np.argmax(counts))
            densest_count = int(counts[k])
            densest_xy = (float((uniq[k, 0] + 0.5) * cell),
                          float((uniq[k, 1] + 0.5) * cell))
        return SpiralExhaustedError(
            f"legalizer spiral exhausted for instance {i}: no feasible "
            f"site in {rings} rings ({sites} lattice sites, pitch "
            f"{pitch:.3f} mm) around ({float(target[0]):.2f}, "
            f"{float(target[1]):.2f}); {crowd} placed neighbours within "
            f"{reach:.2f} mm reach, densest {cell:.2f} mm cell holds "
            f"{densest_count} instances near ({densest_xy[0]:.2f}, "
            f"{densest_xy[1]:.2f}); increase spiral_max_radius_sites or "
            f"lower the region density (whitespace_factor)",
            instance=i, rings_attempted=rings, sites_attempted=sites,
            neighbors_in_reach=crowd, densest_cell_count=densest_count,
            densest_cell_mm=densest_xy)

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
                    site = self._first_feasible_site(
                        seg, self._adjacent_sites(tuple(self.positions[anchor]),
                                                  target))
                    if site is not None:
                        self._place(seg, site[0], site[1])
                        placed = True
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
        ids = list(seg_ids)
        k = len(ids)
        if k <= 1:
            return [ids] if ids else []
        prox = self._proximity_mm()
        pts = self.positions[ids]
        diff = pts[:, None, :] - pts[None, :, :]
        adj = (diff[..., 0] ** 2 + diff[..., 1] ** 2) <= prox * prox
        seen = np.zeros(k, dtype=bool)
        groups: List[List[int]] = []
        for s in range(k):
            if seen[s]:
                continue
            comp = np.zeros(k, dtype=bool)
            comp[s] = True
            frontier = comp.copy()
            while True:
                grown = adj[frontier].any(axis=0) & ~comp
                if not grown.any():
                    break
                comp |= grown
                frontier = grown
            seen |= comp
            groups.append([ids[t] for t in np.flatnonzero(comp)])
        return sorted(groups, key=len, reverse=True)

    def _sites_adjacent_to_cluster(self, cluster: Sequence[int],
                                   ring: int = 1) -> List[Tuple[float, float]]:
        """Candidate lattice sites within ``ring`` cells of the cluster.

        Only ring-1 sites keep the mover inside the proximity radius of a
        cluster member; larger rings are used as stepping stones when the
        immediate frontier is congested (the mover then becomes the new
        frontier for the next pass).
        """
        pitch = self._segment_pitch
        members = np.asarray(list(cluster), dtype=np.int64)
        span = np.arange(-ring, ring + 1)
        offs = np.array([(dx, dy) for dx in span for dy in span
                         if not (dx == 0 and dy == 0)], dtype=float)
        base = self.positions[members] / pitch
        xs = np.round(base[:, None, 0] + offs[None, :, 0]) * pitch
        ys = np.round(base[:, None, 1] + offs[None, :, 1]) * pitch
        sites = np.unique(
            np.stack([xs.ravel(), ys.ravel()], axis=1), axis=0)
        centre = self.positions[members].mean(axis=0)
        d2 = (sites[:, 0] - centre[0]) ** 2 + (sites[:, 1] - centre[1]) ** 2
        # Explicit (d2, x, y) tie-break: lattice symmetry produces many
        # equidistant sites, and the repair outcome must not depend on
        # set/sort incidentals (the reference applies the same rule).
        order = np.lexsort((sites[:, 1], sites[:, 0], d2))
        return [(float(x), float(y)) for x, y in sites[order]]

    def _neighbors_of_cluster(self, cluster: Sequence[int]) -> List[int]:
        """Placed non-qubit instances adjacent to the cluster."""
        prox = self._proximity_mm()
        members = np.asarray(list(cluster), dtype=np.int64)
        cand = self._placed_mask & ~np.asarray(self.problem.is_qubit, bool)
        cand[members] = False
        js = np.flatnonzero(cand)
        if js.size == 0:
            return []
        diff = self.positions[js][:, None, :] - self.positions[members][None, :, :]
        d2 = (diff[..., 0] ** 2 + diff[..., 1] ** 2).min(axis=1)
        return [int(j) for j in js[d2 <= prox * prox]]

    def _try_move(self, seg: int, cluster: Sequence[int],
                  enforce_resonant: Optional[bool] = None) -> bool:
        """Move a scattered segment onto a free site beside the cluster."""
        self._unplace(seg)
        site = self._first_feasible_site(
            seg, self._sites_adjacent_to_cluster(cluster),
            enforce_resonant=enforce_resonant)
        if site is not None:
            self._place(seg, site[0], site[1])
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
        """Resonator id -> its segment indices (cached; do not mutate).

        A pure function of the problem, not of positions — the detailed
        placer's contiguity guard calls this per candidate move, so the
        grouping is built once per legalizer.
        """
        if self._segs_by_res is None:
            groups: Dict[int, List[int]] = {}
            res = self.problem.resonator_index
            for i in range(self.problem.num_instances):
                r = int(res[i])
                if r >= 0:
                    groups.setdefault(r, []).append(i)
            self._segs_by_res = groups
        return self._segs_by_res

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
                        site = self._first_feasible_site(
                            seg, self._adjacent_sites(
                                tuple(self.positions[anchor]), coil_centre),
                            enforce_resonant=enforce_resonant)
                        if site is not None:
                            self._place(seg, site[0], site[1])
                            placed = True
                            break
                if not placed:
                    for s in placed_chain:
                        self._unplace(s)
                    return False
                placed_chain.append(seg)
            return True

        # Multi-start: a free pocket may be too small for the whole
        # chain, so try successive feasible start sites spiralling out.
        # The generator screens whole rings at once; a failed build fully
        # restores the placement state before the next site is pulled.
        attempts = 0
        success = False
        for start in self._feasible_sites(seg_ids[0], centroid,
                                          self._segment_pitch,
                                          enforce_resonant=enforce_resonant):
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

    # -- public batch-move API (detailed placement & friends) ----------------------------

    def load(self, positions: np.ndarray) -> None:
        """Adopt an externally produced legal layout, placing everything.

        The entry point for refinement stages: hand the legalizer a
        finished layout, then mutate it through :meth:`try_moves` /
        :meth:`commit` / :meth:`rollback` without touching internals.
        """
        if positions.shape != self.positions.shape:
            raise ValueError("position array shape mismatch")
        for i in range(self.problem.num_instances):
            self._place(i, float(positions[i, 0]), float(positions[i, 1]))

    def neighbors(self, x: float, y: float, radius_mm: float) -> np.ndarray:
        """Placed instances whose centres may lie within ``radius_mm``.

        A superset screen (hash-cell resolution) — callers needing the
        exact set must distance-filter the result.
        """
        return self._hash.near_array(x, y, radius_mm)

    def try_moves(self, moves: Sequence[Tuple[int, Tuple[float, float]]],
                  enforce_resonant: Optional[bool] = None) -> bool:
        """Atomically relocate a batch of placed instances.

        Every target site must satisfy the spacing rules (against the
        layout with all movers lifted) and every affected resonator must
        stay contiguous.  On success the movers sit at their new sites
        and the transaction stays open until :meth:`commit` or
        :meth:`rollback`; on failure the layout is untouched and False
        is returned.
        """
        if self._txn is not None:
            raise RuntimeError(
                "a batch-move transaction is already open; "
                "commit() or rollback() it first")
        originals = [(int(i), (float(self.positions[i, 0]),
                               float(self.positions[i, 1])))
                     for i, _ in moves]

        def restore() -> None:
            for i, _ in moves:
                if int(i) in self._placed:
                    self._unplace(int(i))
            for i, (x, y) in originals:
                self._place(i, x, y)

        for i, _ in moves:
            self._unplace(int(i))
        for i, (x, y) in moves:
            if not self._can_place(int(i), float(x), float(y),
                                   enforce_resonant=enforce_resonant):
                restore()
                return False
            self._place(int(i), float(x), float(y))
        by_res = self._segments_by_resonator()
        res_idx = self.problem.resonator_index
        for r in {int(res_idx[int(i)]) for i, _ in moves}:
            if r >= 0 and len(by_res[r]) > 1 \
                    and len(self._clusters(by_res[r])) > 1:
                restore()
                return False
        self._txn = originals
        return True

    def commit(self) -> None:
        """Finalise the open batch-move transaction."""
        if self._txn is None:
            raise RuntimeError("no open batch-move transaction")
        self._txn = None

    def rollback(self) -> None:
        """Undo the open batch-move transaction, restoring old sites."""
        if self._txn is None:
            raise RuntimeError("no open batch-move transaction")
        originals = self._txn
        self._txn = None
        for i, _ in originals:
            self._unplace(i)
        for i, (x, y) in originals:
            self._place(i, x, y)

    # -- entry point ---------------------------------------------------------------------

    def run(self, global_positions: np.ndarray) -> Tuple[np.ndarray, LegalizeStats]:
        """Legalize ``global_positions``; returns (positions, stats)."""
        if global_positions.shape != self.positions.shape:
            raise ValueError("position array shape mismatch")
        with profiling.PhaseProfiler() as prof:
            with profiling.phase("legalize"):
                with profiling.phase("qubits"):
                    self._legalize_qubits(global_positions)
                with profiling.phase("segments"):
                    self._legalize_segments(global_positions)
                if self.config.legalize_integration:
                    with profiling.phase("integrate"):
                        self._integrate_resonators()
        self.stats.phase_seconds = prof.flat_seconds()
        return self.positions.copy(), self.stats


def legalize(problem: PlacementProblem, global_positions: np.ndarray,
             config: Optional[PlacerConfig] = None
             ) -> Tuple[np.ndarray, LegalizeStats]:
    """Convenience wrapper: run Algorithm 1 on a global-placement result."""
    return Legalizer(problem, config).run(global_positions)
