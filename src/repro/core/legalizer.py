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

Placement feasibility for candidate sites is a single rule, evaluated
by one kernel, :meth:`Legalizer._feasible_mask`: intended pairs may
touch; resonant non-intended pairs need the full padding sum (only when
the config is frequency-aware — the Classic baseline skips this check,
which is where its frequency hotspots come from); all other pairs need
the mean routing clearance.

This module is the *fast path*: pairwise required gaps come on demand
from a :class:`~repro.core.interactions.RequiredGapTable` for just the
neighbours in reach, spiral offsets are generated once per radius with
numpy, and each batch of candidate sites (a spiral ring, a segment's
ring-1 sites, one move target) is screened in one call against the
placed instances an array-backed slot grid returns, with array
arithmetic instead of per-pair Python calls.  The seed's scalar
implementation is preserved verbatim as the test oracle
``tests/oracles/legalizer.py`` and the equivalence tests pin this
implementation to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
        densest_cell_count: Occupancy of the most crowded grid-cell-
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


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_IDS.setflags(write=False)

#: Slot depth of a fresh grid; doubled whenever a cell overflows.
_INITIAL_SLOTS = 4


class _SlotGrid:
    """Array-backed cell index of placed instances.

    Cell ``(cx, cy) = floor((x, y) / cell)`` owns the slot row
    ``slots[cx - ox, cy - oy]``: its members oldest first, then ``-1``
    padding, with ``counts`` holding each row's fill.  A query over a
    block of cells is one slice of ``slots``, reversed along the slot
    axis, plus a ``>= 0`` filter — no per-member Python walk, no sort.
    Ids come back cell by cell in ``(cx, cy)`` order, newest first
    within a cell; the detailed placer's ``argmax`` tie-break depends
    on that order.  Removal shifts the younger members of the row down
    one slot, so the order of the survivors is unchanged.

    The grid grows on demand: past its extent in any direction
    (negative and far-off cells included) and in slot depth when a
    cell overflows.
    """

    def __init__(self, cell_size: float, capacity: int,
                 lo: Tuple[float, float] = (0.0, 0.0),
                 hi: Tuple[float, float] = (0.0, 0.0)) -> None:
        self.cell = float(cell_size)
        self._where: List[Optional[Tuple[int, int]]] = [None] * capacity
        self._ox = math.floor(lo[0] / self.cell)
        self._oy = math.floor(lo[1] / self.cell)
        shape = (math.floor(hi[0] / self.cell) - self._ox + 1,
                 math.floor(hi[1] / self.cell) - self._oy + 1)
        self._slots = np.full(shape + (_INITIAL_SLOTS,), -1, dtype=np.int64)
        self._counts = np.zeros(shape, dtype=np.int64)

    def _grow(self, cx: int, cy: int) -> None:
        """Extend the grid to cover cell ``(cx, cy)`` (plus slack)."""
        nx, ny, depth = self._slots.shape
        x0, y0 = self._ox, self._oy
        x1, y1 = x0 + nx, y0 + ny
        # Half the current extent of slack on the growing side keeps a
        # run of out-of-range adds from reallocating every time.
        if cx < x0:
            x0 = cx - nx // 2
        elif cx >= x1:
            x1 = cx + 1 + nx // 2
        if cy < y0:
            y0 = cy - ny // 2
        elif cy >= y1:
            y1 = cy + 1 + ny // 2
        slots = np.full((x1 - x0, y1 - y0, depth), -1, dtype=np.int64)
        counts = np.zeros((x1 - x0, y1 - y0), dtype=np.int64)
        ax, ay = self._ox - x0, self._oy - y0
        slots[ax:ax + nx, ay:ay + ny] = self._slots
        counts[ax:ax + nx, ay:ay + ny] = self._counts
        self._slots, self._counts = slots, counts
        self._ox, self._oy = x0, y0

    def add(self, idx: int, x: float, y: float) -> None:
        cx = math.floor(x / self.cell)
        cy = math.floor(y / self.cell)
        gx, gy = cx - self._ox, cy - self._oy
        nx, ny, depth = self._slots.shape
        if not (0 <= gx < nx and 0 <= gy < ny):
            self._grow(cx, cy)
            gx, gy = cx - self._ox, cy - self._oy
        c = int(self._counts[gx, gy])
        if c == depth:
            self._slots = np.concatenate(
                (self._slots, np.full_like(self._slots, -1)), axis=2)
        self._slots[gx, gy, c] = idx
        self._counts[gx, gy] = c + 1
        self._where[idx] = (cx, cy)

    def remove(self, idx: int) -> None:
        where = self._where[idx]
        if where is None:
            return
        self._where[idx] = None
        gx, gy = where[0] - self._ox, where[1] - self._oy
        c = int(self._counts[gx, gy])
        row = self._slots[gx, gy]
        k = row[:c].tolist().index(idx)
        row[k:c - 1] = row[k + 1:c]
        row[c - 1] = -1
        self._counts[gx, gy] = c - 1

    def move(self, idx: int, x: float, y: float) -> None:
        self.remove(idx)
        self.add(idx, x, y)

    def _block(self, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
        """Members of the cells ``[x0, x1] x [y0, y1]`` (inclusive)."""
        nx, ny, _ = self._slots.shape
        a, b = max(x0 - self._ox, 0), min(x1 - self._ox + 1, nx)
        c, d = max(y0 - self._oy, 0), min(y1 - self._oy + 1, ny)
        if a >= b or c >= d:
            return _EMPTY_IDS
        ids = self._slots[a:b, c:d, ::-1].ravel()
        return ids[ids >= 0]

    def near_box(self, x0: float, x1: float, y0: float, y1: float,
                 radius: float) -> np.ndarray:
        """Instances within ``radius`` (per axis) of the box ``[x0, x1] x
        [y0, y1]``: a superset, each id once, holding the whole cell block
        that covers the box grown by ``radius``."""
        span = math.ceil(radius / self.cell)
        cell = self.cell
        return self._block(math.floor(x0 / cell) - span,
                           math.floor(x1 / cell) + span,
                           math.floor(y0 / cell) - span,
                           math.floor(y1 / cell) + span)

    def near_array(self, x: float, y: float, radius: float) -> np.ndarray:
        """Single-point :meth:`near_box` (superset of true neighbours)."""
        return self.near_box(x, x, y, y, radius)


@lru_cache(maxsize=16)
def _spiral_offsets_array(max_radius: int) -> np.ndarray:
    """``(N, 2)`` lattice offsets ordered by ring, then Euclidean distance.

    Ring (Chebyshev radius) ascending, then squared Euclidean distance,
    then ``(dx, dy)`` lexicographically: exactly the order of the scalar
    spiral in ``tests/oracles/legalizer.py``.  Cached per radius — generating
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


#: Ring-1 lattice offsets in ``(dx, dy)`` lexicographic order.
_RING1_OFFSETS: Tuple[Tuple[int, int], ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0))


def _ring_bounds(ring: int) -> Tuple[int, int]:
    """Slice of :func:`_spiral_offsets_array` holding one Chebyshev ring."""
    lo = (2 * ring - 1) ** 2 if ring > 0 else 0
    return lo, (2 * ring + 1) ** 2


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
        # largest instance extent — grid queries beyond it are never needed.
        max_half = float(np.max(p.sizes)) / 2.0
        max_gap = float(2.0 * np.max(p.paddings))
        self._interact_radius = 2.0 * max_half + max_gap + 1e-6
        region = p.region
        self._grid = _SlotGrid(cell_size=max(self._interact_radius, 0.5),
                               capacity=p.num_instances,
                               lo=(region.x, region.y),
                               hi=(region.x2, region.y2))
        self._txn: Optional[List[Tuple[int, Tuple[float, float]]]] = None
        self._segs_by_res: Optional[Dict[int, List[int]]] = None
        self._qubit_pitch = self.config.qubit_site_pitch_mm(
            float(p.sizes[p.is_qubit][:, 0].max()) if p.is_qubit.any() else 0.4)
        self._segment_pitch = self.config.segment_site_pitch_mm()
        self._offsets_arr = _spiral_offsets_array(
            self.config.spiral_max_radius_sites)
        #: Spiral offsets times each lattice pitch in use, in mm.
        self._scaled_offsets: Dict[float, np.ndarray] = {}
        self.stats = LegalizeStats()

        n = p.num_instances
        self._placed_mask = np.zeros(n, dtype=bool)
        half = 0.5 * np.asarray(p.sizes, dtype=float)
        self._hx = np.ascontiguousarray(half[:, 0])
        self._hy = np.ascontiguousarray(half[:, 1])
        self._req = RequiredGapTable(
            p.resonator_index, p.frequencies, p.clearances, p.paddings,
            p.qubit_index, p.resonator_ends,
            self.config.detuning_threshold_ghz)

    # -- geometric feasibility ---------------------------------------------------

    def _neighbor_mask(self, x: float, y: float, reach: float) -> np.ndarray:
        """Placed instances whose centre lies within ``reach`` per axis."""
        pos = self.positions
        return (self._placed_mask
                & (np.abs(pos[:, 0] - x) <= reach)
                & (np.abs(pos[:, 1] - y) <= reach))

    def _feasible_mask(self, i: int, sites: np.ndarray,
                       box: Optional[Tuple[float, float, float, float]] = None,
                       ignore: Tuple[int, ...] = (),
                       enforce_resonant: Optional[bool] = None
                       ) -> np.ndarray:
        """Per-site verdicts of every spacing rule for ``i`` at ``sites``.

        The one feasibility kernel: ``(sites, neighbours)`` gap
        matrices against the placed instances the grid returns for the
        sites' bounding box, minus ``i`` and ``ignore``.  The grid
        screen only decides *which* instances get a gap check; any
        instance beyond the interaction radius passes trivially (its gap
        exceeds every possible requirement), so the superset query never
        changes a verdict.

        Args:
            sites: ``(k, 2)`` candidate centres.
            box: ``(x0, x1, y0, y1)`` enclosing ``sites`` when the
                caller knows it; computed otherwise.
        """
        if enforce_resonant is None:
            enforce_resonant = self.config.frequency_aware
        if box is None:
            (x0, y0), (x1, y1) = sites.min(axis=0), sites.max(axis=0)
        else:
            x0, x1, y0, y1 = box
        js = self._grid.near_box(x0, x1, y0, y1, self._interact_radius)
        # Only placed instances are in the grid; callers lift movers
        # first, so this filter is rarely needed.
        placed = self._placed_mask
        for j in (i,) + ignore:
            if placed[j]:
                js = js[js != j]
        if js.size == 0:
            return np.ones(sites.shape[0], dtype=bool)
        need = self._req.pairs(i, js, enforce_resonant)
        need -= _TOL
        # (sites, neighbours) edge gaps per axis.  A pair apart on some
        # axis is separated by the Euclidean corner distance, an
        # overlapping one by the (negative) larger axis gap.  Few ufunc
        # calls matter more than array size at these shapes.
        pos = self.positions.take(js, axis=0)
        gx = np.abs(sites[:, 0:1] - pos[:, 0])
        gx -= self._hx[i] + self._hx.take(js)
        gy = np.abs(sites[:, 1:2] - pos[:, 1])
        gy -= self._hy[i] + self._hy.take(js)
        larger = np.maximum(gx, gy)
        gaps = np.maximum(gx, 0.0, out=gx)
        gaps *= gaps
        gy = np.maximum(gy, 0.0, out=gy)
        gy *= gy
        gaps += gy
        np.sqrt(gaps, out=gaps)
        np.copyto(gaps, larger, where=larger <= 0.0)
        return np.logical_and.reduce(gaps >= need, axis=1)

    def _can_place(self, i: int, x: float, y: float,
                   ignore: Tuple[int, ...] = (),
                   enforce_resonant: Optional[bool] = None) -> bool:
        """Check all spacing rules for instance ``i`` at ``(x, y)``."""
        return bool(self._feasible_mask(i, np.array(((x, y),)), (x, x, y, y),
                                        ignore, enforce_resonant)[0])

    def _first_feasible_site(self, i: int, sites: np.ndarray,
                             box: Optional[Tuple[float, float, float, float]]
                             = None,
                             enforce_resonant: Optional[bool] = None
                             ) -> Optional[Tuple[float, float]]:
        """First row of the ``(k, 2)`` ``sites`` where ``i`` fits, else None."""
        if sites.shape[0] == 0:
            return None
        ok = self._feasible_mask(i, sites, box,
                                 enforce_resonant=enforce_resonant)
        k = int(ok.argmax())
        if not ok[k]:
            return None
        return (float(sites[k, 0]), float(sites[k, 1]))

    def _place(self, i: int, x: float, y: float) -> None:
        self.positions[i] = (x, y)
        self._grid.add(i, x, y)
        self._placed.add(i)
        self._placed_mask[i] = True

    def _unplace(self, i: int) -> None:
        self._grid.remove(i)
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

        Each Chebyshev ring is screened as one batch by
        :meth:`_feasible_mask`.  The generator re-screens nothing after
        a yield, so callers that mutate placement state between yields
        must restore it before pulling the next site (as
        `_rebuild_resonator` does).
        """
        bx = round(float(target[0]) / pitch) * pitch
        by = round(float(target[1]) / pitch) * pitch
        base = np.array((bx, by))
        offs = self._scaled_offsets.get(pitch)
        if offs is None:
            offs = self._scaled_offsets[pitch] = self._offsets_arr * pitch
        max_ring = self.config.spiral_max_radius_sites
        # Rings 0 and 1 go as one batch: ring 0 alone fails often enough
        # that the saved kernel call outweighs eight extra sites.
        first = min(1, max_ring)
        for ring in range(first, max_ring + 1):
            lo, hi = _ring_bounds(ring)
            if ring == first:
                lo = 0
            sites = base + offs[lo:hi]
            reach = ring * pitch
            ok = self._feasible_mask(
                i, sites, (bx - reach, bx + reach, by - reach, by + reach),
                enforce_resonant=enforce_resonant)
            for k in ok.nonzero()[0].tolist():
                yield (float(sites[k, 0]), float(sites[k, 1]))

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
        cell = self._grid.cell
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
                self.positions[idx] = sites[c]
                self._grid.move(idx, sites[c][0], sites[c][1])

    # -- phase 2: segments (Tetris) ----------------------------------------------------

    def _first_adjacent_site(self, i: int, anchor: int, target: np.ndarray,
                             enforce_resonant: Optional[bool] = None
                             ) -> Optional[Tuple[float, float]]:
        """First feasible ring-1 lattice site around instance ``anchor``.

        Candidates are tried nearest-to-``target`` first.
        """
        pitch = self._segment_pitch
        px, py = self.positions[anchor].tolist()
        ax = round(px / pitch)
        ay = round(py / pitch)
        tx, ty = float(target[0]), float(target[1])
        sites = [((ax + dx) * pitch, (ay + dy) * pitch)
                 for dx, dy in _RING1_OFFSETS]
        # Scalar ``** 2`` (libm pow) on purpose: numpy's squares round
        # differently in the last bit and would reorder near-ties.
        d2 = [(x - tx) ** 2 + (y - ty) ** 2 for x, y in sites]
        order = sorted(range(len(sites)), key=d2.__getitem__)
        box = ((ax - 1) * pitch, (ax + 1) * pitch,
               (ay - 1) * pitch, (ay + 1) * pitch)
        return self._first_feasible_site(
            i, np.array([sites[k] for k in order]), box, enforce_resonant)

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
                    site = self._first_adjacent_site(seg, anchor, target)
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
        # Reflexive adjacency squared until it stops growing: row s is
        # then the component of s, in O(log k) boolean matmuls.
        reach = adj
        while not reach[0].all():
            wider = reach @ reach
            if np.array_equal(wider, reach):
                # Components in order of their smallest member, members
                # ascending (the order a seeded BFS finds them in).
                label = reach.argmax(axis=1)
                groups = [[ids[t] for t in np.flatnonzero(label == c)]
                          for c in np.unique(label)]
                return sorted(groups, key=len, reverse=True)
            reach = wider
        return [ids]

    def _sites_adjacent_to_cluster(self, cluster: Sequence[int],
                                   ring: int = 1) -> np.ndarray:
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
        return sites[order]

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
                        site = self._first_adjacent_site(
                            seg, anchor, coil_centre, enforce_resonant)
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

        Raises:
            ValueError: ``positions`` has the wrong shape.
            RuntimeError: the legalizer already has placed instances.
        """
        if positions.shape != self.positions.shape:
            raise ValueError("position array shape mismatch")
        if self._placed:
            raise RuntimeError(
                "load() needs an empty legalizer; "
                f"{len(self._placed)} instances are already placed")
        for i in range(self.problem.num_instances):
            self._place(i, float(positions[i, 0]), float(positions[i, 1]))

    def neighbors(self, x: float, y: float, radius_mm: float) -> np.ndarray:
        """Placed instances whose centres may lie within ``radius_mm``.

        A superset screen (grid-cell resolution) — callers needing the
        exact set must distance-filter the result.
        """
        return self._grid.near_array(x, y, radius_mm)

    def try_moves(self, moves: Sequence[Tuple[int, Tuple[float, float]]],
                  enforce_resonant: Optional[bool] = None) -> bool:
        """Atomically relocate a batch of placed instances.

        Every target site must satisfy the spacing rules (against the
        layout with all movers lifted) and every affected resonator must
        stay contiguous.  On success the movers sit at their new sites
        and the transaction stays open until :meth:`commit` or
        :meth:`rollback`; on failure the layout is untouched and False
        is returned.

        Raises:
            RuntimeError: a transaction is already open.
            ValueError: the batch names an instance more than once.
        """
        if self._txn is not None:
            raise RuntimeError(
                "a batch-move transaction is already open; "
                "commit() or rollback() it first")
        ids = [int(i) for i, _ in moves]
        if len(set(ids)) != len(ids):
            raise ValueError(
                f"batch moves name an instance more than once: {ids}")
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
        """Legalize ``global_positions``; returns (positions, stats).

        ``stats.phase_seconds`` times this call only; the caller's
        profiler also receives it under its open phase path.
        """
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
    """Convenience wrapper: run Algorithm 1 on a global-placement result.

    The legalizer is built inside the ``legalize`` phase too, so the
    caller's top-level phases account for its set-up.
    """
    with profiling.phase("legalize"):
        legalizer = Legalizer(problem, config)
    return legalizer.run(global_positions)
