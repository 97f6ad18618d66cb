"""Spatial interactions: candidate-pair generation at scale.

Every pairwise structure of the placement flow — the legalizer's
required-gap lookups, the engine's frequency-collision force, the
spatial-violation scan, and the fidelity crosstalk tables — reduces to
the same primitive: *which instance pairs can interact within a cutoff
distance?*  :func:`grid_candidate_pairs` answers it with a uniform-grid
neighbor list: instances are bucketed into cells of the cutoff size and
only pairs in adjacent cells are candidates.  O(n x local density)
memory/time, which is what makes condor-1121-class topologies tractable;
the all-pairs ``triu`` scan it is tested against lives in
``tests/oracles/violations.py``.

The engine's frequency force always runs through
:class:`PrunedCollisionPairs`.  Only its cutoff depends on size:
:func:`~repro.core.preprocess.build_problem` sets
:attr:`~repro.core.preprocess.PlacementProblem.freq_pair_cutoff_mm` to
the region diagonal up to
:data:`~repro.core.preprocess.SPARSE_MIN_INSTANCES` instances (the list
is built once and equals the full collision map, so the six paper
topologies keep their exact all-pairs sum) and to
:data:`~repro.core.preprocess.FREQ_PAIR_CUTOFF_MM` above.  The
spatial-violation scan uses the grid at every size.

Grid candidate generation is fully vectorized: cell keys are sorted
once, and for each of the five half-neighborhood offsets the matching
key ranges are found with ``searchsorted`` and expanded with one global
``arange`` — no per-bucket Python loop.

Which nearby pairs may touch is one rule, :func:`intended_adjacency`,
over the per-instance keys a
:class:`~repro.core.preprocess.PlacementProblem` stores
(``qubit_index``, ``resonator_index``, ``resonator_ends``): the
violation scan, the legality check
(:func:`~repro.ensembles.repair.check_layout_legal`) and the
legalizer's :class:`RequiredGapTable` all read it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import profiling
from ..devices.netlist import QuantumNetlist


# ---------------------------------------------------------------------------
# candidate-pair generation
# ---------------------------------------------------------------------------

def sort_pairs(a: np.ndarray, b: np.ndarray,
               n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``i < j`` pairs lexicographically via one scalar-key sort.

    Each pair is encoded as ``i * n + j`` so a single 1-D ``np.sort``
    replaces the far costlier row-wise ``np.unique(axis=0)``; callers
    filter candidate sets down *before* sorting, which is what keeps
    neighbor-list rebuilds cheap on clustered early-iteration layouts.
    """
    if a.size == 0:
        return a, b
    key = np.sort(a.astype(np.int64) * np.int64(n) + b)
    return key // n, key % n


#: Half-neighborhood offsets of the 2-D uniform grid: each unordered
#: cell pair is visited exactly once.
_PLANE_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (0, 0), (0, 1), (1, -1), (1, 0), (1, 1))

#: Cross-band offsets: cells one *frequency band* up pair against the
#: full 3x3 spatial neighborhood (visited only from the lower band, so
#: again each unordered cell pair appears exactly once).
_BAND_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
    (1, -1), (1, 0), (1, 1))


def frequency_bands(frequencies: np.ndarray, threshold: float) -> np.ndarray:
    """Integer band labels such that resonant pairs differ by <= 1 label.

    Floor bands are ``floor(f / w)`` with a band width ``w`` slightly
    above the detuning threshold — the same guard-band trick as the grid
    cell size, so a pair at exactly the threshold detuning can never end
    up two floor bands apart through float rounding.

    Occupied floor bands are then relabelled in order, and the label
    steps by 2 across every gap no resonant pair can cross: two floor
    bands ``b`` and ``b + 1`` keep adjacent labels only when the lowest
    frequency of ``b + 1`` is within ``w`` of the highest of ``b``.
    Float subtraction is monotone, so for a resonant pair that gap is at
    most ``f_j - f_i <= threshold <= w``.  Frequency palettes whose
    levels sit further apart than the threshold thus get no adjacent
    labels at all, and :func:`grid_candidate_pairs` never pairs up
    neighbouring levels.
    """
    width = max(float(threshold), 0.0) * (1.0 + 1e-9) + 1e-12
    freqs = np.asarray(frequencies, dtype=float)
    floor = np.floor(freqs / width).astype(np.int64)
    occupied, inverse = np.unique(floor, return_inverse=True)
    lo = np.full(occupied.size, np.inf)
    hi = np.full(occupied.size, -np.inf)
    np.minimum.at(lo, inverse, freqs)
    np.maximum.at(hi, inverse, freqs)
    near = (np.diff(occupied) == 1) & (lo[1:] - hi[:-1] <= width)
    labels = np.concatenate(([0], np.cumsum(np.where(near, 1, 2))))
    return labels[inverse]


def grid_candidate_pairs(positions: np.ndarray, cutoff: float,
                         sort: bool = True,
                         bands: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate ``i < j`` pairs from a uniform grid.

    Guarantee: the result is a superset of every pair whose per-axis
    (Chebyshev) centre distance is at most ``cutoff``; pairs further
    than ``2 * cutoff`` on either axis are never produced.  With
    ``sort=True`` the ordering matches an all-pairs ``triu`` scan
    (sorted by ``(i, j)``) so downstream filters yield identical result
    sequences under either strategy; callers that filter heavily first
    pass ``sort=False`` and apply :func:`sort_pairs` to the survivors.

    With ``bands`` (integer labels, e.g. :func:`frequency_bands`) the
    grid gains a third dimension: only pairs in the *same or adjacent*
    band are produced.  Callers whose exact acceptance test implies a
    band difference of at most one (resonance under the banding
    threshold) get a candidate set smaller by roughly the occupied band
    count — the spatial guarantee then holds per band neighborhood.
    When no two labels are adjacent, the band-above offsets are skipped.

    Args:
        positions: ``(n, 2)`` instance centres.
        cutoff: Interaction reach (mm); also the grid cell size.
        sort: Lex-sort the pairs before returning.
        bands: Optional ``(n,)`` integer band labels.
    """
    n = positions.shape[0]
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    if n < 2:
        return empty
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    # A hair of slack so a pair at exactly the cutoff distance can never
    # straddle two cell boundaries (float rounding in the division).
    cell = cutoff * (1.0 + 1e-12) + 1e-9
    cx = np.floor(positions[:, 0] / cell).astype(np.int64)
    cy = np.floor(positions[:, 1] / cell).astype(np.int64)
    cx -= cx.min()
    cy -= cy.min()
    width = int(cy.max()) + 2
    key = cx * width + cy
    offsets: Sequence[Tuple[int, int]] = _PLANE_OFFSETS
    if bands is not None:
        bands = np.asarray(bands, dtype=np.int64)
        depth = int(cx.max()) + 2
        plane = depth * width
        key = (bands - bands.min()) * plane + key
        # Same band: half neighborhood; band above: full 3x3 (a pair in
        # adjacent bands is seen only from its lower band).
        offsets = tuple((0, dx * width + dy) for dx, dy in _PLANE_OFFSETS)
        if (np.diff(np.unique(bands)) == 1).any():
            offsets += tuple((1, dx * width + dy) for dx, dy in _BAND_OFFSETS)
        offsets = tuple(db * plane + d for db, d in offsets)
    else:
        offsets = tuple(dx * width + dy for dx, dy in _PLANE_OFFSETS)
    order = np.argsort(key, kind="stable")
    skey = key[order]

    parts_a: List[np.ndarray] = []
    parts_b: List[np.ndarray] = []
    positions_in_sorted = np.arange(n)
    for delta in offsets:
        target = skey + delta
        if delta == 0:
            lo = positions_in_sorted + 1
            hi = np.searchsorted(skey, target, side="right")
        else:
            lo = np.searchsorted(skey, target, side="left")
            hi = np.searchsorted(skey, target, side="right")
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            continue
        src = np.repeat(positions_in_sorted, counts)
        starts = np.cumsum(counts) - counts
        dst = lo[src] + (np.arange(total) - starts[src])
        parts_a.append(order[src])
        parts_b.append(order[dst])
    if not parts_a:
        return empty
    a = np.concatenate(parts_a)
    b = np.concatenate(parts_b)
    a, b = np.minimum(a, b), np.maximum(a, b)
    return sort_pairs(a, b, n) if sort else (a, b)


# ---------------------------------------------------------------------------
# intended adjacency
# ---------------------------------------------------------------------------

def resonator_endpoints(netlist: Optional[QuantumNetlist],
                        resonator: np.ndarray) -> np.ndarray:
    """``(R, 2)`` endpoint qubits per resonator index, ``-1`` if unknown.

    ``R`` is at least one and covers every index in the netlist and in
    ``resonator`` (per-instance ids), so ``-1``-clipped gathers stay in
    bounds.  Without a netlist no endpoint is known.
    """
    resonators = netlist.resonators if netlist is not None else []
    ends = np.full((max([1, int(resonator.max(initial=-1)) + 1]
                        + [r.index + 1 for r in resonators]), 2), -1,
                   dtype=np.int64)
    for r in resonators:
        ends[r.index] = r.endpoints
    return ends


def intended_adjacency(qubit: np.ndarray, resonator: np.ndarray,
                       ends: np.ndarray, a: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """Which pairs ``(a[k], b[k])`` may touch: the intended adjacencies.

    Sibling segments of one resonator, and a qubit against the segments
    of a resonator attached to it.  ``qubit`` (a qubit key, ``-1`` for
    segments) and ``resonator`` (``-1`` for qubits) are per instance;
    ``ends`` holds each resonator's endpoint keys (see
    :func:`resonator_endpoints`), in the same key space as ``qubit``.
    """
    ra, rb = resonator[a], resonator[b]
    intended = (ra >= 0) & (ra == rb)
    for q, r in ((qubit[a], rb), (qubit[b], ra)):
        e = ends[np.maximum(r, 0)]
        intended |= (q >= 0) & (r >= 0) & ((e[:, 0] == q) | (e[:, 1] == q))
    return intended


# ---------------------------------------------------------------------------
# required-gap lookups (legalizer)
# ---------------------------------------------------------------------------

_NO_IDS = np.zeros(0, dtype=np.int64)


class RequiredGapTable:
    """Pairwise required edge-to-edge gaps, computed on demand.

    ``strict`` lookups apply the resonant checker tau (padding sum for
    resonant non-intended pairs); ``relaxed`` ones use the plain
    clearance rule.  Intended pairs (sibling segments; a qubit and the
    segments of an attached resonator) require no gap in either.  The
    legalizer asks only for the handful of grid-screened neighbours of
    one instance at a time, so nothing of size ``n x n`` is ever built.
    """

    def __init__(self, resonator_index: np.ndarray, frequencies: np.ndarray,
                 clearances: np.ndarray, paddings: np.ndarray,
                 qubit_index: np.ndarray, resonator_ends: np.ndarray,
                 detuning_threshold_ghz: float) -> None:
        self._res = np.asarray(resonator_index, dtype=np.int64)
        self._freqs = np.asarray(frequencies, dtype=float)
        # Halved once: 0.5 * (a + b) == 0.5 * a + 0.5 * b exactly in
        # binary floating point (scaling by two commutes with rounding).
        self._half_clear = 0.5 * np.asarray(clearances, dtype=float)
        self._pads = np.asarray(paddings, dtype=float)
        self._threshold = float(detuning_threshold_ghz)
        # What each instance may abut (:func:`intended_adjacency`, as
        # per-instance lists): a segment, its siblings and the (at most
        # two) qubits its resonator attaches to; a qubit, the segments
        # of its attached resonators.  Siblings share one array.
        qubit = np.asarray(qubit_index, dtype=np.int64)
        n = self._res.shape[0]
        instance_of = {int(qubit[i]): i
                       for i in np.flatnonzero(qubit >= 0).tolist()}
        segments_of: Dict[int, List[int]] = {}
        for j, r in enumerate(self._res.tolist()):
            if r >= 0:
                segments_of.setdefault(r, []).append(j)
        own: Dict[int, List[int]] = {}
        self._abut: List[np.ndarray] = [_NO_IDS] * n
        for r, segs in segments_of.items():
            ends = np.asarray(resonator_ends[r]).tolist()
            qubits = sorted({instance_of[e] for e in ends if e in instance_of})
            ids = np.asarray(segs + qubits, dtype=np.int64)
            for j in segs:
                self._abut[j] = ids
            for qi in qubits:
                own.setdefault(qi, []).extend(segs)
        for qi, segs in own.items():
            self._abut[qi] = np.asarray(segs, dtype=np.int64)
        # Scratch membership marks, all False between calls.
        self._mark = np.zeros(n, dtype=bool)

    def pairs(self, i: int, js: np.ndarray, strict: bool) -> np.ndarray:
        """Required gaps from ``i`` to each of ``js`` in O(len(js))."""
        js = np.asarray(js, dtype=np.int64)
        ids = self._abut[i]
        mark = self._mark
        mark[ids] = True
        try:
            intended = mark[js]
        finally:
            mark[ids] = False
        req = self._half_clear[i] + self._half_clear[js]
        if strict:
            resonant = (np.abs(self._freqs[i] - self._freqs[js])
                        <= self._threshold)
            req = np.where(resonant, self._pads[i] + self._pads[js], req)
        req[intended] = 0.0
        return req


# ---------------------------------------------------------------------------
# distance-pruned frequency collision pairs (engine)
# ---------------------------------------------------------------------------

class PrunedCollisionPairs:
    """Neighbor-list view of the frequency collision map.

    Keeps only resonant pairs currently within ``cutoff + skin`` of each
    other, rebuilding the list (Verlet-style) whenever some instance has
    drifted more than ``skin / 2`` since the last build — between
    rebuilds the list provably still contains every pair within
    ``cutoff``.  Far pairs contribute ``< 1/cutoff`` each to the
    repulsive sum, which is what a finite cutoff truncates.

    When ``span_mm`` (the largest centre distance positions can reach,
    e.g. the region diagonal) is within ``cutoff + skin``, no pair can
    ever leave the reach: the list is built once, never checks drift
    and never rebuilds, and its pair array is bit-identical (same
    contents, same lex order) to the full collision map
    (every resonant pair, sibling segments excluded).

    Candidate generation adds a frequency dimension to the grid
    (:func:`frequency_bands`): instances more than one band label
    apart can never be resonant, so their spatial pairs are never
    materialised.  Profiling condor-sm-433
    placement showed the rebuild filter — millions of spatially-near
    but non-resonant candidates — at >90% of the run; banding removes
    them at the source while the exact resonance filter keeps the final
    pair array bit-identical.  Builds are booked as the ``neighbors``
    profiling phase.
    """

    def __init__(self, frequencies: np.ndarray, resonator_index: np.ndarray,
                 detuning_threshold_ghz: float,
                 cutoff_mm: float, skin_mm: float,
                 span_mm: Optional[float] = None) -> None:
        if cutoff_mm <= 0:
            raise ValueError("cutoff must be positive")
        self._freqs = np.asarray(frequencies, dtype=float)
        self._res = np.asarray(resonator_index, dtype=np.int64)
        self._threshold = float(detuning_threshold_ghz)
        self.cutoff_mm = float(cutoff_mm)
        self.skin_mm = float(skin_mm)
        self.static = (span_mm is not None
                       and self.cutoff_mm + self.skin_mm >= span_mm)
        self._bands = frequency_bands(self._freqs, self._threshold)
        self._pairs: Optional[np.ndarray] = None
        self._ref_positions: Optional[np.ndarray] = None
        self.rebuilds = 0
        self.reuses = 0
        self.peak_pairs = 0
        self.peak_candidates = 0

    def _needs_rebuild(self, positions: np.ndarray) -> bool:
        if self._pairs is None or self._ref_positions is None:
            return True
        if self.static:
            return False
        # Euclidean per-instance drift: two instances approaching each
        # other diagonally close the gap by at most twice this, so the
        # skin/2 bound keeps every in-cutoff pair inside the list.
        ref = self._ref_positions
        dx = positions[:, 0] - ref[:, 0]
        dy = positions[:, 1] - ref[:, 1]
        drift2 = float((dx * dx + dy * dy).max())
        return drift2 > (0.5 * self.skin_mm) ** 2

    def _rebuild(self, positions: np.ndarray) -> None:
        reach = self.cutoff_mm + self.skin_mm
        a, b = grid_candidate_pairs(positions, reach, sort=False,
                                    bands=self._bands)
        self.peak_candidates = max(self.peak_candidates, int(a.size))
        if a.size:
            # 1-D column gathers: a row-pair gather plus axis-1 sum
            # moves several times the memory for the same bits.
            x, y = positions[:, 0], positions[:, 1]
            dx = x.take(a) - x.take(b)
            dy = y.take(a) - y.take(b)
            within = dx * dx + dy * dy <= reach * reach
            resonant = (np.abs(self._freqs[a] - self._freqs[b])
                        <= self._threshold)
            ra, rb = self._res[a], self._res[b]
            sibling = (ra >= 0) & (ra == rb)
            keep = within & resonant & ~sibling
            a, b = sort_pairs(a[keep], b[keep], positions.shape[0])
        self._pairs = np.stack([a, b], axis=1).astype(np.int64, copy=False)
        self._ref_positions = positions.copy()
        self.rebuilds += 1
        self.peak_pairs = max(self.peak_pairs, int(a.size))

    def pairs(self, positions: np.ndarray) -> np.ndarray:
        """Current active ``(p, 2)`` pair array."""
        if self._needs_rebuild(positions):
            with profiling.phase("neighbors"):
                self._rebuild(positions)
        else:
            self.reuses += 1
        assert self._pairs is not None
        return self._pairs
