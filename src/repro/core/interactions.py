"""Spatial interactions: candidate-pair generation at scale.

Every pairwise structure of the placement flow — the legalizer's
required-gap lookups, the engine's frequency-collision force, the
spatial-violation scan, and the fidelity crosstalk tables — reduces to
the same primitive: *which instance pairs can interact within a cutoff
distance?*  This module provides it two ways:

* :func:`dense_candidate_pairs` — every pair (``triu`` index arrays),
  O(n^2) memory/time; the oracle the grid is tested against.
* :func:`grid_candidate_pairs` — a uniform-grid neighbor list:
  instances are bucketed into cells of the cutoff size and only pairs
  in adjacent cells are candidates.  O(n x local density) memory/time,
  which is what makes condor-1121-class topologies tractable.

The engine's frequency force always runs through
:class:`PrunedCollisionPairs`.  Only its cutoff depends on size:
:func:`~repro.core.preprocess.build_problem` sets
:attr:`~repro.core.preprocess.PlacementProblem.freq_pair_cutoff_mm` to
the region diagonal up to
:data:`~repro.core.preprocess.SPARSE_MIN_INSTANCES` instances (the list
is built once and equals the full collision map, so the six paper
topologies keep their exact all-pairs sum) and to
:data:`~repro.core.preprocess.FREQ_PAIR_CUTOFF_MM` above.  The
spatial-violation scan returns the same pairs either way, so it uses the
grid at every size unless the ``dense`` oracle is asked for.

Grid candidate generation is fully vectorized: cell keys are sorted
once, and for each of the five half-neighborhood offsets the matching
key ranges are found with ``searchsorted`` and expanded with one global
``arange`` — no per-bucket Python loop.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .. import profiling


# ---------------------------------------------------------------------------
# candidate-pair generation
# ---------------------------------------------------------------------------

def dense_candidate_pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """All ``i < j`` index pairs, in ``triu`` (lexicographic) order."""
    return np.triu_indices(n, 1)


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
    """Integer band labels such that resonant pairs differ by <= 1 band.

    Bands are ``floor(f / w)`` with a band width ``w`` slightly above
    the detuning threshold — the same guard-band trick as the grid cell
    size, so a pair at exactly the threshold detuning can never end up
    two bands apart through float rounding.
    """
    width = max(float(threshold), 0.0) * (1.0 + 1e-9) + 1e-12
    return np.floor(np.asarray(frequencies, dtype=float)
                    / width).astype(np.int64)


def grid_candidate_pairs(positions: np.ndarray, cutoff: float,
                         sort: bool = True,
                         bands: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate ``i < j`` pairs from a uniform grid.

    Guarantee: the result is a superset of every pair whose per-axis
    (Chebyshev) centre distance is at most ``cutoff``; pairs further
    than ``2 * cutoff`` on either axis are never produced.  With
    ``sort=True`` the ordering matches :func:`dense_candidate_pairs`
    (sorted by ``(i, j)``) so downstream filters yield identical result
    sequences under either strategy; callers that filter heavily first
    pass ``sort=False`` and apply :func:`sort_pairs` to the survivors.

    With ``bands`` (integer labels, e.g. :func:`frequency_bands`) the
    grid gains a third dimension: only pairs in the *same or adjacent*
    band are produced.  Callers whose exact acceptance test implies a
    band difference of at most one (resonance under the banding
    threshold) get a candidate set smaller by roughly the occupied band
    count — the spatial guarantee then holds per band neighborhood.

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
        offsets = tuple((0, dx * width + dy) for dx, dy in _PLANE_OFFSETS) \
            + tuple((1, dx * width + dy) for dx, dy in _BAND_OFFSETS)
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
                 attached_resonators: Mapping[int, Set[int]],
                 detuning_threshold_ghz: float) -> None:
        self._res = np.asarray(resonator_index, dtype=np.int64)
        self._freqs = np.asarray(frequencies, dtype=float)
        # Halved once: 0.5 * (a + b) == 0.5 * a + 0.5 * b exactly in
        # binary floating point (scaling by two commutes with rounding).
        self._half_clear = 0.5 * np.asarray(clearances, dtype=float)
        self._pads = np.asarray(paddings, dtype=float)
        self._threshold = float(detuning_threshold_ghz)
        # What each instance may abut: a segment, its siblings and the
        # (at most two) qubits its resonator attaches to; a qubit, the
        # segments of its attached resonators.  Siblings share one array.
        n = self._res.shape[0]
        segments_of: Dict[int, List[int]] = {}
        for j, r in enumerate(self._res.tolist()):
            if r >= 0:
                segments_of.setdefault(r, []).append(j)
        qubits_of: Dict[int, List[int]] = {}
        for qi, rset in attached_resonators.items():
            for r in rset:
                qubits_of.setdefault(int(r), []).append(int(qi))
        self._abut: List[np.ndarray] = [_NO_IDS] * n
        for r, segs in segments_of.items():
            ids = np.asarray(segs + sorted(qubits_of.get(r, ())),
                             dtype=np.int64)
            for j in segs:
                self._abut[j] = ids
        for qi, rset in attached_resonators.items():
            own = [j for r in sorted(rset) for j in segments_of.get(r, ())]
            if own:
                qi = int(qi)
                self._abut[qi] = np.concatenate(
                    (self._abut[qi], np.asarray(own, dtype=np.int64)))
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
    (:func:`~repro.core.preprocess._collision_pairs`).

    Candidate generation adds a frequency dimension to the grid
    (:func:`frequency_bands`): instances more than one
    detuning-threshold band apart can never be resonant, so their
    spatial pairs are never materialised.  Profiling condor-sm-433
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
        self._pairs = np.stack([a, b], axis=1).astype(np.int64)
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
