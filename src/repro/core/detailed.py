"""Detailed placement: legality-preserving wirelength refinement.

Classical placement flows follow legalization with a *detailed placement*
stage that locally improves wirelength without breaking legality.  This
module implements same-kind swaps for the quantum layout problem:
exchange the sites of two equal-footprint instances when that shortens
the chain wirelength — the quantum twist is that a swap must also
preserve the resonant-spacing rule (swapping two instances of
*different* frequencies can create a hotspot) and resonator contiguity,
so every accepted move goes through the legalizer's transactional
:meth:`~repro.core.legalizer.Legalizer.try_moves` feasibility gate.

This is the *batched* engine: net partners live in one CSR-style flat
array pair, each visited instance scores all its hash-screened swap
candidates with a single vectorized gain evaluation
(:meth:`DetailedPlacer._swap_gains`), and per-instance wirelengths are
maintained incrementally across accepted swaps instead of being
recomputed every sweep.  The scalar seed implementation is preserved in
:mod:`repro.core.detailed_reference` and the perf bench gates this
engine against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import profiling
from .config import PlacerConfig
from .legalizer import Legalizer
from .preprocess import PlacementProblem
from .wirelength import hpwl


@dataclass
class DetailedPlaceStats:
    """Telemetry of one detailed-placement run.

    Attributes:
        swaps_applied: Accepted pairwise swaps.
        passes: Refinement sweeps executed.
        hpwl_before: Chain wirelength entering refinement.
        hpwl_after: Chain wirelength after refinement.
        candidates_scored: Swap candidates gain-evaluated (batched).
    """

    swaps_applied: int = 0
    passes: int = 0
    hpwl_before: float = 0.0
    hpwl_after: float = 0.0
    candidates_scored: int = 0

    @property
    def improvement(self) -> float:
        """Relative wirelength reduction (0.05 = 5% shorter)."""
        if self.hpwl_before <= 0:
            return 0.0
        return 1.0 - self.hpwl_after / self.hpwl_before


class DetailedPlacer:
    """Greedy legality-preserving refinement over a legalized layout."""

    def __init__(self, problem: PlacementProblem,
                 config: Optional[PlacerConfig] = None) -> None:
        self.problem = problem
        self.config = config if config is not None else problem.config
        n = problem.num_instances
        self._nets_by_instance: Dict[int, List[int]] = {}
        for net_idx, (a, b) in enumerate(problem.nets):
            self._nets_by_instance.setdefault(int(a), []).append(net_idx)
            self._nets_by_instance.setdefault(int(b), []).append(net_idx)
        # Net partners per instance: all 2-pin nets of instance i reduce
        # to |pos[i] - pos[partner]|, stored CSR-style so both the
        # full-array wirelength pass and the batched gain kernel gather
        # partner slices without dict lookups.
        self._partners: Dict[int, np.ndarray] = {}
        counts = np.zeros(n, dtype=np.int64)
        for inst, net_ids in self._nets_by_instance.items():
            arr = np.array(
                [int(problem.nets[k, 1]) if int(problem.nets[k, 0]) == inst
                 else int(problem.nets[k, 0]) for k in net_ids],
                dtype=np.int64)
            self._partners[inst] = arr
            counts[inst] = arr.size
        self._poff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._poff[1:])
        self._pflat = np.zeros(int(self._poff[-1]), dtype=np.int64)
        for inst, arr in self._partners.items():
            self._pflat[self._poff[inst]:self._poff[inst + 1]] = arr
        # Same-kind groups: instances are swappable when both are qubits
        # or both segments with equal footprints.
        kind_keys = np.column_stack([
            problem.is_qubit.astype(np.int64),
            problem.sizes[:, 0], problem.sizes[:, 1]])
        _, self._kind_id = np.unique(kind_keys, axis=0, return_inverse=True)

    # -- wirelength deltas -------------------------------------------------------

    def _instance_wl(self, positions: np.ndarray, inst: int) -> float:
        """Wirelength of all nets touching one instance."""
        partners = self._partners.get(inst)
        if partners is None:
            return 0.0
        return float(np.abs(positions[inst] - positions[partners]).sum())

    def _instance_wl_all(self, positions: np.ndarray) -> np.ndarray:
        """Per-instance net wirelengths, one vectorized pass."""
        n = self.problem.num_instances
        if self._pflat.size == 0:
            return np.zeros(n)
        owners = np.repeat(np.arange(n), np.diff(self._poff))
        terms = np.abs(positions[owners] - positions[self._pflat]).sum(axis=1)
        csum = np.concatenate([[0.0], np.cumsum(terms)])
        return csum[self._poff[1:]] - csum[self._poff[:-1]]

    def _pair_wl(self, positions: np.ndarray, i: int, j: int) -> float:
        """Combined wirelength of the nets of two instances.

        Shared nets are counted twice on both sides of a comparison, so
        deltas stay correct.
        """
        return self._instance_wl(positions, i) + self._instance_wl(positions, j)

    def _swap_gain(self, positions: np.ndarray, i: int, j: int) -> float:
        """Wirelength gain of swapping the sites of ``i`` and ``j``.

        The scalar oracle: evaluates the same quantity as
        ``_pair_wl(before) - _pair_wl(after-swap)`` without
        materialising a swapped copy of the position array.  The batched
        kernel (:meth:`_swap_gains`) is property-tested against it.
        """
        pi, pj = positions[i], positions[j]
        gain = 0.0
        for inst, other, new_pos in ((i, j, pj), (j, i, pi)):
            partners = self._partners.get(inst)
            if partners is None:
                continue
            pp = positions[partners]
            before = np.abs(positions[inst] - pp).sum()
            # After the swap the partner that *is* the swap peer has
            # moved to this instance's old site.
            pp = pp.copy()
            pp[partners == other] = positions[inst]
            after = np.abs(new_pos - pp).sum()
            gain += float(before - after)
        return gain

    def _swap_gains(self, positions: np.ndarray, wl: np.ndarray,
                    i: int, js: np.ndarray) -> np.ndarray:
        """Gains of swapping ``i`` with each candidate in ``js``.

        ``wl`` must hold the *current* per-instance wirelengths (the
        incrementally maintained array), which stand in for the "before"
        sums; the "after" sums come from one (candidates x partners)
        distance matrix per side, with the mover-is-partner entries
        corrected to the post-swap geometry.
        """
        pos_i = positions[i]
        pos_js = positions[js]
        # Side 1: i sits at each candidate's site; partner j (if any)
        # has moved to i's old site.
        mine = self._pflat[self._poff[i]:self._poff[i + 1]]
        if mine.size:
            d = np.abs(pos_js[:, None, :]
                       - positions[mine][None, :, :]).sum(axis=2)
            match = js[:, None] == mine[None, :]
            if match.any():
                corr = np.abs(pos_js - pos_i).sum(axis=1)
                d = np.where(match, corr[:, None], d)
            after_i = d.sum(axis=1)
        else:
            after_i = np.zeros(js.size)
        # Side 2: each candidate j sits at i's site; its partners stay
        # put except i itself, which now occupies j's old site.
        counts = self._poff[js + 1] - self._poff[js]
        total = int(counts.sum())
        if total:
            ends = np.cumsum(counts)
            within = np.arange(total) - np.repeat(ends - counts, counts)
            q = self._pflat[np.repeat(self._poff[js], counts) + within]
            owner = np.repeat(np.arange(js.size), counts)
            terms = np.abs(pos_i - positions[q]).sum(axis=1)
            hit = q == i
            if hit.any():
                terms[hit] = np.abs(pos_i - pos_js[owner[hit]]).sum(axis=1)
            csum = np.concatenate([[0.0], np.cumsum(terms)])
            after_j = csum[ends] - csum[ends - counts]
        else:
            after_j = np.zeros(js.size)
        return (wl[i] - after_i) + (wl[js] - after_j)

    # -- main loop ----------------------------------------------------------------

    def refine(self, positions: np.ndarray,
               max_passes: int = 3,
               neighbor_radius_mm: float = 1.5,
               only: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, DetailedPlaceStats]:
        """Refine a legal placement; returns (positions, stats).

        Args:
            positions: Legalized instance centres.
            max_passes: Sweeps over all instances.
            neighbor_radius_mm: Swap-partner search radius.
            only: Optional instance indices to restrict the sweep to.
                Swap *partners* still come from the full spatial hash;
                only the set of instances visited shrinks.  Incremental
                flows (ensemble repair) pass the instances the
                legalizer actually disturbed.
        """
        with profiling.phase("detailed"):
            return self._refine(positions, max_passes, neighbor_radius_mm,
                                only)

    def _refine(self, positions: np.ndarray, max_passes: int,
                neighbor_radius_mm: float,
                only: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, DetailedPlaceStats]:
        p = self.problem
        legalizer = Legalizer(p, self.config)
        legalizer.load(positions)

        stats = DetailedPlaceStats(hpwl_before=hpwl(positions, p.nets))
        kind_id = self._kind_id
        wl = self._instance_wl_all(legalizer.positions)
        visit = None
        if only is not None:
            visit = np.zeros(p.num_instances, dtype=bool)
            visit[np.asarray(only, dtype=np.int64)] = True

        for _ in range(max_passes):
            stats.passes += 1
            improved = False
            order = np.argsort(-wl, kind="stable")
            if visit is not None:
                order = order[visit[order]]
            for i in order.tolist():
                xi, yi = legalizer.positions[i]
                js = legalizer.neighbors(float(xi), float(yi),
                                         neighbor_radius_mm)
                if js.size:
                    js = js[(js != i) & (kind_id[js] == kind_id[i])]
                if js.size == 0:
                    continue
                gains = self._swap_gains(legalizer.positions, wl, i, js)
                stats.candidates_scored += int(js.size)
                k = int(np.argmax(gains))
                if gains[k] <= 1e-9:
                    continue
                j = int(js[k])
                pos_i = (float(legalizer.positions[i, 0]),
                         float(legalizer.positions[i, 1]))
                pos_j = (float(legalizer.positions[j, 0]),
                         float(legalizer.positions[j, 1]))
                if legalizer.try_moves([(i, pos_j), (j, pos_i)]):
                    legalizer.commit()
                    stats.swaps_applied += 1
                    improved = True
                    # Refresh the touched wirelengths: the movers and
                    # every partner of either (their net terms changed).
                    touched = {i, j}
                    touched.update(
                        self._pflat[self._poff[i]:self._poff[i + 1]].tolist())
                    touched.update(
                        self._pflat[self._poff[j]:self._poff[j + 1]].tolist())
                    for t in touched:
                        wl[t] = self._instance_wl(legalizer.positions, t)
            if not improved:
                break

        stats.hpwl_after = hpwl(legalizer.positions, p.nets)
        return legalizer.positions.copy(), stats


def refine_placement(problem: PlacementProblem, positions: np.ndarray,
                     config: Optional[PlacerConfig] = None,
                     max_passes: int = 3,
                     only: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, DetailedPlaceStats]:
    """Convenience wrapper around :class:`DetailedPlacer`.

    The placer is built inside the ``detailed`` phase too, so the
    caller's top-level phases account for its set-up.
    """
    with profiling.phase("detailed"):
        placer = DetailedPlacer(problem, config)
    return placer.refine(positions, max_passes=max_passes, only=only)
