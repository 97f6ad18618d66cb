"""Reference detailed placement: the pre-vectorization implementation.

Preserved verbatim from the scalar detailed placer (per-pair
``_swap_gain`` evaluation, per-sweep wirelength recompute, direct use of
legalizer internals) as the baseline for
``benchmarks/bench_perf_legalize.py``'s speedup gate and as an
independent oracle for the rewritten :mod:`repro.core.detailed`.

Do not optimise this file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PlacerConfig
from repro.core.detailed import DetailedPlaceStats
from repro.core.legalizer import Legalizer
from repro.core.preprocess import PlacementProblem
from repro.core.wirelength import hpwl


class DetailedPlacer:
    """Greedy legality-preserving refinement over a legalized layout."""

    def __init__(self, problem: PlacementProblem,
                 config: Optional[PlacerConfig] = None) -> None:
        self.problem = problem
        self.config = config if config is not None else problem.config
        self._nets_by_instance: Dict[int, List[int]] = {}
        for net_idx, (a, b) in enumerate(problem.nets):
            self._nets_by_instance.setdefault(int(a), []).append(net_idx)
            self._nets_by_instance.setdefault(int(b), []).append(net_idx)
        # Net partners per instance: all 2-pin nets of instance i reduce
        # to |pos[i] - pos[partner]|, so wirelength sums vectorize over
        # one int array per instance.
        self._partners: Dict[int, np.ndarray] = {}
        for inst, net_ids in self._nets_by_instance.items():
            self._partners[inst] = np.array(
                [int(problem.nets[k, 1]) if int(problem.nets[k, 0]) == inst
                 else int(problem.nets[k, 0]) for k in net_ids],
                dtype=np.int64)
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

    def _pair_wl(self, positions: np.ndarray, i: int, j: int) -> float:
        """Combined wirelength of the nets of two instances.

        Shared nets are counted twice on both sides of a comparison, so
        deltas stay correct.
        """
        return self._instance_wl(positions, i) + self._instance_wl(positions, j)

    def _swap_gain(self, positions: np.ndarray, i: int, j: int) -> float:
        """Wirelength gain of swapping the sites of ``i`` and ``j``.

        Evaluates the same quantity as ``_pair_wl(before) -
        _pair_wl(after-swap)`` without materialising a swapped copy of
        the position array.
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

    # -- feasibility --------------------------------------------------------------

    def _feasible(self, legalizer: Legalizer,
                  moves: Sequence[Tuple[int, Tuple[float, float]]]) -> bool:
        """Try a batch of moves under the legalizer's spacing rule.

        On success the instances are left at their new sites (hash and
        positions updated); on any failure the original state is fully
        restored and False is returned.
        """
        originals = [(i, tuple(legalizer.positions[i])) for i, _ in moves]

        def restore() -> None:
            for i, _ in moves:
                if i in legalizer._placed:
                    legalizer._unplace(i)
            for i, (x, y) in originals:
                legalizer._place(i, x, y)

        for i, _ in moves:
            legalizer._unplace(i)
        for i, (x, y) in moves:
            if not legalizer._can_place(i, x, y):
                restore()
                return False
            legalizer._place(i, x, y)
        # Contiguity guard for every affected resonator.
        by_res = legalizer._segments_by_resonator()
        for i, _ in moves:
            r = int(self.problem.resonator_index[i])
            if r >= 0 and len(by_res[r]) > 1:
                if len(legalizer._clusters(by_res[r])) > 1:
                    restore()
                    return False
        return True

    # -- main loop ----------------------------------------------------------------

    def refine(self, positions: np.ndarray,
               max_passes: int = 3,
               neighbor_radius_mm: float = 1.5
               ) -> Tuple[np.ndarray, DetailedPlaceStats]:
        """Refine a legal placement; returns (positions, stats).

        Args:
            positions: Legalized instance centres.
            max_passes: Sweeps over all instances.
            neighbor_radius_mm: Swap-partner search radius.
        """
        p = self.problem
        legalizer = Legalizer(p, self.config)
        legalizer.positions = positions.copy()
        for i in range(p.num_instances):
            legalizer._place(i, positions[i, 0], positions[i, 1])

        stats = DetailedPlaceStats(hpwl_before=hpwl(positions, p.nets))
        kind_id = self._kind_id

        for _ in range(max_passes):
            stats.passes += 1
            improved = False
            wl_all = np.array([self._instance_wl(legalizer.positions, i)
                               for i in range(p.num_instances)])
            order = np.argsort(-wl_all, kind="stable")
            for i in order:
                i = int(i)
                xi, yi = legalizer.positions[i]
                best_gain = 1e-9
                best_partner = None
                for j in legalizer._grid.near_array(
                        xi, yi, neighbor_radius_mm).tolist():
                    if j == i or kind_id[j] != kind_id[i]:
                        continue
                    gain = self._swap_gain(legalizer.positions, i, j)
                    if gain > best_gain:
                        best_gain = gain
                        best_partner = j
                if best_partner is None:
                    continue
                j = best_partner
                pos_i = tuple(legalizer.positions[i])
                pos_j = tuple(legalizer.positions[j])
                # _feasible leaves the pair at the new sites on success
                # and fully restores the old state on failure.
                if self._feasible(legalizer, [(i, pos_j), (j, pos_i)]):
                    stats.swaps_applied += 1
                    improved = True
            if not improved:
                break

        stats.hpwl_after = hpwl(legalizer.positions, p.nets)
        return legalizer.positions.copy(), stats


def refine_placement(problem: PlacementProblem, positions: np.ndarray,
                     config: Optional[PlacerConfig] = None,
                     max_passes: int = 3
                     ) -> Tuple[np.ndarray, DetailedPlaceStats]:
    """Convenience wrapper around :class:`DetailedPlacer`."""
    return DetailedPlacer(problem, config).refine(positions,
                                                  max_passes=max_passes)
