"""The two-pass legality check and the chip-wide collision map.

:func:`repro.ensembles.repair.check_layout_legal` checks a layout's
three spacing rules in one pass over nearby pairs.  This module keeps
the check as it stood before: a grid pass for the overlap and clearance
rules, then a second pass over the frequency collision map — every
resonant pair on the chip, near or far — for the padding sum, which
applies under a frequency-aware config only.  Intended
adjacency comes from the netlist's resonator endpoints
(:func:`tests.oracles.attached_resonators`), not from the problem's key
columns.

The collision map (:func:`collision_pairs`) is also the oracle of the
engine's static neighbour list
(:class:`~repro.core.interactions.PrunedCollisionPairs` with a reach
covering the region) and of the tests that walk resonant pairs.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.core.interactions import grid_candidate_pairs, sort_pairs
from repro.core.preprocess import PlacementProblem
from repro.ensembles.repair import _pair_gaps

from . import attached_resonators


def collision_map(frequencies: np.ndarray, resonator_index: np.ndarray,
                  threshold: float) -> np.ndarray:
    """Frequency collision map: resonant pairs, sibling segments excluded.

    ``(p, 2)`` int64 ``i < j`` pairs in lexicographic order.  Components
    were assigned frequencies from a discrete comb, so pairs within
    ``threshold`` are found by sorting: for each instance only a short
    run of the frequency-sorted order can collide.  Every sorted
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
    # ``sorted_freqs[b] - fa <= threshold`` (applied below) is always a
    # subset of it.
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


def collision_pairs(problem: PlacementProblem) -> np.ndarray:
    """A problem's collision map (:func:`collision_map`)."""
    return collision_map(problem.frequencies, problem.resonator_index,
                         problem.config.detuning_threshold_ghz)


def intended_mask(problem: PlacementProblem, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Which pairs ``(a[k], b[k])`` may touch, from the netlist.

    Sibling segments, or a qubit and a segment of a resonator attached
    to it: a dense ``qubit instance x resonator`` attachment table,
    gathered per pair.
    """
    res = problem.resonator_index
    attached = attached_resonators(problem)
    width = max([int(res.max(initial=-1)) + 1]
                + [r + 1 for rids in attached.values() for r in rids])
    attach = np.zeros((problem.num_instances, max(width, 1)), dtype=bool)
    for qi, rids in attached.items():
        attach[qi, sorted(rids)] = True
    ra, rb = res[a], res[b]
    return (((ra >= 0) & (ra == rb))
            | ((rb >= 0) & attach[a, np.maximum(rb, 0)])
            | ((ra >= 0) & attach[b, np.maximum(ra, 0)]))


def legality_failures(problem: PlacementProblem, positions: np.ndarray,
                      tol: float = 1e-9, all_pairs: bool = False
                      ) -> Set[str]:
    """Rules of the legality contract a layout breaks (empty: legal).

    ``"overlap"`` and ``"clearance"`` are screened over grid candidates
    within a per-axis reach of ``2 * max(max(w, h) / 2 + clearance /
    2)`` (or, with ``all_pairs``, over every ``i < j`` pair);
    ``"padding"`` over the whole collision map, under a frequency-aware
    config only.
    """
    pos = np.asarray(positions, dtype=float)
    if all_pairs:
        iu, ju = np.triu_indices(problem.num_instances, k=1)
    else:
        reach = 2.0 * float(np.max(0.5 * problem.sizes.max(axis=1)
                                   + 0.5 * problem.clearances,
                                   initial=0.0)) - min(tol, 0.0)
        iu, ju = grid_candidate_pairs(pos, max(reach, 1e-9), sort=False)
    gap = _pair_gaps(problem, pos, iu, ju)
    failures = set()
    if (gap < -tol).any():
        failures.add("overlap")
    intended = intended_mask(problem, iu, ju)
    required = 0.5 * (problem.clearances[iu] + problem.clearances[ju])
    if (gap[~intended] < required[~intended] - tol).any():
        failures.add("clearance")
    pairs = collision_pairs(problem)
    if pairs.size and problem.config.frequency_aware:
        a, b = pairs[:, 0], pairs[:, 1]
        unintended = ~intended_mask(problem, a, b)
        a, b = a[unintended], b[unintended]
        spacing = problem.paddings[a] + problem.paddings[b]
        if (_pair_gaps(problem, pos, a, b) < spacing - 1e-6).any():
            failures.add("padding")
    return failures


def check_layout_legal(problem: PlacementProblem, positions: np.ndarray,
                       tol: float = 1e-9) -> bool:
    """The two-pass legality verdict."""
    pos = np.asarray(positions, dtype=float)
    if pos.shape != (problem.num_instances, 2):
        raise ValueError("position array shape mismatch")
    return not legality_failures(problem, pos, tol)
