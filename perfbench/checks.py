"""Output checks that do not rely on the code they check.

The placement-legality check of the program itself
(:func:`repro.ensembles.check_layout_legal`) builds all-pairs arrays, so
it is used on the paper tiers only; :func:`count_overlaps` is the
benchmark's own sweep, linear in the number of instances per x-strip.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np


def count_overlaps(centers: np.ndarray, sizes: np.ndarray,
                   tol: float = 1e-9) -> int:
    """Number of instance pairs whose rectangular footprints overlap.

    Sorts instances by x and compares each one with the followers whose
    centres lie within the widest footprint, one vectorized offset at a
    time.  Touching edges (within ``tol``) do not count.
    """
    centers = np.asarray(centers, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    n = centers.shape[0]
    if n < 2:
        return 0
    order = np.argsort(centers[:, 0], kind="stable")
    x, y = centers[order, 0], centers[order, 1]
    w, h = sizes[order, 0], sizes[order, 1]
    reach = np.searchsorted(x, x + float(w.max()), side="right") \
        - np.arange(n)
    overlaps = 0
    for k in range(1, int(reach.max())):
        i = np.flatnonzero(reach[:n - k] > k)
        if i.size == 0:
            break
        j = i + k
        dx = np.abs(x[j] - x[i]) - 0.5 * (w[i] + w[j])
        dy = np.abs(y[j] - y[i]) - 0.5 * (h[i] + h[j])
        overlaps += int(((dx < -tol) & (dy < -tol)).sum())
    return overlaps


def off_coupling_gates(q0: np.ndarray, q1: np.ndarray,
                       edges: Iterable[Tuple[int, int]],
                       num_qubits: int) -> int:
    """Two-qubit gates (``q1 >= 0``) that act on no coupling-map edge."""
    adjacent = np.zeros((num_qubits, num_qubits), dtype=bool)
    for a, b in edges:
        adjacent[a, b] = adjacent[b, a] = True
    q0 = np.asarray(q0, dtype=np.int64)
    q1 = np.asarray(q1, dtype=np.int64)
    two = q1 >= 0
    return int((~adjacent[q0[two], q1[two]]).sum())
