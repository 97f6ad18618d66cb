"""Frequency repulsive force (Eqs. 9-10, the paper's core novelty).

Instances that share (near-)resonant frequencies repel each other like
equal charges.  Eq. (9) prescribes a force of magnitude ``1/d^2`` on
every colliding pair, i.e. the pairwise potential

``U(i, j) = tau(w_i, w_j, Delta_c) * (1 - delta(r_i, r_j)) / d_ij``

softened as ``1/sqrt(d^2 + s^2)`` so coincident points stay finite.  The
pairs (which already exclude sibling segments and non-resonant pairs)
come from the engine's neighbor list over the collision map of
:mod:`repro.core.preprocess`, so each evaluation only touches the
colliding pairs — never all-to-all.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np


class FrequencyForce:
    """Eq. (9) repulsion kernel bound to one collision-pair set.

    The optimizer evaluates the force every iteration over the same
    pairs (one neighbor-list lifetime: the whole run when the list is
    static), so everything that depends only on the
    pairs is built once: the concatenated scatter index ``idx`` (with
    the pair columns ``a``/``b`` as views into it), and one allocation
    split into a ``3 x m`` scratch block and a ``2m`` weight buffer.
    Each call gathers the x and y columns with 1-D ``take`` and runs the
    arithmetic through in-place ufuncs in the same operation order as
    the textbook ``positions[a] - positions[b]`` formulation, so energy
    and gradient are bit-for-bit those of that formulation without its
    temporaries.

    Args:
        collision_pairs: ``(m, 2)`` resonant pairs.
    """

    def __init__(self, collision_pairs: np.ndarray) -> None:
        pairs = np.asarray(collision_pairs)
        m = pairs.shape[0] if pairs.size else 0
        self.idx = (np.concatenate([pairs[:, 0], pairs[:, 1]]) if m
                    else np.zeros(0, dtype=np.int64))
        if m and int(self.idx.min()) < 0:
            raise ValueError("collision pairs must be non-negative indices")
        self.a = self.idx[:m]
        self.b = self.idx[m:]
        self._bound = int(self.idx.max()) + 1 if m else 0
        block = np.empty(5 * m)
        self._scratch = block[:3 * m].reshape(3, m)
        self._w = block[3 * m:]

    def __len__(self) -> int:
        return self.a.shape[0]

    def __call__(self, positions: np.ndarray,
                 smoothing_mm: float) -> Tuple[float, np.ndarray]:
        """Total repulsive potential and its ``(n, 2)`` gradient."""
        if smoothing_mm <= 0:
            raise ValueError("smoothing length must be positive")
        positions = np.asarray(positions, dtype=float)
        n = positions.shape[0]
        grad = np.zeros((n, 2))
        m = len(self)
        if m == 0:
            return 0.0, grad
        if n < self._bound:
            raise IndexError(f"collision pairs reference instance "
                             f"{self._bound - 1} of only {n}")
        a, b, w = self.a, self.b, self._w
        dx, dy, dist2 = self._scratch
        lo, hi = w[:m], w[m:]
        # "clip" never triggers (indices were bounds-checked above) and,
        # unlike the default "raise", writes into ``out`` unbuffered.
        for col, d in ((positions[:, 0], dx), (positions[:, 1], dy)):
            np.take(col, a, out=d, mode="clip")
            np.subtract(d, np.take(col, b, out=lo, mode="clip"), out=d)
        np.multiply(dx, dx, out=dist2)
        np.add(dist2, np.multiply(dy, dy, out=lo), out=dist2)
        np.add(dist2, smoothing_mm * smoothing_mm, out=dist2)
        inv = np.sqrt(dist2, out=hi)
        np.divide(1.0, inv, out=inv)
        energy = float(inv.sum())
        # dU/dp_a = -delta / (d^2 + s^2)^(3/2)  (repulsion: -grad pushes
        # apart); ``dist2`` becomes the per-pair coefficient inv / dist2.
        coef = np.divide(inv, dist2, out=dist2)
        # One bincount over the concatenated (a, b) index stream
        # scatter-adds in the same sequential order as an np.add.at
        # pair, bit for bit, while running an order of magnitude faster.
        for axis, d in ((0, dx), (1, dy)):
            np.multiply(d, coef, out=d)
            np.negative(d, out=lo)
            hi[:] = d
            grad[:, axis] = np.bincount(self.idx, weights=w, minlength=n)
        return energy, grad


def frequency_energy_and_grad(positions: np.ndarray,
                              collision_pairs: Union[np.ndarray,
                                                     FrequencyForce],
                              smoothing_mm: float
                              ) -> Tuple[float, np.ndarray]:
    """Total repulsive potential and its gradient.

    Args:
        positions: ``(n, 2)`` instance centres.
        collision_pairs: ``(p, 2)`` precomputed resonant pairs, or a
            :class:`FrequencyForce` already bound to them — the global
            placer passes its long-lived kernel here, so every force
            evaluation of a run goes through this one entry point.
        smoothing_mm: Softening length ``s`` (mm).

    Returns:
        ``(energy, grad)`` with ``grad`` shaped ``(n, 2)``.
    """
    kernel = (collision_pairs if isinstance(collision_pairs, FrequencyForce)
              else FrequencyForce(collision_pairs))
    return kernel(positions, smoothing_mm)


def repulsion_force_magnitude(distance_mm: np.ndarray,
                              smoothing_mm: float) -> np.ndarray:
    """Force magnitude ``d / (d^2 + s^2)^(3/2)`` (≈ 1/d^2 for d >> s).

    Exposed for tests and the physics benches: verifies the Eq. (9)
    inverse-square behaviour away from the softened core.
    """
    d = np.asarray(distance_mm, dtype=float)
    return d / np.power(d * d + smoothing_mm * smoothing_mm, 1.5)


def resonant_pair_distances(positions: np.ndarray,
                            collision_pairs: np.ndarray) -> np.ndarray:
    """Euclidean centre distances of every colliding pair (diagnostics)."""
    if collision_pairs.size == 0:
        return np.zeros(0)
    delta = positions[collision_pairs[:, 0]] - positions[collision_pairs[:, 1]]
    return np.sqrt((delta * delta).sum(axis=1))
