"""Unit tests for the frequency repulsive force (Eqs. 9-10)."""

import numpy as np
import pytest

from repro.core.frequency_force import (
    FrequencyForce,
    frequency_energy_and_grad,
    repulsion_force_magnitude,
    resonant_pair_distances,
)


class TestEnergy:
    def test_energy_decreases_with_distance(self):
        pairs = np.array([[0, 1]])
        near = frequency_energy_and_grad(
            np.array([[0.0, 0.0], [0.5, 0.0]]), pairs, 0.1)[0]
        far = frequency_energy_and_grad(
            np.array([[0.0, 0.0], [5.0, 0.0]]), pairs, 0.1)[0]
        assert near > far

    def test_finite_at_coincidence(self):
        pairs = np.array([[0, 1]])
        energy, grad = frequency_energy_and_grad(
            np.zeros((2, 2)), pairs, 0.3)
        assert np.isfinite(energy)
        assert np.all(np.isfinite(grad))

    def test_no_pairs(self):
        energy, grad = frequency_energy_and_grad(
            np.zeros((3, 2)), np.zeros((0, 2), dtype=int), 0.3)
        assert energy == 0.0
        assert np.allclose(grad, 0.0)

    def test_smoothing_validation(self):
        with pytest.raises(ValueError):
            frequency_energy_and_grad(np.zeros((2, 2)),
                                      np.array([[0, 1]]), 0.0)


class TestGradient:
    def test_repulsion_direction(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        pairs = np.array([[0, 1]])
        _, grad = frequency_energy_and_grad(positions, pairs, 0.1)
        # Descent direction -grad pushes 0 left and 1 right: apart.
        assert -grad[0, 0] < 0
        assert -grad[1, 0] > 0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        positions = rng.normal(size=(5, 2)) * 2.0
        pairs = np.array([[0, 1], [1, 2], [0, 3], [3, 4]])
        s = 0.3
        _, grad = frequency_energy_and_grad(positions, pairs, s)
        eps = 1e-6
        for i in range(5):
            for dim in range(2):
                plus = positions.copy()
                plus[i, dim] += eps
                minus = positions.copy()
                minus[i, dim] -= eps
                numeric = (frequency_energy_and_grad(plus, pairs, s)[0]
                           - frequency_energy_and_grad(minus, pairs, s)[0]) \
                    / (2 * eps)
                assert grad[i, dim] == pytest.approx(numeric, abs=1e-5)

    def test_only_listed_pairs_interact(self):
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.4]])
        pairs = np.array([[0, 1]])
        _, grad = frequency_energy_and_grad(positions, pairs, 0.1)
        assert np.allclose(grad[2], 0.0)


class TestForceMagnitude:
    def test_inverse_square_far_field(self):
        s = 0.1
        d = np.array([2.0, 4.0])
        f = repulsion_force_magnitude(d, s)
        # Doubling the distance quarters the force (Eq. 9).
        assert f[0] / f[1] == pytest.approx(4.0, rel=0.02)

    def test_softened_core(self):
        f0 = repulsion_force_magnitude(np.array([0.0]), 0.3)
        assert f0[0] == 0.0  # symmetric softening: no force at the core


class TestDiagnostics:
    def test_pair_distances(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = resonant_pair_distances(positions, np.array([[0, 1]]))
        assert d[0] == pytest.approx(5.0)

    def test_empty(self):
        assert resonant_pair_distances(np.zeros((2, 2)),
                                       np.zeros((0, 2), dtype=int)).size == 0


def _reference_energy_and_grad(positions, collision_pairs, smoothing_mm):
    """The textbook formulation the kernel must reproduce bit for bit:
    row-pair fancy gather, axis-1 sum, fresh temporaries per call."""
    grad = np.zeros_like(positions)
    if collision_pairs.size == 0:
        return 0.0, grad
    a = collision_pairs[:, 0]
    b = collision_pairs[:, 1]
    delta = positions[a] - positions[b]
    dist2 = (delta * delta).sum(axis=1) + smoothing_mm * smoothing_mm
    inv = 1.0 / np.sqrt(dist2)
    energy = float(inv.sum())
    n = positions.shape[0]
    force = delta * (inv / dist2)[:, None]
    idx = np.concatenate([a, b])
    m = a.shape[0]
    w = np.empty(2 * m)
    for axis in (0, 1):
        np.negative(force[:, axis], out=w[:m])
        w[m:] = force[:, axis]
        grad[:, axis] = np.bincount(idx, weights=w, minlength=n)
    return energy, grad


def _random_pairs(rng, n, m):
    a = rng.integers(0, n, size=m)
    b = rng.integers(0, n, size=m)
    keep = a != b
    return np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)[keep]


class TestFrequencyForceKernel:
    """The buffered kernel against the textbook formulation."""

    def _assert_identical(self, positions, pairs, s, kernel=None):
        e_ref, g_ref = _reference_energy_and_grad(positions, pairs, s)
        kernel = kernel if kernel is not None else FrequencyForce(pairs)
        e, g = frequency_energy_and_grad(positions, kernel, s)
        assert e == e_ref
        assert g.shape == g_ref.shape
        assert g.tobytes() == np.ascontiguousarray(g_ref).tobytes()

    @pytest.mark.parametrize("m", [0, 1, 7, 500, 5000])
    def test_random_pair_sets(self, m):
        rng = np.random.default_rng(m)
        positions = rng.uniform(0, 20, size=(300, 2))
        pairs = _random_pairs(rng, 300, m)
        for s in (0.05, 0.3, 2.0):
            self._assert_identical(positions, pairs, s)

    def test_empty_pair_set(self):
        kernel = FrequencyForce(np.zeros((0, 2), dtype=np.int64))
        assert len(kernel) == 0
        energy, grad = kernel(np.ones((4, 2)), 0.3)
        assert energy == 0.0
        assert grad.shape == (4, 2) and not grad.any()

    def test_single_pair(self):
        positions = np.array([[0.0, 0.0], [1.25, -0.5], [3.0, 3.0]])
        self._assert_identical(positions, np.array([[0, 1]]), 0.1)

    def test_repeated_indices(self):
        """Duplicate pairs and hub instances: scatter order matters."""
        rng = np.random.default_rng(5)
        positions = rng.normal(size=(6, 2))
        pairs = np.array([[0, 1], [0, 1], [0, 2], [0, 3], [0, 4],
                          [0, 5], [1, 2], [0, 1], [4, 5], [4, 5]])
        self._assert_identical(positions, pairs, 0.2)

    def test_coincident_points(self):
        positions = np.zeros((3, 2))
        self._assert_identical(positions, np.array([[0, 1], [1, 2]]), 0.3)

    def test_non_contiguous_positions(self):
        rng = np.random.default_rng(6)
        pairs = _random_pairs(rng, 200, 2000)
        wide = rng.uniform(0, 15, size=(200, 4))
        strided = wide[:, ::2]
        assert not strided.flags.c_contiguous
        self._assert_identical(strided, pairs, 0.3)
        fortran = np.asfortranarray(rng.uniform(0, 15, size=(200, 2)))
        self._assert_identical(fortran, pairs, 0.3)
        every_other = rng.uniform(0, 15, size=(400, 2))[::2]
        self._assert_identical(every_other, pairs, 0.3)

    def test_kernel_reuse_across_positions(self):
        rng = np.random.default_rng(7)
        pairs = _random_pairs(rng, 120, 900)
        kernel = FrequencyForce(pairs)
        for _ in range(4):
            positions = rng.uniform(0, 10, size=(120, 2))
            self._assert_identical(positions, pairs, 0.25, kernel=kernel)

    def test_successive_calls_return_distinct_grads(self):
        rng = np.random.default_rng(8)
        pairs = _random_pairs(rng, 50, 300)
        kernel = FrequencyForce(pairs)
        p1 = rng.uniform(0, 10, size=(50, 2))
        p2 = rng.uniform(0, 10, size=(50, 2))
        _, g1 = kernel(p1, 0.3)
        snapshot = g1.copy()
        _, g2 = kernel(p2, 0.3)
        assert not np.shares_memory(g1, g2)
        assert np.array_equal(g1, snapshot)
        assert np.array_equal(g2, _reference_energy_and_grad(p2, pairs, 0.3)[1])

    def test_index_stored_once(self):
        pairs = np.array([[0, 1], [2, 3], [1, 3]])
        kernel = FrequencyForce(pairs)
        assert len(kernel) == 3
        assert np.array_equal(kernel.idx, [0, 2, 1, 1, 3, 3])
        assert np.shares_memory(kernel.a, kernel.idx)
        assert np.shares_memory(kernel.b, kernel.idx)

    def test_out_of_range_pairs_rejected(self):
        kernel = FrequencyForce(np.array([[0, 5]]))
        with pytest.raises(IndexError):
            kernel(np.zeros((3, 2)), 0.3)
        with pytest.raises(ValueError):
            FrequencyForce(np.array([[-1, 2]]))
