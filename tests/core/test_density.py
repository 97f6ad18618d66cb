"""Unit tests for the electrostatic density field."""

import numpy as np
import pytest

from repro.core.density import DensityGrid
from repro.devices.geometry import Rect


def make_grid(num_instances=2, size=0.5, region_side=8.0, bins=16,
              target=1.0):
    sizes = np.full((num_instances, 2), size)
    return DensityGrid(Rect(0, 0, region_side, region_side), bins, sizes,
                       target_density=target)


class TestRasterize:
    def test_total_area_conserved(self):
        grid = make_grid(3, size=0.7)
        positions = np.array([[2.0, 2.0], [5.1, 4.3], [6.2, 6.7]])
        rho = grid.rasterize(positions)
        assert rho.sum() == pytest.approx(3 * 0.7 * 0.7, rel=1e-9)

    def test_aligned_instance_fills_bins(self):
        grid = make_grid(1, size=0.5, region_side=8.0, bins=16)  # bin 0.5
        rho = grid.rasterize(np.array([[2.25, 2.25]]))  # exactly bin (4,4)
        assert rho[4, 4] == pytest.approx(0.25)
        assert rho.sum() == pytest.approx(0.25)

    def test_straddling_instance_splits(self):
        grid = make_grid(1, size=0.5, region_side=8.0, bins=16)
        rho = grid.rasterize(np.array([[2.5, 2.25]]))  # split across x bins
        assert rho[4, 4] == pytest.approx(0.125)
        assert rho[5, 4] == pytest.approx(0.125)

    def test_mixed_sizes_grouped(self):
        sizes = np.array([[0.5, 0.5], [1.0, 1.0], [0.5, 0.5]])
        grid = DensityGrid(Rect(0, 0, 8, 8), 16, sizes)
        rho = grid.rasterize(np.array([[2, 2], [5, 5], [6.5, 2]], float))
        assert rho.sum() == pytest.approx(0.25 + 1.0 + 0.25)


class TestPoisson:
    def test_solver_satisfies_discrete_poisson(self):
        grid = make_grid(2, size=0.5)
        rho = grid.rasterize(np.array([[3.0, 3.0], [5.0, 5.0]]))
        rho_centered = rho - rho.mean()
        psi = grid.solve_potential(rho_centered)
        # Interior discrete Laplacian must equal -rho (Neumann boundary).
        lap = np.zeros_like(psi)
        lap[1:-1, 1:-1] = (
            (psi[2:, 1:-1] - 2 * psi[1:-1, 1:-1] + psi[:-2, 1:-1])
            / grid.bin_w ** 2
            + (psi[1:-1, 2:] - 2 * psi[1:-1, 1:-1] + psi[1:-1, :-2])
            / grid.bin_h ** 2)
        assert np.allclose(lap[2:-2, 2:-2], -rho_centered[2:-2, 2:-2],
                           atol=1e-8)

    def test_potential_peaks_at_density_peak(self):
        grid = make_grid(1, size=1.0)
        rho = grid.rasterize(np.array([[4.0, 4.0]]))
        psi = grid.solve_potential(rho - rho.mean())
        peak = np.unravel_index(np.argmax(psi), psi.shape)
        assert abs(peak[0] - 8) <= 1 and abs(peak[1] - 8) <= 1


class TestEvaluate:
    def test_gradient_pushes_overlapping_apart(self):
        grid = make_grid(2, size=1.0)
        positions = np.array([[4.0, 4.0], [4.5, 4.0]])  # heavy overlap
        result = grid.evaluate(positions)
        # Descent (-grad) must separate: left instance moves left (-x),
        # right instance moves right (+x).
        assert -result.grad[0, 0] < 0
        assert -result.grad[1, 0] > 0

    def test_overflow_zero_when_spread(self):
        grid = make_grid(2, size=0.4, region_side=8.0, bins=16)
        result = grid.evaluate(np.array([[2.0, 2.0], [6.0, 6.0]]))
        # bin area 0.25, instance area 0.16 < capacity: no overflow even
        # if an instance straddles bins.
        assert result.overflow < 0.35

    def test_overflow_positive_when_stacked(self):
        grid = make_grid(4, size=1.0)
        positions = np.tile([[4.0, 4.0]], (4, 1))
        result = grid.evaluate(positions)
        assert result.overflow > 0.5

    def test_energy_decreases_when_spreading(self):
        grid = make_grid(2, size=1.0)
        stacked = grid.evaluate(np.array([[4.0, 4.0], [4.2, 4.0]]))
        spread = grid.evaluate(np.array([[2.0, 2.0], [6.0, 6.0]]))
        assert spread.energy < stacked.energy

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityGrid(Rect(0, 0, 8, 8), 2, np.ones((1, 2)))


class TestIncrementalEvaluate:
    """ISSUE 6: incremental density updates vs the dense recompute."""

    def _walk(self, rng, positions, scale=0.3):
        return positions + rng.normal(0.0, scale, size=positions.shape)

    def test_flush_every_call_is_bit_identical_to_dense(self):
        rng = np.random.default_rng(0)
        dense = make_grid(12, size=0.6)
        inc = make_grid(12, size=0.6)
        positions = rng.uniform(1, 7, size=(12, 2))
        for _ in range(6):
            a = dense.evaluate(positions)
            b = inc.evaluate_incremental(positions, 0.0, flush=True)
            assert np.array_equal(a.grad, b.grad)
            assert a.energy == b.energy and a.overflow == b.overflow
            positions = np.clip(self._walk(rng, positions), 0.4, 7.6)

    def test_zero_threshold_tracks_dense_between_flushes(self):
        """Every nonzero move rescatters, so the incremental map stays
        within float drift of a fresh rasterise without any flush."""
        rng = np.random.default_rng(1)
        grid = make_grid(10, size=0.5)
        positions = rng.uniform(1, 7, size=(10, 2))
        grid.evaluate_incremental(positions, 0.0)
        for _ in range(8):
            positions = np.clip(self._walk(rng, positions), 0.4, 7.6)
            result = grid.evaluate_incremental(positions, 0.0)
            fresh = grid.rasterize(positions)
            assert np.abs(grid._inc_rho - fresh).max() < 1e-10
            assert result.energy == pytest.approx(
                grid.evaluate(positions).energy, rel=1e-12)

    def test_threshold_keeps_stale_charge_for_small_moves(self):
        grid = make_grid(2, size=0.5)
        positions = np.array([[2.0, 2.0], [6.0, 6.0]])
        grid.evaluate_incremental(positions, 0.05)
        nudged = positions + 0.01  # below the 0.05 threshold
        grid.evaluate_incremental(nudged, 0.05)
        assert grid.inc_rescattered == 0  # stale charge kept
        moved = positions + np.array([[1.0, 0.0], [0.0, 0.0]])
        grid.evaluate_incremental(moved, 0.05)
        assert grid.inc_rescattered == 1  # only the displaced instance

    def test_flush_checkpoint_detects_corruption(self):
        """The divergence assertion is live: a corrupted map trips it."""
        rng = np.random.default_rng(2)
        grid = make_grid(6, size=0.5)
        positions = rng.uniform(1, 7, size=(6, 2))
        grid.evaluate_incremental(positions, 0.0)
        grid._inc_rho = grid._inc_rho + 1.0  # bookkeeping bug, simulated
        with pytest.raises(AssertionError, match="diverged"):
            grid.evaluate_incremental(positions, 0.0, flush=True)

    def test_flush_tolerance_covers_threshold_staleness(self):
        """Stale charge from sub-threshold moves must NOT trip a flush."""
        rng = np.random.default_rng(3)
        grid = make_grid(8, size=0.5)
        positions = rng.uniform(1, 7, size=(8, 2))
        grid.evaluate_incremental(positions, 0.2)
        for _ in range(5):
            positions = positions + rng.uniform(-0.15, 0.15,
                                                size=positions.shape)
            positions = np.clip(positions, 0.4, 7.6)
            grid.evaluate_incremental(positions, 0.2)
        grid.evaluate_incremental(positions, 0.2, flush=True)  # no raise
        assert grid.inc_flushes == 2  # seed + explicit

    def test_telemetry_counters(self):
        rng = np.random.default_rng(4)
        grid = make_grid(5, size=0.5)
        positions = rng.uniform(1, 7, size=(5, 2))
        grid.evaluate_incremental(positions, 0.0, flush=True)  # seed
        positions = positions + 0.3
        grid.evaluate_incremental(positions, 0.0)
        assert grid.inc_flushes == 1
        assert grid.inc_rescattered == 5
        assert grid.inc_max_flush_error >= 0.0


# -- reference oracle: the two-window formulation ----------------------------
#
# Separate windows for the charge scatter and the field gather, computed
# per axis in instance-major order with 2-D fancy indexing.  The grid's
# shared-window kernels must reproduce it bit for bit.

def _ref_groups(grid):
    seen = {}
    for i, (w, h) in enumerate(grid.sizes):
        seen.setdefault((round(w, 9), round(h, 9)), []).append(i)
    return [(np.array(idxs, dtype=np.int64),
             int(np.ceil(w / grid.bin_w)) + 1,
             int(np.ceil(h / grid.bin_h)) + 1)
            for (w, h), idxs in sorted(seen.items())]


def _ref_window(grid, idxs, positions, win_x, win_y):
    half = grid.sizes[idxs] / 2.0
    x1 = positions[idxs, 0] - half[:, 0] - grid.region.x
    y1 = positions[idxs, 1] - half[:, 1] - grid.region.y
    x2 = x1 + grid.sizes[idxs, 0]
    y2 = y1 + grid.sizes[idxs, 1]
    ix0 = np.floor(x1 / grid.bin_w).astype(np.int64)
    iy0 = np.floor(y1 / grid.bin_h).astype(np.int64)
    cols = ix0[:, None] + np.arange(win_x)[None, :]
    rows = iy0[:, None] + np.arange(win_y)[None, :]
    edge_x = cols * grid.bin_w
    edge_y = rows * grid.bin_h
    ox = np.clip(np.minimum(x2[:, None], edge_x + grid.bin_w)
                 - np.maximum(x1[:, None], edge_x), 0.0, None)
    oy = np.clip(np.minimum(y2[:, None], edge_y + grid.bin_h)
                 - np.maximum(y1[:, None], edge_y), 0.0, None)
    cols = np.clip(cols, 0, grid.num_bins - 1)
    rows = np.clip(rows, 0, grid.num_bins - 1)
    return cols, rows, ox, oy


def _ref_scatter_stream(grid, positions, subset=None):
    flat_parts, weight_parts = [], []
    for idxs, win_x, win_y in _ref_groups(grid):
        if subset is not None:
            idxs = idxs[subset[idxs]]
            if not idxs.size:
                continue
        cols, rows, ox, oy = _ref_window(grid, idxs, positions, win_x, win_y)
        flat_parts.append(
            (cols[:, :, None] * grid.num_bins + rows[:, None, :]).ravel())
        weight_parts.append((ox[:, :, None] * oy[:, None, :]).ravel())
    return np.concatenate(flat_parts), np.concatenate(weight_parts)


def _ref_rasterize(grid, positions):
    flat, weights = _ref_scatter_stream(grid, positions)
    rho = np.bincount(flat, weights=weights,
                      minlength=grid.num_bins * grid.num_bins)
    return rho.reshape(grid.num_bins, grid.num_bins)


def _ref_evaluate_at(grid, rho, positions):
    psi = grid.solve_potential(rho)
    dpsi_dx, dpsi_dy = np.gradient(psi, grid.bin_w, grid.bin_h)
    energy = float((rho * psi).sum())
    grad = np.zeros_like(positions)
    for idxs, win_x, win_y in _ref_groups(grid):
        cols, rows, ox, oy = _ref_window(grid, idxs, positions, win_x, win_y)
        weights = ox[:, :, None] * oy[:, None, :]
        gx = dpsi_dx[cols[:, :, None], rows[:, None, :]]
        gy = dpsi_dy[cols[:, :, None], rows[:, None, :]]
        grad[idxs, 0] = (weights * gx).sum(axis=(1, 2))
        grad[idxs, 1] = (weights * gy).sum(axis=(1, 2))
    capacity = grid.bin_area * grid.target_density
    total_area = float(grid.instance_area.sum())
    overflow = float(np.clip(rho - capacity, 0.0, None).sum()
                     / max(total_area, 1e-12))
    return energy, grad, overflow


def _assert_matches_reference(result, rho, grid, positions):
    energy, grad, overflow = _ref_evaluate_at(grid, rho, positions)
    assert result.density.tobytes() == rho.tobytes()
    assert result.energy == energy
    assert result.overflow == overflow
    assert result.grad.tobytes() == np.ascontiguousarray(grad).tobytes()


def _mixed_grid(rng, n=60, bins=32):
    """Four footprints, two of them sharing a window shape and two
    with non-square windows; the region does not start at the origin."""
    footprints = np.array([[0.5, 0.5], [0.9, 0.4], [0.55, 0.55],
                           [1.6, 0.7]])
    sizes = footprints[rng.integers(0, len(footprints), size=n)]
    region = Rect(-3.0, 1.5, 12.0, 9.0)
    return DensityGrid(region, bins, sizes, target_density=0.9)


def _positions_in(rng, grid, n, overhang=0.6):
    """Centres spread over (and slightly past) the region."""
    r = grid.region
    xs = rng.uniform(r.x - overhang, r.x2 + overhang, size=n)
    ys = rng.uniform(r.y - overhang, r.y2 + overhang, size=n)
    return np.stack([xs, ys], axis=1)


class TestSharedWindowsMatchReference:
    """Shared scatter/gather windows against the two-window original."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rasterize_and_evaluate(self, seed):
        rng = np.random.default_rng(seed)
        grid = _mixed_grid(rng)
        for _ in range(3):
            positions = _positions_in(rng, grid, 60)
            rho = _ref_rasterize(grid, positions)
            assert grid.rasterize(positions).tobytes() == rho.tobytes()
            _assert_matches_reference(grid.evaluate(positions), rho,
                                      grid, positions)

    def test_stacked_instances(self):
        grid = make_grid(8, size=0.6)
        positions = np.tile([[4.0, 4.0]], (8, 1))
        rho = _ref_rasterize(grid, positions)
        _assert_matches_reference(grid.evaluate(positions), rho,
                                  grid, positions)

    def test_non_contiguous_positions(self):
        rng = np.random.default_rng(3)
        grid = _mixed_grid(rng, n=40)
        wide = np.concatenate([_positions_in(rng, grid, 40),
                               _positions_in(rng, grid, 40)], axis=1)
        for positions in (wide[:, ::2], np.asfortranarray(wide[:, :2]),
                          _positions_in(rng, grid, 80)[::2]):
            assert not positions.flags.c_contiguous
            rho = _ref_rasterize(grid, positions)
            _assert_matches_reference(grid.evaluate(positions), rho,
                                      grid, positions)

    def test_successive_evaluations_return_distinct_grads(self):
        rng = np.random.default_rng(4)
        grid = _mixed_grid(rng, n=30)
        p1 = _positions_in(rng, grid, 30)
        p2 = _positions_in(rng, grid, 30)
        first = grid.evaluate(p1)
        snapshot = first.grad.copy()
        second = grid.evaluate(p2)
        assert not np.shares_memory(first.grad, second.grad)
        assert np.array_equal(first.grad, snapshot)

    def test_incremental_flush_and_updates(self):
        """Every incremental call (seed, rescatter updates, flushes)
        matches the original bookkeeping applied to the same moves."""
        rng = np.random.default_rng(5)
        grid = _mixed_grid(rng, n=50)
        threshold = 0.15
        positions = _positions_in(rng, grid, 50, overhang=0.0)
        result = grid.evaluate_incremental(positions, threshold)
        ref_rho = _ref_rasterize(grid, positions)
        ref_pos = positions.copy()
        _assert_matches_reference(result, ref_rho, grid, positions)
        for step in range(1, 9):
            positions = positions + rng.normal(0.0, 0.2,
                                               size=positions.shape)
            flush = step % 3 == 0
            result = grid.evaluate_incremental(positions, threshold,
                                               flush=flush)
            delta = np.abs(positions - ref_pos)
            moved = (delta[:, 0] > threshold) | (delta[:, 1] > threshold)
            if moved.any():
                flat_old, w_old = _ref_scatter_stream(grid, ref_pos, moved)
                flat_new, w_new = _ref_scatter_stream(grid, positions, moved)
                update = np.bincount(
                    np.concatenate([flat_old, flat_new]),
                    weights=np.concatenate([-w_old, w_new]),
                    minlength=grid.num_bins ** 2)
                ref_rho = ref_rho + update.reshape(grid.num_bins,
                                                   grid.num_bins)
                ref_pos[moved] = positions[moved]
            if flush:
                ref_rho = _ref_rasterize(grid, positions)
                ref_pos = positions.copy()
            _assert_matches_reference(result, ref_rho, grid, positions)
        assert grid.inc_flushes == 3
