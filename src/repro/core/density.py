"""Electrostatic density field (Eq. 11, ePlace formulation [56]).

Instances are rasterised into a uniform bin grid as area "charge".  The
electric potential ``psi`` follows Poisson's equation
``laplace(psi) = -rho`` with Neumann boundaries, solved spectrally with a
type-II discrete cosine transform.  The penalty energy is
``sum_b rho_b psi_b`` and the per-instance gradient is the instance's
bin-overlap-weighted electric field ``-grad(psi)`` — overlapping regions
push instances apart exactly like like charges repel.

Rasterisation is vectorised by *size groups*: the quantum problem has
only two footprints (qubits and segments), so each group processes all
its instances with fixed-size bin windows in pure numpy.  One
evaluation computes every window once and uses it both to scatter the
charge and to gather the field.

The grid optionally maintains the density map *incrementally*
(:meth:`DensityGrid.evaluate_incremental`): between full-rasterise
checkpoints only instances displaced beyond a per-axis threshold have
their old bin charge subtracted and their new charge added.  Each
checkpoint ("flush") re-rasterises from scratch and asserts the
incremental map agrees with the dense recompute to within the staleness
bound, so bookkeeping bugs cannot drift silently; a flush interval of 1
routes every evaluation through :meth:`DensityGrid.rasterize` and is
arithmetically identical to :meth:`DensityGrid.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.fft import dctn, idctn

from ..devices.geometry import Rect

#: One size group's bin windows: ``(idxs, flat, weights)``.
Window = Tuple[np.ndarray, np.ndarray, np.ndarray]


class _Group:
    """Instances rasterised with one ``win_x x win_y`` bin window.

    Holds the per-instance half sizes and sizes as ``(2, g)`` blocks
    (x row, y row) so both axes of a window compute together.
    """

    def __init__(self, idxs: np.ndarray, sizes: np.ndarray,
                 win_x: int, win_y: int) -> None:
        self.idxs = idxs
        self.window = (win_x, win_y)
        self.size = np.ascontiguousarray(sizes[idxs].T)
        self.half = np.ascontiguousarray((sizes[idxs] / 2.0).T)
        self.offsets = np.arange(max(win_x, win_y))[None, :, None]


@dataclass
class DensityResult:
    """One density evaluation.

    Attributes:
        energy: Potential energy ``sum_b rho_b psi_b``.
        grad: ``(n, 2)`` gradient w.r.t. instance centres.
        overflow: Fraction of total instance area exceeding the per-bin
            capacity (the ePlace stopping metric).
        density: The ``(nb, nb)`` bin density map (area per bin).
    """

    energy: float
    grad: np.ndarray
    overflow: float
    density: np.ndarray


class DensityGrid:
    """Bin grid + spectral Poisson solver for one placement region."""

    def __init__(self, region: Rect, num_bins: int, sizes: np.ndarray,
                 target_density: float = 1.0) -> None:
        """Args:
            region: Placement canvas.
            num_bins: Bins per axis.
            sizes: ``(n, 2)`` *inflated* instance footprints used as the
                charge shape (bare size + routing clearance).
            target_density: Bin capacity fraction ``D_hat``.
        """
        if num_bins < 4:
            raise ValueError("need at least 4 bins per axis")
        self.region = region
        self.num_bins = num_bins
        self.sizes = np.asarray(sizes, dtype=float)
        self.target_density = target_density
        self.bin_w = region.w / num_bins
        self.bin_h = region.h / num_bins
        self.bin_area = self.bin_w * self.bin_h
        self.instance_area = np.prod(self.sizes, axis=1)
        # Precompute the DCT Laplacian eigenvalues (Neumann boundary).
        k = np.arange(num_bins)
        wx = 2.0 * (1.0 - np.cos(np.pi * k / num_bins)) / (self.bin_w ** 2)
        wy = 2.0 * (1.0 - np.cos(np.pi * k / num_bins)) / (self.bin_h ** 2)
        denom = wx[:, None] + wy[None, :]
        denom[0, 0] = 1.0  # DC mode removed separately
        self._laplace_denom = denom
        # Group instances by identical footprint for vectorised windows;
        # consecutive footprints with the same window shape share one
        # group (the concatenated charge stream keeps its order).
        self._groups: List[_Group] = []
        seen: Dict[Tuple[float, float], List[int]] = {}
        for i, (w, h) in enumerate(self.sizes):
            seen.setdefault((round(w, 9), round(h, 9)), []).append(i)
        for (w, h), idxs in sorted(seen.items()):
            win_x = int(np.ceil(w / self.bin_w)) + 1
            win_y = int(np.ceil(h / self.bin_h)) + 1
            if self._groups and self._groups[-1].window == (win_x, win_y):
                idxs = self._groups.pop().idxs.tolist() + idxs
            self._groups.append(
                _Group(np.array(idxs, dtype=np.int64), self.sizes,
                       win_x, win_y))
        self._origin = np.array([[region.x], [region.y]])
        self._bin = np.array([[self.bin_w], [self.bin_h]])
        # Incremental-rasterisation state (evaluate_incremental).
        self._inc_rho: Optional[np.ndarray] = None
        self._inc_ref: Optional[np.ndarray] = None
        self._stale_bound = 0.0
        self.inc_flushes = 0
        self.inc_rescattered = 0
        self.inc_max_flush_error = 0.0

    # -- rasterisation ---------------------------------------------------------

    def _windows(self, positions: np.ndarray,
                 subset: Optional[np.ndarray] = None) -> List[Window]:
        """Bin window of every instance (or of the ``subset`` mask).

        Returns one ``(idxs, flat, weights)`` triple per non-empty size
        group: ``flat`` holds the ``(g, win_x, win_y)`` flat bin indices
        of each instance's window (clipped to the grid) and ``weights``
        the matching clipped overlap areas.  The same windows serve the
        charge scatter and the field gather of one evaluation.

        Both axes run as one ``(2, ., g)`` block with the instance axis
        innermost, and only the finished windows are transposed to
        instance-major order; every element is the same single
        operation as in a per-axis, instance-major evaluation.
        """
        nb = self.num_bins
        windows: List[Window] = []
        for group in self._groups:
            idxs, half, size = group.idxs, group.half, group.size
            if subset is not None:
                keep = subset[idxs]
                if not keep.any():
                    continue
                idxs, half, size = idxs[keep], half[:, keep], size[:, keep]
            win_x, win_y = group.window
            lo = positions.T.take(idxs, axis=1) - half
            lo -= self._origin
            hi = lo + size
            start = np.floor(lo / self._bin).astype(np.int64)
            cells = start[:, None, :] + group.offsets
            edge = cells * self._bin[:, :, None]
            overlap = (np.minimum(hi[:, None, :], edge + self._bin[:, :, None])
                       - np.maximum(lo[:, None, :], edge))
            np.maximum(overlap, 0.0, out=overlap)
            np.clip(cells, 0, nb - 1, out=cells)
            cols, rows = cells[0, :win_x], cells[1, :win_y]
            ox, oy = overlap[0, :win_x], overlap[1, :win_y]
            flat = (cols * nb)[:, None, :] + rows[None, :, :]
            weights = ox[:, None, :] * oy[None, :, :]
            windows.append((idxs,
                            np.ascontiguousarray(flat.transpose(2, 0, 1)),
                            np.ascontiguousarray(weights.transpose(2, 0, 1))))
        return windows

    @staticmethod
    def _stream(windows: List[Window]) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated flat bin indices and charge weights."""
        if not windows:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        return (np.concatenate([flat.ravel() for _, flat, _ in windows]),
                np.concatenate([w.ravel() for _, _, w in windows]))

    def _scatter(self, windows: List[Window]) -> np.ndarray:
        """Area-per-bin density map of the given windows."""
        # One bincount over the concatenated index stream scatter-adds in
        # the same sequential order as a per-group np.add.at, bit for
        # bit, while running an order of magnitude faster.
        flat, weights = self._stream(windows)
        rho = np.bincount(flat, weights=weights,
                          minlength=self.num_bins * self.num_bins)
        return rho.reshape(self.num_bins, self.num_bins)

    def rasterize(self, positions: np.ndarray) -> np.ndarray:
        """Area-per-bin density map for the given positions."""
        return self._scatter(self._windows(positions))

    # -- field solve -------------------------------------------------------------

    def solve_potential(self, rho: np.ndarray) -> np.ndarray:
        """Solve ``laplace(psi) = -rho`` with Neumann boundaries via DCT."""
        rho_hat = dctn(rho, type=2, norm="ortho")
        psi_hat = rho_hat / self._laplace_denom
        psi_hat[0, 0] = 0.0
        return idctn(psi_hat, type=2, norm="ortho")

    def evaluate(self, positions: np.ndarray) -> DensityResult:
        """Density energy, gradient, and overflow at ``positions``."""
        windows = self._windows(positions)
        return self._evaluate_at(self._scatter(windows), windows)

    def _evaluate_at(self, rho: np.ndarray,
                     windows: List[Window]) -> DensityResult:
        """Potential solve + gradient gather for a given density map."""
        psi = self.solve_potential(rho)
        # Electric field E = -grad(psi); np.gradient returns d/drow, d/dcol.
        dpsi_dx, dpsi_dy = np.gradient(psi, self.bin_w, self.bin_h)
        energy = float((rho * psi).sum())

        grad = np.zeros((self.sizes.shape[0], 2))
        field_x, field_y = dpsi_dx.ravel(), dpsi_dy.ravel()
        for idxs, flat, weights in windows:
            grad[idxs, 0] = (weights * field_x.take(flat)).sum(axis=(1, 2))
            grad[idxs, 1] = (weights * field_y.take(flat)).sum(axis=(1, 2))

        capacity = self.bin_area * self.target_density
        total_area = float(self.instance_area.sum())
        overflow = float(np.clip(rho - capacity, 0.0, None).sum() / max(total_area, 1e-12))
        return DensityResult(energy=energy, grad=grad,
                             overflow=overflow, density=rho)

    # -- incremental rasterisation ---------------------------------------------

    def _flush_tolerance(self) -> float:
        """Agreement bound of the flush checkpoint.

        Staleness: an instance whose scatter reference lags its true
        position by ``(dx, dy)`` mis-assigns at most
        ``dx*h + dy*w + dx*dy`` of area across the bins it touches.
        On top sits a float-drift allowance for the accumulated
        subtract/add updates — orders of magnitude below any
        bookkeeping bug, which shows up at instance-area scale.
        """
        drift = 1e-7 * max(1.0, float(self.instance_area.sum()))
        if self._inc_ref is None:
            return drift
        return drift + self._stale_bound

    def evaluate_incremental(self, positions: np.ndarray,
                             move_threshold_mm: float = 0.0,
                             flush: bool = False) -> DensityResult:
        """Like :meth:`evaluate`, updating the density map in place.

        Args:
            positions: ``(n, 2)`` instance centres.
            move_threshold_mm: Instances displaced at most this per axis
                since their last scatter keep their stale charge.
            flush: Force a full re-rasterise checkpoint.  The fresh map
                is asserted to agree with the incremental one (within
                the staleness bound) and replaces it.

        Raises:
            AssertionError: a flush found the incremental map diverged
                beyond the staleness bound — an update bookkeeping bug.
        """
        nb2 = self.num_bins * self.num_bins
        windows = self._windows(positions)
        if self._inc_rho is None:
            self._inc_rho = self._scatter(windows)
            self._inc_ref = positions.copy()
            self._stale_bound = 0.0
            self.inc_flushes += 1
            return self._evaluate_at(self._inc_rho, windows)
        delta = np.abs(positions - self._inc_ref)
        if move_threshold_mm > 0:
            moved = ((delta[:, 0] > move_threshold_mm)
                     | (delta[:, 1] > move_threshold_mm))
        else:
            moved = (delta > 0).any(axis=1)
        if moved.any():
            flat_old, w_old = self._stream(self._windows(self._inc_ref, moved))
            flat_new, w_new = self._stream(self._windows(positions, moved))
            update = np.bincount(
                np.concatenate([flat_old, flat_new]),
                weights=np.concatenate([-w_old, w_new]),
                minlength=nb2)
            self._inc_rho = (self._inc_rho
                             + update.reshape(self.num_bins,
                                              self.num_bins))
            self._inc_ref[moved] = positions[moved]
            self.inc_rescattered += int(moved.sum())
        # Refresh the staleness bound over the instances still carrying
        # old charge (each lags by <= the threshold per axis).
        stale = np.abs(positions - self._inc_ref)
        self._stale_bound = float(
            (stale[:, 0] * self.sizes[:, 1]
             + stale[:, 1] * self.sizes[:, 0]
             + stale[:, 0] * stale[:, 1]).sum())
        if flush:
            # Checkpoint: the brought-up-to-date incremental map must
            # agree with a from-scratch rasterise at these positions.
            rho = self._scatter(windows)
            error = float(np.abs(rho - self._inc_rho).max())
            self.inc_max_flush_error = max(self.inc_max_flush_error, error)
            tolerance = self._flush_tolerance()
            assert error <= tolerance, (
                f"incremental density diverged: |rho_inc - rho| = "
                f"{error:g} > tolerance {tolerance:g}")
            self._inc_rho = rho
            self._inc_ref = positions.copy()
            self._stale_bound = 0.0
            self.inc_flushes += 1
        return self._evaluate_at(self._inc_rho, windows)
