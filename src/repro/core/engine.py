"""Frequency-aware electrostatic global placement (Sec. IV-C1, Eq. 14).

Minimises the penalty objective

``min_x  WL(x) + lambda_d * D(x) + lambda_f * F(x)``

with a multiplicative schedule on both multipliers: early iterations
optimise area (wirelength) almost alone; as the penalties grow the
instances spread until the density overflow drops below the target
(Eq. 14's "seamless shift from area minimisation to constraint
balance").  ``lambda_f = 0`` turns the engine into the Classic baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .. import profiling
from .config import PlacerConfig
from .density import DensityGrid
from .frequency_force import FrequencyForce, frequency_energy_and_grad
from .interactions import PrunedCollisionPairs
from .optimizer import NesterovOptimizer
from .preprocess import PlacementProblem
from .wirelength import wirelength_and_grad

#: Slack (mm) the frequency neighbor list adds to the problem's pair
#: cutoff; the list is rebuilt once any instance drifts more than half
#: of it (never, when cutoff plus skin covers the region diagonal).
FREQ_PAIR_SKIN_MM = 1.5
#: Per-axis move (mm) below which an instance's bin charge stays stale
#: between incremental density checkpoints (0 = every move).  Unused
#: when the problem's flush interval is 1.
DENSITY_MOVE_THRESHOLD_MM = 0.01


@dataclass
class IterationStats:
    """Per-iteration telemetry of the global placer."""

    iteration: int
    objective: float
    wirelength: float
    density_energy: float
    frequency_energy: float
    overflow: float
    lambda_density: float
    lambda_freq: float


@dataclass
class GlobalPlaceResult:
    """Output of the global placement stage.

    Attributes:
        positions: Final ``(n, 2)`` instance centres (not yet legal).
        history: Per-iteration statistics.
        converged: True when the overflow target was reached.
        peak_collision_pairs: Largest frequency-pair set evaluated in
            one objective call (the neighbor-list high-water mark).
        freq_list_rebuilds: Neighbor-list build count (1 when the pair
            cutoff covers the region).
        peak_pair_candidates: Largest raw grid candidate set screened
            during a neighbor-list build.
    """

    positions: np.ndarray
    history: List[IterationStats]
    converged: bool
    peak_collision_pairs: int = 0
    freq_list_rebuilds: int = 0
    peak_pair_candidates: int = 0
    #: Objective evaluations that reused the neighbor list.
    freq_list_reuses: int = 0
    #: Incremental-density telemetry (0 when every evaluation is the
    #: exact recompute, i.e. a flush interval of 1).
    density_flushes: int = 0
    density_rescattered: int = 0
    density_max_flush_error: float = 0.0
    #: True when the run was seeded from externally supplied positions.
    warm_started: bool = False

    @property
    def iterations(self) -> int:
        """Number of optimizer iterations executed."""
        return len(self.history)

    @property
    def final_overflow(self) -> float:
        """Density overflow at the final iterate."""
        return self.history[-1].overflow if self.history else float("inf")


class GlobalPlacer:
    """Runs Eq. (14) on one :class:`PlacementProblem`.

    Args:
        problem: The preprocessed placement problem.
        config: Configuration override (defaults to the problem's).
        initial_positions: Optional ``(n, 2)`` warm-start centres that
            replace the problem's seeded initial positions (e.g. a
            cached placement of the same topology from the artifact
            store).  They are projected into the region before use.
    """

    def __init__(self, problem: PlacementProblem,
                 config: Optional[PlacerConfig] = None,
                 initial_positions: Optional[np.ndarray] = None) -> None:
        self.problem = problem
        self.config = config if config is not None else problem.config
        self.density = DensityGrid(
            region=problem.region,
            num_bins=self.config.num_bins,
            sizes=problem.inflated_sizes(),
            target_density=self.config.target_density,
        )
        self._warm_start: Optional[np.ndarray] = None
        if initial_positions is not None:
            initial_positions = np.asarray(initial_positions, dtype=float)
            if initial_positions.shape != (problem.num_instances, 2):
                raise ValueError(
                    f"initial_positions must be shaped "
                    f"({problem.num_instances}, 2), got "
                    f"{initial_positions.shape}")
            self._warm_start = initial_positions
        self._density_evals = 0
        self._lambda_density = 0.0
        self._lambda_freq = 0.0
        self._last_overflow = 1.0
        self._last_parts: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        nets = problem.nets
        self._net_pin_index: Optional[np.ndarray] = (
            np.concatenate([nets[:, 0], nets[:, 1]]) if nets.size else None)
        self._freq_kernel: Optional[FrequencyForce] = None
        self._kernel_rebuilds = 0
        region = problem.region
        self._pairs = PrunedCollisionPairs(
            problem.frequencies, problem.resonator_index,
            problem.config.detuning_threshold_ghz,
            cutoff_mm=problem.freq_pair_cutoff_mm,
            skin_mm=FREQ_PAIR_SKIN_MM,
            span_mm=float(np.hypot(region.w, region.h)))

    def _frequency_kernel(self, positions: np.ndarray) -> FrequencyForce:
        """Force kernel over the collision pairs active at ``positions``.

        Rebuilt only when the neighbor list itself was rebuilt: once per
        run when the list is static.
        """
        pairs = self._pairs.pairs(positions)
        if self._freq_kernel is None \
                or self._pairs.rebuilds != self._kernel_rebuilds:
            self._freq_kernel = FrequencyForce(pairs)
            self._kernel_rebuilds = self._pairs.rebuilds
        return self._freq_kernel

    # -- objective ---------------------------------------------------------------

    def _density(self, positions: np.ndarray):
        """One density evaluation at the problem's flush interval.

        An interval of 1 makes every evaluation the exact recompute;
        a longer one updates the map incrementally and checks it
        against a full rasterise every ``interval`` evaluations.
        """
        interval = self.problem.density_flush_interval
        if interval == 1:
            return self.density.evaluate(positions)
        flush = (self._density_evals % interval) == 0
        self._density_evals += 1
        return self.density.evaluate_incremental(
            positions, DENSITY_MOVE_THRESHOLD_MM, flush=flush)

    def _objective(self, positions: np.ndarray) -> Tuple[float, np.ndarray]:
        cfg = self.config
        with profiling.phase("wirelength"):
            wl, wl_grad = wirelength_and_grad(
                positions, self.problem.nets, cfg.wirelength_smoothing_mm,
                pin_index=self._net_pin_index)
        with profiling.phase("density"):
            dens = self._density(positions)
        value = wl + self._lambda_density * dens.energy
        grad = wl_grad + self._lambda_density * dens.grad
        freq_energy = 0.0
        if cfg.frequency_aware:
            with profiling.phase("frequency"):
                kernel = self._frequency_kernel(positions)
                if len(kernel):
                    freq_energy, freq_grad = frequency_energy_and_grad(
                        positions, kernel, cfg.freq_force_smoothing_mm)
                    value += self._lambda_freq * freq_energy
                    grad = grad + self._lambda_freq * freq_grad
        self._last_overflow = dens.overflow
        self._last_parts = (wl, dens.energy, freq_energy)
        return value, grad

    def _project(self, positions: np.ndarray) -> np.ndarray:
        """Clamp every centre into the placement region."""
        region = self.problem.region
        half = self.problem.sizes / 2.0
        out = positions.copy()
        out[:, 0] = np.clip(out[:, 0], region.x + half[:, 0], region.x2 - half[:, 0])
        out[:, 1] = np.clip(out[:, 1], region.y + half[:, 1], region.y2 - half[:, 1])
        return out

    def _initial_multipliers(self, positions: np.ndarray) -> None:
        """Balance gradient magnitudes (the ePlace initialisation)."""
        cfg = self.config
        _, wl_grad = wirelength_and_grad(
            positions, self.problem.nets, cfg.wirelength_smoothing_mm,
            pin_index=self._net_pin_index)
        dens = self.density.evaluate(positions)
        wl_norm = float(np.abs(wl_grad).sum())
        dens_norm = float(np.abs(dens.grad).sum())
        self._lambda_density = wl_norm / max(dens_norm, 1e-12) * 0.5
        if cfg.frequency_aware:
            with profiling.phase("frequency"):
                kernel = self._frequency_kernel(positions)
                if len(kernel):
                    _, freq_grad = frequency_energy_and_grad(
                        positions, kernel, cfg.freq_force_smoothing_mm)
                    freq_norm = float(np.abs(freq_grad).sum())
                    self._lambda_freq = (cfg.initial_freq_weight * wl_norm
                                         / max(freq_norm, 1e-12))

    # -- main loop -------------------------------------------------------------------

    def run(self) -> GlobalPlaceResult:
        """Execute the penalty schedule until the overflow target.

        Its phases (``wirelength``, ``density``, ``frequency``) nest
        under the caller's; :meth:`~repro.core.placer.QPlacer.place`
        opens ``global``.
        """
        cfg = self.config
        start = (self._warm_start if self._warm_start is not None
                 else self.problem.initial_positions)
        positions = self._project(start.copy())
        self._initial_multipliers(positions)
        max_move = max(self.density.bin_w, self.density.bin_h)
        optimizer = NesterovOptimizer(
            objective=self._objective,
            x0=positions,
            max_move=max_move,
            project=self._project,
        )
        history: List[IterationStats] = []
        converged = False
        for it in range(cfg.max_iterations):
            state = optimizer.step()
            wl, dens_energy, freq_energy = self._last_parts
            history.append(IterationStats(
                iteration=it,
                objective=state.value,
                wirelength=wl,
                density_energy=dens_energy,
                frequency_energy=freq_energy,
                overflow=self._last_overflow,
                lambda_density=self._lambda_density,
                lambda_freq=self._lambda_freq,
            ))
            self._lambda_density *= cfg.lambda_density_multiplier
            self._lambda_freq *= cfg.lambda_freq_multiplier
            if it >= cfg.min_iterations and self._last_overflow <= cfg.overflow_target:
                converged = True
                break
        # The kernel's index and scratch buffers are dead weight once the
        # run ends, while callers keep the placer through legalization.
        self._freq_kernel = None
        pairs = self._pairs
        return GlobalPlaceResult(
            positions=self._project(optimizer.x),
            history=history,
            converged=converged,
            peak_collision_pairs=pairs.peak_pairs,
            freq_list_rebuilds=pairs.rebuilds,
            peak_pair_candidates=pairs.peak_candidates,
            freq_list_reuses=pairs.reuses,
            density_flushes=self.density.inc_flushes,
            density_rescattered=self.density.inc_rescattered,
            density_max_flush_error=self.density.inc_max_flush_error,
            warm_started=self._warm_start is not None,
        )
