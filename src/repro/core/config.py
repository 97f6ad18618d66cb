"""Placer configuration (the paper's hyper-parameters, Sec. V-B/C).

One :class:`PlacerConfig` drives preprocessing, the electrostatic global
placement, and legalization.  ``Classic`` (the baseline of Sec. V-B) is
the *identical* configuration with the frequency-awareness switched off,
and :meth:`PlacerConfig.classic` is the one place that derives it from a
design config.

The frequency-pair cutoff, density flush interval and auto detailed
passes are not settings: :func:`~repro.core.preprocess.build_problem`
picks them from problem size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .. import constants


@dataclass(frozen=True)
class PlacerConfig:
    """All tunable parameters of the placement flow.

    Geometry / preprocessing:

    Attributes:
        segment_size_mm: Resonator segment block size ``lb`` (Sec. IV-B2).
        qubit_padding_mm: Qubit padding ``dq``.
        resonator_padding_mm: Resonator padding ``dr``.
        qubit_clearance_mm: Legalized routing clearance between a qubit
            and any non-attached neighbour (sub-padding lattice spacing).
        segment_clearance_mm: Likewise between resonator segments of
            different resonators.
        detuning_threshold_ghz: Resonance threshold ``Delta_c``.

    Global placement:

    Attributes:
        frequency_aware: Enables the frequency repulsive force and the
            resonant checker in legalization; False = Classic baseline.
        target_density: Bin-density ceiling ``D_hat`` (Eq. 11).
        whitespace_factor: Region sizing: region area = total inflated
            instance area / whitespace_factor.
        num_bins: Density grid resolution per axis (power of two).
        max_iterations: Upper bound on optimizer iterations.
        min_iterations: Iterations before convergence checks begin.
        overflow_target: Stop when density overflow drops below this.
        wirelength_smoothing_mm: Smooth-|x| parameter of the wirelength
            model (comparable to a fraction of a bin).
        freq_force_smoothing_mm: Softening length of the 1/d repulsion.
        lambda_density_multiplier: Per-iteration density-penalty growth.
        lambda_freq_multiplier: Per-iteration frequency-penalty growth.
        initial_freq_weight: Initial ratio |grad F| / |grad WL|.
        seed: Seed for the deterministic initial-position jitter.

    Legalization:

    Attributes:
        legalize_integration: Run the integration-aware repair (Alg. 1).
        spiral_max_radius_sites: Search bound of the greedy spiral.
        detailed_passes: Post-legalization refinement sweeps; ``None``
            resolves from problem size
            (:meth:`resolved_detailed_passes`).

    """

    # geometry / preprocessing
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    qubit_padding_mm: float = constants.QUBIT_PADDING_MM
    resonator_padding_mm: float = constants.RESONATOR_PADDING_MM
    qubit_clearance_mm: float = 0.1
    segment_clearance_mm: float = 0.05
    detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ

    # global placement
    frequency_aware: bool = True
    target_density: float = constants.DEFAULT_TARGET_DENSITY
    whitespace_factor: float = 0.85
    num_bins: int = 64
    max_iterations: int = 400
    min_iterations: int = 40
    overflow_target: float = 0.08
    wirelength_smoothing_mm: float = 0.05
    freq_force_smoothing_mm: float = 0.3
    lambda_density_multiplier: float = 1.05
    lambda_freq_multiplier: float = 1.03
    initial_freq_weight: float = 0.5
    seed: int = 0

    # legalization
    legalize_integration: bool = True
    chain_aware_tetris: bool = True
    spiral_max_radius_sites: int = 64
    #: Detailed-placement refinement sweeps after legalization.
    #: ``None`` = auto: one pass on condor-class problems (above the
    #: size threshold) where the vectorized engine makes it affordable,
    #: none on the paper tiers (whose layouts stay bit-identical).
    detailed_passes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.segment_size_mm <= 0:
            raise ValueError("segment size must be positive")
        if self.qubit_padding_mm < 0 or self.resonator_padding_mm < 0:
            raise ValueError("paddings must be non-negative")
        if self.qubit_clearance_mm < 0 or self.segment_clearance_mm < 0:
            raise ValueError("clearances must be non-negative")
        if not (0 < self.target_density <= 2.0):
            raise ValueError("target density must be in (0, 2]")
        if not (0 < self.whitespace_factor <= 1.0):
            raise ValueError("whitespace factor must be in (0, 1]")
        if self.num_bins < 8:
            raise ValueError("need at least 8 density bins per axis")
        if self.max_iterations < self.min_iterations:
            raise ValueError("max_iterations must be >= min_iterations")
        if self.detailed_passes is not None and self.detailed_passes < 0:
            raise ValueError("detailed_passes must be >= 0 (or None for "
                             f"auto), got {self.detailed_passes}")
        if self.spiral_max_radius_sites < 0:
            raise ValueError("spiral_max_radius_sites must be >= 0, got "
                             f"{self.spiral_max_radius_sites}")

    @staticmethod
    def classic(base: Optional["PlacerConfig"] = None,
                **overrides) -> "PlacerConfig":
        """The Classic baseline of ``base``: same settings, frequency off.

        Mirrors Sec. V-B: the classical engine shares every setting with
        Qplacer but has no frequency repulsive force, no resonant checks
        during legalization, no chain-aware Tetris ordering, and no
        integration-aware repair.  Every field of ``base`` (default:
        ``PlacerConfig()``) is kept except those three switches;
        ``overrides`` then apply on top.
        """
        base = base if base is not None else PlacerConfig()
        return replace(base, **{"frequency_aware": False,
                                "legalize_integration": False,
                                "chain_aware_tetris": False, **overrides})

    def with_segment_size(self, lb_mm: float) -> "PlacerConfig":
        """Copy with a different resonator segment size (Fig. 15 sweep)."""
        return replace(self, segment_size_mm=lb_mm)

    def resolved_detailed_passes(self, auto_passes: int) -> int:
        """Concrete detailed-placement pass count for a built problem.

        ``None`` (auto) takes ``auto_passes``, the problem's size-chosen
        :attr:`~repro.core.preprocess.PlacementProblem.auto_detailed_passes`.
        """
        if self.detailed_passes is not None:
            return self.detailed_passes
        return auto_passes

    def qubit_site_pitch_mm(self, qubit_size_mm: float = constants.QUBIT_SIZE_MM) -> float:
        """Legalization lattice pitch for qubits."""
        return qubit_size_mm + self.qubit_clearance_mm

    def segment_site_pitch_mm(self) -> float:
        """Legalization lattice pitch for resonator segments."""
        return self.segment_size_mm + self.segment_clearance_mm
