"""Qplacer core: the frequency-aware electrostatic placement engine."""

from .config import PlacerConfig
from .density import DensityGrid, DensityResult
from .detailed import DetailedPlacer, DetailedPlaceStats, refine_placement
from .engine import GlobalPlacer, GlobalPlaceResult, IterationStats
from .frequency_force import (
    frequency_energy_and_grad,
    repulsion_force_magnitude,
    resonant_pair_distances,
)
from .interactions import (
    PrunedCollisionPairs,
    RequiredGapTable,
    grid_candidate_pairs,
)
from .legalizer import (Legalizer, LegalizeStats, SpiralExhaustedError,
                        legalize)
from .optimizer import NesterovOptimizer, OptimizerState
from .placer import PlacementResult, QPlacer, place_topology
from .preprocess import PlacementProblem, build_problem
from .wirelength import hpwl, smooth_wirelength, wirelength_and_grad

__all__ = [
    "PrunedCollisionPairs",
    "RequiredGapTable",
    "grid_candidate_pairs",
    "DensityGrid",
    "DensityResult",
    "DetailedPlaceStats",
    "DetailedPlacer",
    "refine_placement",
    "GlobalPlacer",
    "GlobalPlaceResult",
    "IterationStats",
    "Legalizer",
    "LegalizeStats",
    "SpiralExhaustedError",
    "NesterovOptimizer",
    "OptimizerState",
    "PlacementProblem",
    "PlacementResult",
    "PlacerConfig",
    "QPlacer",
    "build_problem",
    "frequency_energy_and_grad",
    "hpwl",
    "legalize",
    "place_topology",
    "repulsion_force_magnitude",
    "resonant_pair_distances",
    "smooth_wirelength",
    "wirelength_and_grad",
]
