"""Incremental re-place repair of a disordered layout.

A fabricated chip cannot be re-placed — but a *design iteration* can:
when a disorder realisation pushes a frozen layout out of spec, the
cheap fix is not a from-scratch global placement of the noisy netlist
but a repair of the cached design (qGDP's observation): reload the
stored positions, re-run legalization against the noisy frequencies'
resonant pairs, and polish with the transactional detailed placer.
Geometry is frequency-independent, so the cached position array aligns
index-for-index with a problem built from the noisy netlist — only
``frequencies`` differs, and with it which pairs are resonant.

The cached positions must be in the problem's frame
(:attr:`~repro.devices.layout.Layout.problem_positions`), where the
legalizer's lattices are anchored.  From the origin-translated stored
positions every instance sits off its lattice, so the legalizer would
re-seat all of them.

Yield-after-repair dominates frozen yield by construction: samples that
already pass are kept untouched, and repaired samples are legal by the
legalizer's contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import profiling
from ..core.config import PlacerConfig
from ..core.detailed import refine_placement
from ..core.interactions import grid_candidate_pairs, intended_adjacency
from ..core.legalizer import Legalizer
from ..core.placer import QPlacer
from ..core.preprocess import PlacementProblem
from ..devices.components import ResonatorSegment
from ..devices.disorder import disorder_strategy_tag
from ..devices.layout import Layout
from ..devices.netlist import QuantumNetlist


def _pair_gaps(problem: PlacementProblem, pos: np.ndarray,
               a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Signed legalizer gap of instance pairs ``(a[k], b[k])``."""
    gx = np.abs(pos[a, 0] - pos[b, 0]) \
        - 0.5 * (problem.sizes[a, 0] + problem.sizes[b, 0])
    gy = np.abs(pos[a, 1] - pos[b, 1]) \
        - 0.5 * (problem.sizes[a, 1] + problem.sizes[b, 1])
    separated = (gx > 0) | (gy > 0)
    return np.where(separated,
                    np.hypot(np.maximum(gx, 0.0), np.maximum(gy, 0.0)),
                    np.maximum(gx, gy))


def check_layout_legal(problem: PlacementProblem, positions: np.ndarray,
                       tol: float = 1e-9) -> bool:
    """Vectorized legality verdict mirroring the legalizer's contract.

    Three rules, checked on one set of nearby pairs: no bare-footprint
    overlap; clearance separation for non-intended pairs; and the
    padding-sum spacing for resonant (``|df| <= Delta_c``) non-intended
    pairs.  The padding rule applies only when
    ``problem.config.frequency_aware``, the switch under which the
    legalizer enforces it (a Classic problem is checked for overlap and
    clearance alone).

    The pairs are grid candidates
    (:func:`~repro.core.interactions.grid_candidate_pairs`) within a
    per-axis reach of ``2 * max(max(w, h) / 2 + max(pad, clearance /
    2))``.  A pair beyond it has an edge gap above both its clearance
    and its padding-sum requirement on some axis, so it passes every
    rule by construction and the verdict equals the all-pairs one at
    O(n x local density) cost.
    """
    pos = np.asarray(positions, dtype=float)
    n = problem.num_instances
    if pos.shape != (n, 2):
        raise ValueError("position array shape mismatch")
    # A negative ``tol`` tightens the overlap and clearance rules by
    # ``|tol|``; widen to match.
    reach = 2.0 * float(np.max(0.5 * problem.sizes.max(axis=1)
                               + np.maximum(problem.paddings,
                                            0.5 * problem.clearances),
                               initial=0.0)) - min(tol, 0.0)
    iu, ju = grid_candidate_pairs(pos, max(reach, 1e-9), sort=False)
    gap = _pair_gaps(problem, pos, iu, ju)
    if bool((gap < -tol).any()):
        return False

    # A pair closer than its clearance, or (under a frequency-aware
    # config) a resonant pair closer than its padding sum, is illegal
    # unless it is intended.
    clear = problem.clearances
    close = gap < 0.5 * (clear[iu] + clear[ju]) - tol
    if problem.config.frequency_aware:
        pads = problem.paddings
        freqs = problem.frequencies
        close |= ((gap < pads[iu] + pads[ju] - 1e-6)
                  & (np.abs(freqs[iu] - freqs[ju])
                     <= problem.config.detuning_threshold_ghz))
    return bool(intended_adjacency(problem.qubit_index,
                                   problem.resonator_index,
                                   problem.resonator_ends,
                                   iu[close], ju[close]).all())


@dataclass(frozen=True)
class RepairResult:
    """Outcome of repairing one disorder realisation.

    Attributes:
        layout: The repaired (or from-scratch) legal layout, tuned to
            the noisy netlist.
        positions: Final position array in problem instance order.
        moved_mm: Total absolute displacement of ``positions`` from
            the cached positions, both in the problem's frame (0 when
            the repair moved nothing).
        legal: Verdict of :func:`check_layout_legal` on the result.
    """

    layout: Layout
    positions: np.ndarray
    moved_mm: float
    legal: bool


def problem_with_frequencies(design_problem: PlacementProblem,
                             noisy_netlist: QuantumNetlist
                             ) -> PlacementProblem:
    """The design problem re-tuned to a disorder realisation.

    The fabricated chip keeps its *design* geometry — segment
    partitioning derives from the design target frequency (``L = v0 /
    2f``), not the realised one — so the repair problem must keep the
    clean problem's instances, sizes, and region, and swap in only the
    realised frequencies (which decide the resonant pairs).  This is
    also what keeps cached design positions index-aligned with the
    repair problem.
    """
    from dataclasses import replace

    qubit_freq = {q.index: q.frequency for q in noisy_netlist.qubits}
    res_freq = {r.index: r.frequency for r in noisy_netlist.resonators}
    instances = [
        replace(inst, frequency=qubit_freq[inst.index])
        if not isinstance(inst, ResonatorSegment)
        else replace(inst, frequency=res_freq[inst.resonator_index])
        for inst in design_problem.instances
    ]
    frequencies = np.array([inst.frequency for inst in instances])
    return replace(design_problem, netlist=noisy_netlist,
                   instances=instances, frequencies=frequencies)


def repair_positions(problem: PlacementProblem, cached_positions: np.ndarray,
                     config: PlacerConfig) -> np.ndarray:
    """Legalize + detailed-refine cached positions against a noisy problem.

    This is the incremental path: no global placement.  The legalizer
    re-seats instances against the realisation's resonant pairs, then
    at least one transactional detailed pass (``try_moves``/``commit``)
    polishes wirelength without breaking legality.  The polish sweep is
    restricted to the dirty set, the instances the legalizer moved by
    more than the median displacement (at least 1e-9 mm).  From
    problem-frame positions the legalizer usually moves fewer than half
    the instances, so the median is 0 and the dirty set is every
    instance it moved; when it moved none, nothing is polished.
    Everything else already sits where the clean design's detailed pass
    left it (swap partners still come from the full layout, so the
    restriction cannot strand a good swap).

    Args:
        problem: The repair problem (the design re-tuned to the
            realisation, :func:`problem_with_frequencies`).
        cached_positions: Clean design positions in the problem's frame.
        config: Effective placement config of the design.
    """
    cached = np.asarray(cached_positions, dtype=float)
    with profiling.phase("relegalize"):
        positions, _ = Legalizer(problem, config).run(cached)
    displaced = np.hypot(positions[:, 0] - cached[:, 0],
                         positions[:, 1] - cached[:, 1])
    dirty = np.flatnonzero(displaced > max(float(np.median(displaced)),
                                           1e-9))
    passes = max(1, config.resolved_detailed_passes(
        problem.auto_detailed_passes))
    with profiling.phase("repolish"):
        positions, _ = refine_placement(problem, positions, config,
                                        max_passes=passes,
                                        only=dirty)
    return positions


def repair_sample(design_problem: PlacementProblem,
                  noisy_netlist: QuantumNetlist,
                  cached_positions: np.ndarray,
                  config: PlacerConfig,
                  strategy: str = "qplacer") -> RepairResult:
    """Incrementally repair one disorder realisation of a frozen layout.

    Args:
        design_problem: The clean design's placement problem (built
            once per ensemble; its geometry is shared by all samples).
        noisy_netlist: The realisation's netlist (same topology as the
            design; frequencies perturbed).
        cached_positions: Positions of the clean design in the
            problem's frame (``Layout.problem_positions``), in the
            deterministic ``build_problem`` instance order.
        config: Effective placement config of the design.
        strategy: Strategy tag of the source layout (for provenance).
    """
    problem = problem_with_frequencies(design_problem, noisy_netlist)
    cached = np.asarray(cached_positions, dtype=float)
    if cached.shape != (problem.num_instances, 2):
        raise ValueError(
            f"cached positions ({cached.shape}) do not align with the "
            f"noisy problem ({problem.num_instances} instances); was the "
            "design placed with a different config?")
    positions = repair_positions(problem, cached, config)
    layout = Layout(instances=problem.instances, positions=positions,
                    netlist=noisy_netlist,
                    strategy=disorder_strategy_tag(strategy) + "+repair"
                    ).translated_to_origin()
    moved = float(np.abs(positions - cached).sum())
    return RepairResult(layout=layout, positions=positions,
                        moved_mm=moved,
                        legal=check_layout_legal(problem, layout.positions))


def place_from_scratch(noisy_netlist: QuantumNetlist,
                       config: PlacerConfig,
                       strategy: str = "qplacer") -> Layout:
    """From-scratch baseline the incremental repair races against."""
    result = QPlacer(config).place(noisy_netlist)
    layout = result.layout
    return Layout(instances=layout.instances, positions=layout.positions,
                  netlist=noisy_netlist,
                  strategy=disorder_strategy_tag(strategy) + "+scratch",
                  origin_offset=layout.origin_offset)
