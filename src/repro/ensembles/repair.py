"""Incremental re-place repair of a disordered layout.

A fabricated chip cannot be re-placed — but a *design iteration* can:
when a disorder realisation pushes a frozen layout out of spec, the
cheap fix is not a from-scratch global placement of the noisy netlist
but a repair of the cached design (qGDP's observation): reload the
stored positions, re-run legalization against the noisy frequencies'
collision pairs, and polish with the transactional detailed placer.
Geometry is frequency-independent, so the cached position array aligns
index-for-index with a problem built from the noisy netlist — only
``frequencies`` and ``collision_pairs`` differ.

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
from ..core.interactions import grid_candidate_pairs
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


def _intended_mask(problem: PlacementProblem, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`PlacementProblem.is_intended_pair` over pairs."""
    res = np.asarray(problem.resonator_index, dtype=np.int64)
    ra, rb = res[a], res[b]
    intended = (ra >= 0) & (ra == rb)  # sibling segments
    num_res = int(res.max(initial=-1)) + 1
    if num_res:
        attached = np.zeros((problem.num_instances, num_res), dtype=bool)
        for inst, owned in problem.attached_resonators.items():
            for r in owned:
                attached[inst, r] = True
        qa = np.asarray(problem.is_qubit, dtype=bool)[a] & (rb >= 0)
        intended |= qa & attached[a, np.where(rb >= 0, rb, 0)]
        qb = np.asarray(problem.is_qubit, dtype=bool)[b] & (ra >= 0)
        intended |= qb & attached[b, np.where(ra >= 0, ra, 0)]
    return intended


def check_layout_legal(problem: PlacementProblem, positions: np.ndarray,
                       tol: float = 1e-9) -> bool:
    """Vectorized legality verdict mirroring the legalizer's contract.

    Checks, over all instance pairs: no bare-footprint overlap;
    clearance separation for non-intended pairs; and the padding-sum
    spacing over the problem's resonant collision pairs.

    The overlap and clearance checks screen only grid candidates
    (:func:`~repro.core.interactions.grid_candidate_pairs`) within a
    per-axis reach of ``2 * max(max(w, h) / 2 + clearance / 2)``.  A
    pair beyond it has an edge gap above its clearance requirement on
    some axis, so it passes both checks by construction and the verdict
    equals the all-pairs one at O(n x local density) cost.
    """
    pos = np.asarray(positions, dtype=float)
    n = problem.num_instances
    if pos.shape != (n, 2):
        raise ValueError("position array shape mismatch")
    # A negative ``tol`` tightens both checks by ``|tol|``; widen to match.
    reach = 2.0 * float(np.max(0.5 * problem.sizes.max(axis=1)
                               + 0.5 * problem.clearances, initial=0.0)) \
        - min(tol, 0.0)
    iu, ju = grid_candidate_pairs(pos, max(reach, 1e-9), sort=False)
    gap = _pair_gaps(problem, pos, iu, ju)
    if bool((gap < -tol).any()):
        return False

    intended = _intended_mask(problem, iu, ju)
    required = 0.5 * (problem.clearances[iu] + problem.clearances[ju])
    if bool((gap[~intended] < required[~intended] - tol).any()):
        return False

    collision_pairs = problem.collision_pairs
    if collision_pairs.size:
        a = collision_pairs[:, 0].astype(np.int64)
        b = collision_pairs[:, 1].astype(np.int64)
        unintended = ~_intended_mask(problem, a, b)
        a, b = a[unintended], b[unintended]
        if a.size:
            spacing = problem.paddings[a] + problem.paddings[b]
            if bool((_pair_gaps(problem, pos, a, b)
                     < spacing - 1e-6).any()):
                return False
    return True


@dataclass(frozen=True)
class RepairResult:
    """Outcome of repairing one disorder realisation.

    Attributes:
        layout: The repaired (or from-scratch) legal layout, tuned to
            the noisy netlist.
        positions: Final position array in problem instance order.
        moved_mm: Total absolute displacement from the cached positions
            (0 when the sample needed no repair).
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
    realised frequencies plus the collision pairs they induce.  This is
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
    # The collision map is a lazy accessor, so the copy recomputes it
    # from the realised frequencies on first use.
    return replace(design_problem, netlist=noisy_netlist,
                   instances=instances, frequencies=frequencies)


def repair_positions(problem: PlacementProblem, cached_positions: np.ndarray,
                     config: PlacerConfig) -> np.ndarray:
    """Legalize + detailed-refine cached positions against a noisy problem.

    This is the incremental path: no global placement.  The legalizer
    re-seats instances against the realisation's collision pairs, then
    at least one transactional detailed pass (``try_moves``/``commit``)
    polishes wirelength without breaking legality.  The polish sweep is
    restricted to the instances the legalizer actually disturbed —
    displaced beyond the median snap distance, a self-calibrating
    threshold — since everything else already sits where the clean
    design's detailed pass left it (swap partners still come from the
    full layout, so the restriction cannot strand a good swap).
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
                                        only=dirty if dirty.size else None)
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
        cached_positions: Stored positions of the clean design, in the
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
                  strategy=disorder_strategy_tag(strategy) + "+scratch")
