"""Layout quality metrics: the three evaluation axes of Sec. V-C.

(1) program fidelity (delegated to :mod:`repro.crosstalk.fidelity`),
(2) area (``Amer``, ``Apoly``, utilisation),
(3) frequency-hotspot proportion ``Ph`` and impacted qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..crosstalk.hotspots import hotspot_report
from ..crosstalk.violations import ViolationColumns, violation_columns
from ..devices.layout import Layout


@dataclass(frozen=True)
class LayoutMetrics:
    """All scalar quality metrics of one layout.

    Attributes:
        strategy: Producing strategy ("qplacer", "classic", "human").
        amer_mm2: Minimum-enclosing-rectangle area.
        apoly_mm2: Total bare instance area (Eq. 17 numerator).
        utilization: ``Apoly / Amer``.
        ph_percent: Frequency-hotspot proportion, percent (Eq. 18).
        num_hotspots: Resonant violating pairs.
        impacted_qubits: Qubits touched by hotspots (Fig. 12 middle).
        num_violations: All spatial violations (any detuning).
    """

    strategy: str
    amer_mm2: float
    apoly_mm2: float
    utilization: float
    ph_percent: float
    num_hotspots: int
    impacted_qubits: int
    num_violations: int


def compute_layout_metrics(layout: Layout,
                           violations: Optional[ViolationColumns] = None
                           ) -> LayoutMetrics:
    """Evaluate every scalar metric on a layout.

    One violation scan, one ``Amer`` and one ``Apoly`` (the hotspot
    report's); ``utilization`` is :meth:`Layout.utilization`'s ratio of
    the two.
    """
    if violations is None:
        violations = violation_columns(layout)
    report = hotspot_report(layout, violations=violations)
    amer, apoly = layout.amer(), report.apoly
    return LayoutMetrics(
        strategy=layout.strategy,
        amer_mm2=amer,
        apoly_mm2=apoly,
        utilization=apoly / amer if amer > 0 else 0.0,
        ph_percent=report.ph_percent,
        num_hotspots=report.num_hotspots,
        impacted_qubits=report.num_impacted_qubits,
        num_violations=int(violations.pairs.i.size),
    )


def area_ratios(metrics: Sequence[LayoutMetrics],
                reference_strategy: str = "qplacer") -> Dict[str, float]:
    """``Amer`` ratios relative to a reference strategy (Fig. 13)."""
    reference = next((m for m in metrics if m.strategy == reference_strategy), None)
    if reference is None:
        raise ValueError(f"no metrics for reference {reference_strategy!r}")
    if reference.amer_mm2 <= 0:
        raise ValueError("reference layout has zero area")
    return {m.strategy: m.amer_mm2 / reference.amer_mm2 for m in metrics}


def resonator_integrity(layout: Layout, proximity_factor: float = 1.6) -> float:
    """Fraction of resonators whose segments form one contiguous cluster.

    Strategy-independent integration check (the Alg. 1 success criterion)
    usable on any layout, including baselines.
    """
    groups = layout.segment_indices_by_resonator
    if not groups:
        return 1.0
    # Proximity threshold mirrors the legalizer: segment size plus
    # clearance, scaled by the same factor.
    sizes = [layout.instances[idx[0]].width for idx in groups.values() if idx]
    pitch = max(sizes) if sizes else 0.3
    prox = proximity_factor * (pitch + 0.1)
    connected = 0
    for seg_ids in groups.values():
        if len(seg_ids) <= 1:
            connected += 1
            continue
        remaining = set(seg_ids)
        stack = [seg_ids[0]]
        remaining.discard(seg_ids[0])
        while stack:
            cur = stack.pop()
            cx, cy = layout.positions[cur]
            reached = [s for s in remaining
                       if (layout.positions[s, 0] - cx) ** 2
                       + (layout.positions[s, 1] - cy) ** 2 <= prox * prox]
            for s in reached:
                remaining.discard(s)
                stack.append(s)
        if not remaining:
            connected += 1
    return connected / len(groups)
