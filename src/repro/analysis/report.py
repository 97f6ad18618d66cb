"""ASCII report tables mirroring the paper's figures and tables.

The benchmark harness prints the same rows the paper reports; these
helpers format them consistently (fixed-width columns, ``<1e-4`` floor
notation for fidelities).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from .experiments import FIDELITY_FLOOR, ParetoPoint, SummaryRow, SweepRow


def format_fidelity(value: float) -> str:
    """Paper-style fidelity cell: 4 decimals, ``<1e-4`` floor."""
    if value <= FIDELITY_FLOOR:
        return "<1e-4"
    return f"{value:.4f}"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Fixed-width ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[k] for k in range(len(headers))))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(lines)


def fidelity_table(fidelity: Mapping[str, Mapping[str, float]],
                   topology: str) -> str:
    """Fig. 11-style table: one row per benchmark, one column per placer."""
    strategies = sorted({s for row in fidelity.values() for s in row})
    headers = ["benchmark"] + list(strategies)
    rows = [
        [bench] + [format_fidelity(fidelity[bench].get(s, 0.0)) for s in strategies]
        for bench in fidelity
    ]
    return format_table(headers, rows, title=f"Fig.11 fidelity — {topology}")


def summary_table(rows: Sequence[SummaryRow]) -> str:
    """Fig. 12-style table: avg fidelity / impacted qubits / Ph."""
    headers = ["topology", "strategy", "avg fidelity", "impacted qubits", "Ph (%)"]
    body = [
        [r.topology, r.strategy, format_fidelity(r.avg_fidelity),
         r.impacted_qubits, f"{r.ph_percent:.2f}"]
        for r in rows
    ]
    return format_table(headers, body, title="Fig.12 summary")


def area_table(ratios_by_topology: Mapping[str, Mapping[str, float]]) -> str:
    """Fig. 13-style table of Amer ratios (Qplacer = 1.0)."""
    strategies = sorted({s for row in ratios_by_topology.values() for s in row})
    headers = ["topology"] + [f"{s} Amer ratio" for s in strategies]
    rows = [
        [topo] + [f"{ratios[s]:.3f}" for s in strategies]
        for topo, ratios in ratios_by_topology.items()
    ]
    return format_table(headers, rows, title="Fig.13 area ratios (vs Qplacer)")


def sweep_table(rows: Sequence[SweepRow]) -> str:
    """Fig. 15 + Table II-style lb-sweep table."""
    headers = ["topology", "lb (mm)", "#cells", "utilization", "Ph (%)",
               "RT (s)", "Avg (s/iter)"]
    body = [
        [r.topology, f"{r.segment_size_mm:.1f}", r.num_cells,
         f"{r.utilization:.3f}", f"{r.ph_percent:.2f}",
         f"{r.runtime_s:.1f}", f"{r.avg_iteration_s:.3f}"]
        for r in rows
    ]
    return format_table(headers, body, title="Fig.15 / Table II segment-size sweep")


def pareto_table(points: Sequence[ParetoPoint]) -> str:
    """Fig. 1-style infidelity-vs-area points."""
    headers = ["topology", "strategy", "Amer (mm^2)", "infidelity"]
    body = [
        [p.topology, p.strategy, f"{p.amer_mm2:.1f}", f"{p.infidelity:.4f}"]
        for p in points
    ]
    return format_table(headers, body, title="Fig.1 infidelity vs area")
