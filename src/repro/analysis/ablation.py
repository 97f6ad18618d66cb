"""Ablation studies over Qplacer's design choices.

The paper's contribution decomposes into mechanisms that can be switched
independently in this reproduction:

* the **frequency repulsive force** in global placement (Eq. 9),
* the **resonant checker** + chain-aware Tetris in legalization,
* the **integration repair** (Alg. 1),
* the **detailed-placement** refinement (extension),
* the **router** used by the evaluation protocol (extension),
* robustness to **fabrication frequency disorder** (extension).

Each ablation quantifies how much a single mechanism contributes to the
headline metrics (Ph, impacted qubits, area, integrity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.library import get_benchmark
from ..circuits.mapping import evaluation_mappings
from ..core.config import PlacerConfig
from ..core.detailed import refine_placement
from ..core.placer import QPlacer
from ..crosstalk.hotspots import hotspot_report
from ..devices.disorder import disordered_layout
from ..devices.netlist import QuantumNetlist, build_netlist
from ..devices.topology import get_topology
from .metrics import compute_layout_metrics, resonator_integrity

#: The ablation variant labels, in reporting order.
ABLATION_VARIANTS: Tuple[str, ...] = (
    "full",
    "no-freq-force",
    "no-freq-legalizer",
    "no-integration",
    "no-chain-tetris",
    "classic",
)


@dataclass(frozen=True)
class AblationRow:
    """Metrics of one ablation variant on one topology."""

    topology: str
    variant: str
    ph_percent: float
    impacted_qubits: int
    amer_mm2: float
    integrity: float
    runtime_s: float


def _variant_config(base: PlacerConfig, variant: str) -> PlacerConfig:
    """Translate an ablation label into a concrete configuration.

    ``frequency_aware`` gates *both* the force and the legalizer checker
    in the main flow, so force-only / legalizer-only ablations are built
    from dedicated combinations.
    """
    if variant == "full":
        return base
    if variant == "no-freq-force":
        # Keep the frequency-aware legalizer but zero the global force.
        return replace(base, initial_freq_weight=0.0)
    if variant == "no-freq-legalizer":
        # Keep the force, legalize like the Classic baseline.
        return replace(base, chain_aware_tetris=True,
                       legalize_integration=True)
    if variant == "no-integration":
        return replace(base, legalize_integration=False)
    if variant == "no-chain-tetris":
        return replace(base, chain_aware_tetris=False)
    if variant == "classic":
        return PlacerConfig.classic(base)
    raise ValueError(f"unknown ablation variant {variant!r}")


class _LegalizerOblivousQPlacer(QPlacer):
    """Qplacer variant whose legalizer ignores resonant spacing.

    Used by the ``no-freq-legalizer`` ablation: the global frequency
    force still separates resonant instances, but legalization applies
    only the plain clearance rule.
    """

    def place(self, netlist: QuantumNetlist):
        from ..core.engine import GlobalPlacer
        from ..core.legalizer import legalize
        from ..core.preprocess import build_problem
        from ..devices.layout import Layout
        from ..core.placer import PlacementResult
        import time

        start = time.perf_counter()
        problem = build_problem(netlist, self.config)
        global_result = GlobalPlacer(problem, self.config).run()
        blind_config = replace(self.config, frequency_aware=False)
        legal_positions, stats = legalize(problem, global_result.positions,
                                          blind_config)
        runtime = time.perf_counter() - start
        layout = Layout(instances=problem.instances,
                        positions=legal_positions, netlist=netlist,
                        strategy="qplacer-noleg").translated_to_origin()
        global_layout = Layout(instances=problem.instances,
                               positions=global_result.positions,
                               netlist=netlist, strategy="global")
        return PlacementResult(layout=layout, global_layout=global_layout,
                               problem=problem, global_result=global_result,
                               legalize_stats=stats, runtime_s=runtime)


def evaluate_ablation_variant(topology_name: str, variant: str,
                              config: Optional[PlacerConfig] = None
                              ) -> AblationRow:
    """Place and score one ablation variant (one parallelisable job)."""
    base = config if config is not None else PlacerConfig()
    netlist = build_netlist(get_topology(topology_name))
    cfg = _variant_config(base, variant)
    if variant == "no-freq-legalizer":
        placer: QPlacer = _LegalizerOblivousQPlacer(cfg)
    else:
        placer = QPlacer(cfg)
    result = placer.place(netlist)
    metrics = compute_layout_metrics(result.layout)
    return AblationRow(
        topology=topology_name,
        variant=variant,
        ph_percent=metrics.ph_percent,
        impacted_qubits=metrics.impacted_qubits,
        amer_mm2=metrics.amer_mm2,
        integrity=resonator_integrity(result.layout),
        runtime_s=result.runtime_s,
    )


def ablation_experiment(topology_name: str,
                        variants: Sequence[str] = ABLATION_VARIANTS,
                        config: Optional[PlacerConfig] = None,
                        runner: Optional["ParallelRunner"] = None
                        ) -> List[AblationRow]:
    """Run every requested ablation variant on one topology.

    Variants are independent placements and fan out across the runner's
    process pool; rows come back in ``variants`` order.
    """
    from .runner import AblationJob, ParallelRunner, run_ablation_job

    if runner is None:
        runner = ParallelRunner()
    jobs = [AblationJob(topology=topology_name, variant=v, config=config)
            for v in variants]
    return runner.map(run_ablation_job, jobs, namespace="ablation")


@dataclass(frozen=True)
class DisorderRow:
    """Hotspot statistics of one strategy under one disorder amplitude."""

    strategy: str
    sigma_ghz: float
    mean_ph_percent: float
    worst_ph_percent: float
    mean_impacted: float


def disorder_robustness(topology_name: str,
                        sigmas_ghz: Sequence[float] = (0.0, 0.01, 0.02, 0.04),
                        trials: int = 5,
                        config: Optional[PlacerConfig] = None
                        ) -> List[DisorderRow]:
    """Hotspot degradation under fabrication frequency scatter.

    Both engines are placed once (the design), then each disorder
    realisation perturbs the *as-fabricated* frequencies with positions
    frozen; Ph is re-evaluated per realisation.
    """
    base = config if config is not None else PlacerConfig()
    netlist = build_netlist(get_topology(topology_name))
    layouts = {
        "qplacer": QPlacer(base).place(netlist).layout,
        "classic": QPlacer(PlacerConfig.classic(base)).place(netlist).layout,
    }
    rows: List[DisorderRow] = []
    for strategy, layout in layouts.items():
        for sigma in sigmas_ghz:
            phs: List[float] = []
            impacted: List[int] = []
            for trial in range(trials):
                if sigma == 0.0:
                    noisy = layout
                else:
                    noisy = disordered_layout(layout,
                                              sigma_qubit_ghz=sigma,
                                              sigma_resonator_ghz=sigma / 2,
                                              seed=trial)
                report = hotspot_report(noisy)
                phs.append(report.ph_percent)
                impacted.append(report.num_impacted_qubits)
            rows.append(DisorderRow(
                strategy=strategy,
                sigma_ghz=sigma,
                mean_ph_percent=float(np.mean(phs)),
                worst_ph_percent=float(np.max(phs)),
                mean_impacted=float(np.mean(impacted)),
            ))
    return rows


@dataclass(frozen=True)
class RouterRow:
    """Swap statistics of one router on one (benchmark, topology)."""

    benchmark: str
    router: str
    total_swaps: int
    mean_duration_ns: float


def router_comparison(topology_name: str,
                      benchmarks: Sequence[str] = ("bv-16", "qaoa-9"),
                      num_mappings: int = 10) -> List[RouterRow]:
    """Naive shortest-path router versus the SABRE look-ahead router."""
    topology = get_topology(topology_name)
    rows: List[RouterRow] = []
    for bench in benchmarks:
        circuit = get_benchmark(bench)
        if circuit.num_qubits > topology.num_qubits:
            continue
        for router in ("basic", "sabre"):
            mappings = evaluation_mappings(circuit, topology,
                                           num_mappings=num_mappings,
                                           router=router)
            rows.append(RouterRow(
                benchmark=bench,
                router=router,
                total_swaps=sum(m.swap_count for m in mappings),
                mean_duration_ns=float(np.mean([m.duration_ns
                                                for m in mappings])),
            ))
    return rows


def detailed_placement_gain(topology_name: str,
                            config: Optional[PlacerConfig] = None,
                            max_passes: int = 3) -> Tuple[float, float, int]:
    """Wirelength improvement of the detailed-placement extension.

    Returns:
        ``(hpwl_before, hpwl_after, swaps_applied)``.
    """
    base = config if config is not None else PlacerConfig()
    netlist = build_netlist(get_topology(topology_name))
    result = QPlacer(base).place(netlist)
    _, stats = refine_placement(result.problem, result.layout.positions,
                                base, max_passes=max_passes)
    return stats.hpwl_before, stats.hpwl_after, stats.swaps_applied
