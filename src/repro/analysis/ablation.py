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
headline metrics (Ph, impacted qubits, area, integrity).  Every variant
runs the one placement flow, :meth:`QPlacer.place`; a variant is only a
config for it plus the ``legalize_config`` its legalize and detailed
stages run under.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.library import get_benchmark
from ..circuits.mapping import evaluation_mappings
from ..core.config import PlacerConfig
from ..core.placer import QPlacer
from ..crosstalk.hotspots import hotspot_report
from ..devices.disorder import disordered_layout
from ..devices.netlist import build_netlist
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


def _variant_config(base: PlacerConfig, variant: str
                    ) -> Tuple[PlacerConfig, PlacerConfig]:
    """Translate an ablation label into ``(config, legalize_config)``.

    ``config`` drives preprocess and global placement, and
    ``legalize_config`` the legalize and detailed stages of the same
    :meth:`QPlacer.place` flow.  ``frequency_aware`` gates *both* the
    force and the legalizer checker, so the force-only ablation zeroes
    the force weight, and the legalizer-only ablation legalizes under
    ``frequency_aware=False``; every other variant uses one config.
    """
    if variant == "full":
        cfg = base
    elif variant == "no-freq-force":
        # Keep the frequency-aware legalizer but zero the global force.
        cfg = replace(base, initial_freq_weight=0.0)
    elif variant == "no-freq-legalizer":
        # Keep the force, legalize with the plain clearance rule only.
        cfg = replace(base, chain_aware_tetris=True,
                      legalize_integration=True)
        return cfg, replace(cfg, frequency_aware=False)
    elif variant == "no-integration":
        cfg = replace(base, legalize_integration=False)
    elif variant == "no-chain-tetris":
        cfg = replace(base, chain_aware_tetris=False)
    elif variant == "classic":
        cfg = PlacerConfig.classic(base)
    else:
        raise ValueError(f"unknown ablation variant {variant!r}")
    return cfg, cfg


def evaluate_ablation_variant(topology_name: str, variant: str,
                              config: Optional[PlacerConfig] = None
                              ) -> AblationRow:
    """Place and score one ablation variant (one parallelisable job)."""
    base = config if config is not None else PlacerConfig()
    netlist = build_netlist(get_topology(topology_name))
    cfg, legalize_config = _variant_config(base, variant)
    result = QPlacer(cfg).place(netlist, legalize_config=legalize_config)
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

    Reads the placement flow's own detailed stage, run for
    ``max_passes`` passes on the legalized layout.

    Returns:
        ``(hpwl_before, hpwl_after, swaps_applied)``.
    """
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    base = config if config is not None else PlacerConfig()
    netlist = build_netlist(get_topology(topology_name))
    stats = QPlacer(replace(base, detailed_passes=max_passes)
                    ).place(netlist).detailed_stats
    return stats.hpwl_before, stats.hpwl_after, stats.swaps_applied
