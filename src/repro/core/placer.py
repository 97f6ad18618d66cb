"""Qplacer orchestrator (Fig. 7): the public placement entry point.

``QPlacer.place(netlist)`` runs the full flow of the paper:

1. frequency assignment is already part of the netlist (Fig. 7-a);
2. preprocessing pads the instances and partitions the resonators
   (Fig. 7-b, :mod:`repro.core.preprocess`);
3. the frequency-aware electrostatic engine optimises positions
   (Fig. 7-c, :mod:`repro.core.engine`);
4. the integration-aware legalizer finalises the layout (Fig. 7-d,
   :mod:`repro.core.legalizer`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .. import profiling
from ..devices.layout import Layout
from ..devices.netlist import QuantumNetlist
from .config import PlacerConfig
from .detailed import DetailedPlaceStats
from .engine import GlobalPlacer, GlobalPlaceResult
from .legalizer import LegalizeStats, legalize
from .preprocess import PlacementProblem, build_problem


@dataclass
class PlacementResult:
    """Complete output of one placement run.

    Attributes:
        layout: The final legalized layout.
        global_layout: The (illegal) global-placement layout, useful for
            diagnostics and the engine benchmarks.
        problem: The preprocessed placement problem.
        global_result: Optimizer telemetry.
        legalize_stats: Legalizer telemetry.
        runtime_s: Wall-clock duration of the whole flow.
        detailed_stats: Detailed-placement telemetry (None when the
            resolved pass count is 0).
        phase_profile: Per-phase wall-clock of the run
            (:mod:`repro.profiling` paths: ``"preprocess"``,
            ``"global"``, ``"global/frequency/neighbors"``,
            ``"legalize"``, ``"legalize/qubits"``, ..., ``"detailed"``);
            top-level entries sum to ~``runtime_s``.
    """

    layout: Layout
    global_layout: Layout
    problem: PlacementProblem
    global_result: GlobalPlaceResult
    legalize_stats: LegalizeStats
    runtime_s: float
    detailed_stats: Optional[DetailedPlaceStats] = None
    phase_profile: Dict[str, float] = field(default_factory=dict)

    @property
    def num_cells(self) -> int:
        """Movable instance count (#cells of Table II)."""
        return self.problem.num_instances

    @property
    def iterations(self) -> int:
        """Global-placement iterations executed."""
        return self.global_result.iterations

    @property
    def avg_iteration_s(self) -> float:
        """Average runtime per iteration (Table II's "Avg")."""
        return self.runtime_s / max(self.iterations, 1)


class QPlacer:
    """Frequency-aware electrostatic placer for superconducting QCs."""

    def __init__(self, config: Optional[PlacerConfig] = None) -> None:
        self.config = config if config is not None else PlacerConfig()

    @property
    def strategy_name(self) -> str:
        """Layout tag: ``"qplacer"`` or ``"classic"``."""
        return "qplacer" if self.config.frequency_aware else "classic"

    def place(self, netlist: QuantumNetlist,
              initial_positions: Optional[np.ndarray] = None
              ) -> PlacementResult:
        """Run the full placement flow on a netlist.

        Args:
            netlist: The netlist to place.
            initial_positions: Optional ``(n, 2)`` warm-start centres
                for the global placement (e.g. a cached layout of the
                same topology); ``None`` uses the seeded default.
        """
        start = time.perf_counter()
        detailed_stats: Optional[DetailedPlaceStats] = None
        with profiling.PhaseProfiler() as prof:
            with profiling.phase("preprocess"):
                problem = build_problem(netlist, self.config)
            with profiling.phase("global"):
                global_result = GlobalPlacer(
                    problem, self.config,
                    initial_positions=initial_positions).run()
            legal_positions, legalize_stats = legalize(
                problem, global_result.positions, self.config)
            passes = self.config.resolved_detailed_passes(
                problem.auto_detailed_passes)
            if passes > 0:
                from .detailed import refine_placement
                legal_positions, detailed_stats = refine_placement(
                    problem, legal_positions, self.config,
                    max_passes=passes)
        runtime = time.perf_counter() - start

        layout = Layout(
            instances=problem.instances,
            positions=legal_positions,
            netlist=netlist,
            strategy=self.strategy_name,
        ).translated_to_origin()
        global_layout = Layout(
            instances=problem.instances,
            positions=global_result.positions,
            netlist=netlist,
            strategy=f"{self.strategy_name}-global",
        )
        return PlacementResult(
            layout=layout,
            global_layout=global_layout,
            problem=problem,
            global_result=global_result,
            legalize_stats=legalize_stats,
            runtime_s=runtime,
            detailed_stats=detailed_stats,
            phase_profile=prof.flat_seconds(),
        )


def place_topology(topology_name_or_netlist, config: Optional[PlacerConfig] = None
                   ) -> PlacementResult:
    """One-call helper: place a topology by name or a prebuilt netlist."""
    from ..devices.netlist import build_netlist
    from ..devices.topology import get_topology

    if isinstance(topology_name_or_netlist, QuantumNetlist):
        netlist = topology_name_or_netlist
    else:
        netlist = build_netlist(get_topology(topology_name_or_netlist))
    return QPlacer(config).place(netlist)
