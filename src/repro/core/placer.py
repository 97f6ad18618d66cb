"""Qplacer orchestrator (Fig. 7): the public placement entry point.

``QPlacer.place(netlist)`` is the one code path that runs the flow:

1. frequency assignment is already part of the netlist (Fig. 7-a);
2. preprocessing pads the instances and partitions the resonators
   (Fig. 7-b, :mod:`repro.core.preprocess`);
3. the frequency-aware electrostatic engine optimises positions
   (Fig. 7-c, :mod:`repro.core.engine`);
4. the integration-aware legalizer finalises the layout (Fig. 7-d,
   :mod:`repro.core.legalizer`);
5. the transactional detailed placer polishes wirelength
   (:mod:`repro.core.detailed`) for the config's pass count, which
   ``None`` resolves from the problem size.

Stages 4 and 5 run under one legalize config, so the detailed pass keeps
the rules the legalizer applied; it defaults to the placer's own.
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
        problem: The preprocessed placement problem.
        global_result: Optimizer telemetry; its ``positions`` are the
            (illegal) global-placement centres.
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
              initial_positions: Optional[np.ndarray] = None, *,
              legalize_config: Optional[PlacerConfig] = None
              ) -> PlacementResult:
        """Run the full placement flow on a netlist.

        Args:
            netlist: The netlist to place.
            initial_positions: Optional ``(n, 2)`` warm-start centres
                for the global placement (e.g. a cached layout of the
                same topology); ``None`` uses the seeded default.
            legalize_config: Config of the legalize and detailed stages
                (``None``: ``self.config``); preprocess and global
                placement always run under ``self.config``.
        """
        legal_config = (legalize_config if legalize_config is not None
                        else self.config)
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
                problem, global_result.positions, legal_config)
            passes = legal_config.resolved_detailed_passes(
                problem.auto_detailed_passes)
            if passes > 0:
                from .detailed import refine_placement
                legal_positions, detailed_stats = refine_placement(
                    problem, legal_positions, legal_config,
                    max_passes=passes)
        runtime = time.perf_counter() - start

        layout = Layout(
            instances=problem.instances,
            positions=legal_positions,
            netlist=netlist,
            strategy=self.strategy_name,
        ).translated_to_origin()
        return PlacementResult(
            layout=layout,
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
