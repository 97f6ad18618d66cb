"""Qplacer reproduction: frequency-aware component placement for
superconducting quantum computers (Zhang et al., ISCA 2025).

Quickstart::

    from repro import QPlacer, build_netlist, get_topology
    from repro.crosstalk import hotspot_report

    netlist = build_netlist(get_topology("falcon-27"))
    result = QPlacer().place(netlist)
    print(result.layout.amer(), hotspot_report(result.layout).ph_percent)

Subpackages:

* :mod:`repro.devices` — topologies, components, netlists, layouts.
* :mod:`repro.physics` — superconducting-circuit coupling models.
* :mod:`repro.circuits` — NISQ benchmarks, transpiler, mapper.
* :mod:`repro.core` — the frequency-aware electrostatic placer.
* :mod:`repro.crosstalk` — violations, hotspots, fidelity estimation.
* :mod:`repro.baselines` — the Human comparison layout.  The Classic
  baseline is ``QPlacer(PlacerConfig.classic(config))``: the same config
  with the frequency-aware mechanisms switched off.
* :mod:`repro.analysis` — per-figure experiment pipelines and reports.
* :mod:`repro.io` — JSON/SVG/GDSII export.
"""

from . import constants
from .analysis import build_suite, run_full_evaluation
from .baselines import human_layout
from .core import PlacementResult, PlacerConfig, QPlacer, place_topology
from .devices import (
    FrequencyPlan,
    Layout,
    QuantumNetlist,
    Topology,
    assign_frequencies,
    build_netlist,
    get_topology,
)

__version__ = "1.0.0"

__all__ = [
    "FrequencyPlan",
    "Layout",
    "PlacementResult",
    "PlacerConfig",
    "QPlacer",
    "QuantumNetlist",
    "Topology",
    "assign_frequencies",
    "build_netlist",
    "build_suite",
    "constants",
    "get_topology",
    "human_layout",
    "place_topology",
    "run_full_evaluation",
    "__version__",
]
