"""Benchmark circuits, transpilation, and device mapping."""

from .circuit import QuantumCircuit, Schedule
from .gates import (
    BASIS_GATES,
    KNOWN_GATES,
    PARAMETRIC_GATES,
    TWO_QUBIT_GATES,
    Gate,
)
from .library import (
    PAPER_BENCHMARKS,
    all_paper_benchmarks,
    bernstein_vazirani,
    get_benchmark,
    ising_chain,
    qaoa,
    qgan,
)
from .mapping import (
    ROUTER_CHOICES,
    MappedCircuit,
    evaluation_mappings,
    initial_placement,
    interaction_weights,
    map_circuit,
    map_suite_arrays,
    route_basic_arrays,
    sample_connected_subset,
)
from .batch import ArrayCircuit

__all__ = [
    "ArrayCircuit",
    "BASIS_GATES",
    "Gate",
    "KNOWN_GATES",
    "MappedCircuit",
    "ROUTER_CHOICES",
    "PAPER_BENCHMARKS",
    "PARAMETRIC_GATES",
    "QuantumCircuit",
    "Schedule",
    "TWO_QUBIT_GATES",
    "all_paper_benchmarks",
    "bernstein_vazirani",
    "evaluation_mappings",
    "get_benchmark",
    "initial_placement",
    "interaction_weights",
    "ising_chain",
    "map_circuit",
    "map_suite_arrays",
    "qaoa",
    "qgan",
    "route_basic_arrays",
    "sample_connected_subset",
]
