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
from .mapping_reference import initial_placement_reference, route_reference
from .batch import ArrayCircuit
from .transpile import cancel_pairs, lower_to_basis, merge_rz, transpile

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
    "cancel_pairs",
    "evaluation_mappings",
    "get_benchmark",
    "initial_placement",
    "initial_placement_reference",
    "interaction_weights",
    "ising_chain",
    "lower_to_basis",
    "map_circuit",
    "map_suite_arrays",
    "merge_rz",
    "qaoa",
    "qgan",
    "route_basic_arrays",
    "route_reference",
    "sample_connected_subset",
    "transpile",
]
