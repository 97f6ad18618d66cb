"""Transpile/routing throughput trajectory: legacy vs batched engine.

The batched engine (:mod:`repro.circuits.batch` array transpiler +
:mod:`repro.circuits.sabre` vectorized SABRE kernel) exists so
condor-scale workloads compile in seconds instead of minutes.  This
harness records the trajectory and enforces the contract:

* **paper-8 identity**: on all eight Table I benchmarks the batched
  transpiler must reproduce the legacy gate *sequence* (hence gate
  counts and depth) exactly;
* **SABRE identity**: the vectorized router must emit the same swaps,
  same routed gate order, and same final mapping as the preserved seed
  implementation (:mod:`tests.oracles.sabre`);
* **>=3x on >=100-qubit workloads**: the batched transpiler must beat
  the legacy path by :data:`MIN_TRANSPILE_SPEEDUP` on every recorded
  routed workload at least 100 qubits wide;
* **shard merge identity**: a 2-shard
  :func:`~repro.analysis.experiments.sharded_fidelity_experiment`
  merge must equal the single-process run bit for bit (grid-25 in
  smoke mode; a condor-sm-433 study over >=100-qubit workloads under
  ``REPRO_BENCH_FULL=1``).

Machine-readable JSON goes to ``benchmarks/results/perf_transpile.json``
so every PR can compare against its predecessors.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Tuple

from repro.analysis.experiments import (build_suite, fidelity_experiment,
                                        sharded_fidelity_experiment)
from repro.analysis.runner import ParallelRunner
from repro.circuits.batch import ArrayCircuit, transpile_arrays
from repro.circuits.library import PAPER_BENCHMARKS, get_benchmark
from repro.circuits.mapping import (initial_placement,
                                    sample_connected_subset)
from repro.circuits.sabre import route_sabre_arrays
from repro.devices.topology import get_topology
from repro.workloads import get_workload
from tests.oracles.circuit import count_ops
from tests.oracles.sabre import route_sabre_reference
from tests.oracles.transpile import transpile

from conftest import FULL, emit

#: Required batched-transpiler speedup on >=100-qubit routed workloads.
MIN_TRANSPILE_SPEEDUP = 3.0

#: Routed workloads timed by the transpile comparison:
#: (workload name, topology, mapping seed).
WIDE_WORKLOADS: Tuple[Tuple[str, str, int], ...] = (
    ("ghz-433", "condor-sm-433", 0),
    ("qaoa-216", "condor-sm-433", 0),
    ("hhqaoa-433", "condor-sm-433", 0),
) + ((("qft-128", "condor-sm-433", 0),) if FULL else ())

#: Instances timed by the SABRE router comparison.
SABRE_CASES: Tuple[Tuple[str, str, int], ...] = (
    ("qaoa-120", "condor-sm-433", 0),
    ("qft-32", "eagle-127", 0),
)


def _time(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _transpile_decoded(circuit):
    """The batched transpiler on a ``Gate``-list circuit, decoded back."""
    return transpile_arrays(ArrayCircuit.from_circuit(circuit)).to_circuit()


def _sabre_decoded(circuit, topology, mapping):
    """Vectorized SABRE decoded to a ``Gate`` list, as the reference
    router returns it."""
    arrays, final, swaps = route_sabre_arrays(circuit, topology, mapping)
    return arrays.to_circuit(), final, swaps


def _paper8_identity(repeats: int) -> Dict[str, Dict[str, object]]:
    """Legacy vs batched transpile on the eight Table I benchmarks."""
    rows: Dict[str, Dict[str, object]] = {}
    for name in PAPER_BENCHMARKS:
        circuit = get_benchmark(name)
        legacy_s, legacy = _time(lambda c=circuit: transpile(c), repeats)
        batched_s, batched = _time(
            lambda c=circuit: _transpile_decoded(c), repeats)
        rows[name] = {
            "gates": batched.size,
            "depth": batched.depth(),
            "counts_identical": count_ops(legacy) == count_ops(batched),
            "depth_identical": legacy.depth() == batched.depth(),
            "sequence_identical": legacy.gates == batched.gates,
            "legacy_s": round(legacy_s, 5),
            "batched_s": round(batched_s, 5),
        }
    return rows


def _routed(workload: str, topology_name: str, seed: int):
    """Route one workload with the batched SABRE; returns the IR circuit."""
    circuit = get_workload(workload)
    topology = get_topology(topology_name)
    subset = sample_connected_subset(topology, circuit.num_qubits, seed)
    mapping = initial_placement(circuit, topology, subset)
    routed, _, swaps = _sabre_decoded(circuit, topology, mapping)
    return circuit, routed, swaps


def _wide_transpile(repeats: int) -> List[Dict[str, object]]:
    """Legacy vs batched transpile on routed >=100-qubit workloads."""
    rows = []
    repeats = max(repeats, 3)  # the >=3x gate deserves stable timings
    for workload, topology_name, seed in WIDE_WORKLOADS:
        circuit, routed, swaps = _routed(workload, topology_name, seed)
        legacy_s, legacy = _time(lambda c=routed: transpile(c), repeats)
        batched_s, batched = _time(
            lambda c=routed: _transpile_decoded(c), repeats)
        rows.append({
            "workload": workload,
            "topology": topology_name,
            "width": circuit.num_qubits,
            "routed_gates": routed.size,
            "swaps": swaps,
            "basis_gates": batched.size,
            "sequence_identical": legacy.gates == batched.gates,
            "legacy_s": round(legacy_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(legacy_s / batched_s, 2),
        })
    return rows


def _sabre_comparison(repeats: int) -> List[Dict[str, object]]:
    """Reference vs vectorized SABRE on routing-heavy instances."""
    rows = []
    for workload, topology_name, seed in SABRE_CASES:
        circuit = get_workload(workload)
        topology = get_topology(topology_name)
        subset = sample_connected_subset(topology, circuit.num_qubits, seed)
        mapping = initial_placement(circuit, topology, subset)
        topology.hop_distance_matrix()  # warm the shared cache
        ref_s, ref = _time(
            lambda: route_sabre_reference(circuit, topology, dict(mapping)),
            repeats)
        vec_s, vec = _time(
            lambda: _sabre_decoded(circuit, topology, dict(mapping)),
            repeats)
        rows.append({
            "workload": workload,
            "topology": topology_name,
            "swaps": vec[2],
            "swaps_identical": ref[2] == vec[2],
            "sequence_identical": ref[0].gates == vec[0].gates,
            "mapping_identical": ref[1] == vec[1],
            "reference_s": round(ref_s, 4),
            "vectorized_s": round(vec_s, 4),
            "speedup": round(ref_s / vec_s, 2),
        })
    return rows


def _shard_merge_identity() -> Dict[str, object]:
    """Gate: merging a 2-shard run equals the single-process run."""
    if FULL:
        topology = "condor-sm-433"
        workloads = ("ghz-433", "hhqaoa-433", "bv-256", "qaoa-216")
        num_mappings = 2
    else:
        topology = "grid-25"
        workloads = ("bv-9", "ghz-9", "qaoa-9", "clifford-9-d4-s1")
        num_mappings = 4
    strategies = ("qplacer",)
    start = time.perf_counter()
    suite = build_suite(topology, strategies=strategies)
    single = fidelity_experiment(suite, benchmarks=workloads,
                                 num_mappings=num_mappings)
    single_s = time.perf_counter() - start
    start = time.perf_counter()
    merged = sharded_fidelity_experiment(
        topology, workloads=workloads, shard_count=2,
        num_mappings=num_mappings, strategies=strategies,
        runner=ParallelRunner(max_workers=1))
    sharded_s = time.perf_counter() - start
    return {
        "topology": topology,
        "workloads": list(workloads),
        "num_mappings": num_mappings,
        "min_width": min(get_workload(w).num_qubits for w in workloads),
        "merge_identical": merged == single,
        "order_identical": list(merged) == list(single),
        "single_process_s": round(single_s, 2),
        "sharded_s": round(sharded_s, 2),
        "fidelity": {name: {s: float(v) for s, v in row.items()}
                     for name, row in merged.items()},
    }


def test_perf_transpile(results_dir):
    repeats = 3 if FULL else 2
    report: Dict[str, object] = {
        "bench": "perf_transpile",
        "mode": "full" if FULL else "smoke",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "min_transpile_speedup": MIN_TRANSPILE_SPEEDUP,
        "paper8": _paper8_identity(repeats),
        "wide_transpile": _wide_transpile(repeats),
        "sabre": _sabre_comparison(repeats),
        "shard_merge": _shard_merge_identity(),
    }

    text = json.dumps(report, indent=2)
    emit(results_dir, "perf_transpile", text)
    (results_dir / "perf_transpile.json").write_text(text + "\n")

    # -- gates ----------------------------------------------------------
    for name, row in report["paper8"].items():
        assert row["counts_identical"] and row["depth_identical"], \
            f"{name}: batched transpiler diverged from legacy counts/depth"
        assert row["sequence_identical"], \
            f"{name}: batched transpiler changed the gate sequence"
    for row in report["wide_transpile"]:
        assert row["sequence_identical"], \
            f"{row['workload']}: batched transpiler diverged on routed circuit"
        if row["width"] >= 100:
            assert row["speedup"] >= MIN_TRANSPILE_SPEEDUP, \
                (f"{row['workload']} ({row['width']}q): transpile speedup "
                 f"{row['speedup']}x < {MIN_TRANSPILE_SPEEDUP}x")
    for row in report["sabre"]:
        assert row["swaps_identical"] and row["sequence_identical"] \
            and row["mapping_identical"], \
            f"{row['workload']}: vectorized SABRE diverged from reference"
    shard = report["shard_merge"]
    assert shard["merge_identical"] and shard["order_identical"], \
        "sharded fidelity merge is not bit-identical to the single run"
    if FULL:
        assert shard["min_width"] >= 100, \
            "full-mode shard gate must cover a >=100-qubit suite"
