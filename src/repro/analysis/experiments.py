"""Experiment pipelines for every table and figure of the paper.

Each function reproduces one evaluation artefact:

===============================  =========================================
function                         paper artefact
===============================  =========================================
:func:`build_suite`              one topology placed by all 3 strategies
:func:`fidelity_experiment`      Fig. 11 (per-benchmark fidelity bars)
:func:`summary_experiment`       Fig. 12 (avg fidelity / impacted / Ph)
:func:`area_experiment`          Fig. 13 (Amer ratios)
:func:`segment_sweep`            Fig. 15 + Table II (lb ablation)
:func:`pareto_points`            Fig. 1 (infidelity vs area)
:func:`coupling_vs_detuning`     Fig. 4
:func:`coupling_vs_distance`     Fig. 5-b
:func:`resonator_coupling_curves`  Fig. 6-b/c
===============================  =========================================

All pipelines share mappings across strategies (Sec. VI-A: "the same
mappings were used across all benchmarks and placers") and clamp reported
fidelities at 1e-4, mirroring the paper's "<1e-4" table entries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import constants, profiling
from ..baselines.human import human_layout
from ..circuits.library import PAPER_BENCHMARKS, get_benchmark
from ..circuits.mapping import MappedCircuit, evaluation_mappings
from ..core.config import PlacerConfig
from ..core.placer import PlacementResult, QPlacer
from ..crosstalk.fidelity import ViolationTable, estimate_program_fidelity
from ..crosstalk.noise_model import NoiseParams
from ..devices.layout import Layout
from ..devices.netlist import QuantumNetlist, build_netlist
from ..devices.topology import PAPER_TOPOLOGY_ORDER, Topology, get_topology
from ..physics import capacitance, coupling
from .metrics import LayoutMetrics, compute_layout_metrics

if TYPE_CHECKING:
    from ..service.requests import (EvaluateRequest, FidelityRequest,
                                    MapRequest, PlaceRequest)

#: The three placement strategies compared throughout the evaluation.
STRATEGIES: Tuple[str, ...] = ("qplacer", "classic", "human")

#: Fidelity floor matching the paper's "<1e-4" reporting convention.
FIDELITY_FLOOR = 1e-4


@dataclass
class PlacementSuite:
    """One topology placed by every strategy (the unit of evaluation).

    Attributes:
        topology: Device topology.
        netlist: Shared netlist (same frequency plan for all strategies).
        layouts: Strategy name -> layout.
        results: Strategy name -> engine result (None for "human").
    """

    topology: Topology
    netlist: QuantumNetlist
    layouts: Dict[str, Layout]
    results: Dict[str, Optional[PlacementResult]]

    def metrics(self) -> Dict[str, LayoutMetrics]:
        """Layout metrics for every strategy."""
        return {name: compute_layout_metrics(layout)
                for name, layout in self.layouts.items()}


def build_suite(topology_name: str,
                segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM,
                strategies: Sequence[str] = STRATEGIES,
                config: Optional[PlacerConfig] = None,
                initial_positions: Optional[Dict[str, np.ndarray]] = None
                ) -> PlacementSuite:
    """Place one topology with every requested strategy.

    All strategies share the netlist (hence the frequency plan), matching
    the paper's controlled comparison; Classic places with
    :meth:`PlacerConfig.classic` of the same config.

    Args:
        initial_positions: Optional per-strategy ``(n, 2)`` warm-start
            centres for the engine strategies (``"human"`` is
            constructive and ignores them).  Missing strategies fall
            back to the seeded default start.
    """
    topology = get_topology(topology_name)
    base = config if config is not None else PlacerConfig()
    base = base.with_segment_size(segment_size_mm)
    netlist = build_netlist(topology)
    seeds = initial_positions or {}
    layouts: Dict[str, Layout] = {}
    results: Dict[str, Optional[PlacementResult]] = {}
    for strategy in strategies:
        if strategy in ("qplacer", "classic"):
            config = base if strategy == "qplacer" \
                else PlacerConfig.classic(base)
            result = QPlacer(config).place(
                netlist, initial_positions=seeds.get(strategy))
            layouts[strategy] = result.layout
            results[strategy] = result
        elif strategy == "human":
            layouts[strategy] = human_layout(netlist, base)
            results[strategy] = None
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
    return PlacementSuite(topology=topology, netlist=netlist,
                          layouts=layouts, results=results)


# ---------------------------------------------------------------------------
# Fig. 11 — program fidelity per benchmark
# ---------------------------------------------------------------------------

def _suite_mappings(suite: PlacementSuite, benchmarks: Sequence[str],
                    num_mappings: int, base_seed: int,
                    runner: Optional["ParallelRunner"]
                    ) -> Dict[str, List[MappedCircuit]]:
    """Evaluation mappings per benchmark, cached when a store exists.

    Mapping batches depend only on (circuit, topology, seeds, transpiler
    config), so they route through the runner's store as
    :class:`~repro.analysis.runner.MappingJob` units — repeated fidelity
    studies then skip routing entirely.  Without a store (and without
    a pool) the direct computation is kept: the job detour would change
    nothing and the mapping results are identical either way.
    """
    from .runner import MappingJob, run_mapping_job
    from ..devices.topology import TOPOLOGY_FACTORIES
    from ..io.serialization import circuit_content_digest

    wanted = []
    for bench_name in benchmarks:
        circuit = get_benchmark(bench_name)
        if circuit.num_qubits > suite.topology.num_qubits:
            continue
        wanted.append((bench_name, circuit))
    # Jobs rebuild the topology by registry name; fall back to direct
    # computation for unregistered custom topologies.
    use_jobs = runner is not None \
        and (runner.store is not None or runner.max_workers > 1) \
        and suite.topology.name in TOPOLOGY_FACTORIES
    if use_jobs:
        # The circuit is already in hand, so content-address each job
        # directly — identically-shaped workloads under different names
        # share one cache token (see MappingJob.cache_key).
        jobs = [MappingJob(benchmark=name, topology=suite.topology.name,
                           num_mappings=num_mappings, base_seed=base_seed,
                           circuit_digest=circuit_content_digest(circuit))
                for name, circuit in wanted]
        batches = runner.map(run_mapping_job, jobs, namespace="mappings")
        return {name: batch for (name, _), batch in zip(wanted, batches)}
    return {
        name: evaluation_mappings(circuit, suite.topology,
                                  num_mappings=num_mappings,
                                  base_seed=base_seed)
        for name, circuit in wanted
    }


def fidelity_experiment(suite: PlacementSuite,
                        benchmarks: Sequence[str] = PAPER_BENCHMARKS,
                        num_mappings: int = constants.DEFAULT_NUM_MAPPINGS,
                        params: NoiseParams = NoiseParams(),
                        base_seed: int = 0,
                        runner: Optional["ParallelRunner"] = None,
                        shard_index: Optional[int] = None,
                        shard_count: Optional[int] = None
                        ) -> Dict[str, Dict[str, float]]:
    """Average program fidelity per benchmark per strategy (Fig. 11).

    Benchmarks wider than the device are skipped (every Table I
    benchmark fits every Table I topology).  Mapping batches go through
    the ``runner``'s store when it has one, so re-running a fidelity
    study recomputes no routing.

    Passing ``shard_index``/``shard_count`` restricts the run to the
    deterministic ``benchmarks[shard_index::shard_count]`` slice — the
    cross-machine contract of the ``workloads evaluate`` CLI: N
    machines given the same benchmark list and distinct indices
    partition it exactly, and merging their tables with
    :func:`repro.workloads.merge_fidelity_shards` reproduces the
    unsharded run bit for bit.
    """
    if (shard_index is None) != (shard_count is None):
        raise ValueError("shard_index and shard_count must be given together")
    if shard_index is not None:
        from ..workloads.sharding import shard_items

        benchmarks = shard_items(tuple(benchmarks), shard_index, shard_count)
    violations = {
        name: ViolationTable.build(layout)
        for name, layout in suite.layouts.items()
    }
    mappings_by_bench = _suite_mappings(suite, benchmarks, num_mappings,
                                        base_seed, runner)
    table: Dict[str, Dict[str, float]] = {}
    for bench_name, mappings in mappings_by_bench.items():
        row: Dict[str, float] = {}
        for strategy, layout in suite.layouts.items():
            total = 0.0
            for mapped in mappings:
                total += estimate_program_fidelity(
                    layout, mapped, params,
                    violations=violations[strategy]).total
            row[strategy] = max(total / len(mappings), FIDELITY_FLOOR)
        table[bench_name] = row
    return table


def sharded_fidelity_experiment(
        topology_name: str,
        workloads: Sequence[str] | str = "paper-8",
        shard_count: Optional[int] = None,
        num_mappings: int = constants.DEFAULT_NUM_MAPPINGS,
        base_seed: int = 0,
        segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM,
        strategies: Sequence[str] = STRATEGIES,
        config: Optional[PlacerConfig] = None,
        runner: Optional["ParallelRunner"] = None
        ) -> Dict[str, Dict[str, float]]:
    """Fan a wide workload's fidelity study across the process pool.

    The workload list (a suite name like ``"condor-433"`` or explicit
    registry names) splits into ``shard_count`` round-robin
    :class:`~repro.analysis.runner.WorkloadShardJob` units; each worker
    rebuilds the placement suite from its description (one store hit
    per worker when the runner has a store) and scores only its
    slice.  The merged table is bit-identical to a single-process
    :func:`fidelity_experiment` over the same list — sharding changes
    wall-clock, never results.

    Args:
        topology_name: Registered topology to place and score.
        workloads: Suite name or sequence of workload names.
        shard_count: Number of shards; defaults to
            ``min(len(workloads), runner.max_workers)``.
        num_mappings: Mapping subsets per benchmark.
        base_seed: First mapping-subset seed.
        segment_size_mm: Resonator segment size for the placement.
        strategies: Placement strategies to score.
        config: Base placer configuration.
        runner: Job runner (process pool + store); default-constructed
            when omitted.
    """
    from ..workloads import merge_fidelity_shards, resolve_workload_names
    from .runner import (ParallelRunner, PlacementJob, WorkloadShardJob,
                         run_workload_shard)

    names = resolve_workload_names(workloads)
    if not names:
        return {}
    if runner is None:
        runner = ParallelRunner()
    if shard_count is None:
        shard_count = min(len(names), runner.max_workers)
    shard_count = max(1, min(shard_count, len(names)))
    placement = PlacementJob(topology=topology_name,
                             segment_size_mm=segment_size_mm,
                             strategies=tuple(strategies), config=config)
    if runner.store is not None:
        # Pre-place once so pool workers hit the store instead of each
        # redoing the (dominant) placement.
        runner.run_suites([placement])
    jobs = [WorkloadShardJob(placement=placement, workloads=names,
                             shard_index=index, shard_count=shard_count,
                             num_mappings=num_mappings, base_seed=base_seed)
            for index in range(shard_count)]
    partials = runner.map(
        functools.partial(run_workload_shard, store=runner.store), jobs,
        namespace="workload_shard")
    return merge_fidelity_shards(partials, order=names)


# ---------------------------------------------------------------------------
# Fig. 12 — summary: average fidelity, impacted qubits, Ph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummaryRow:
    """One (topology, strategy) row of the Fig. 12 comparison."""

    topology: str
    strategy: str
    avg_fidelity: float
    impacted_qubits: int
    ph_percent: float


def summary_experiment(suite: PlacementSuite,
                       benchmarks: Sequence[str] = PAPER_BENCHMARKS,
                       num_mappings: int = constants.DEFAULT_NUM_MAPPINGS,
                       params: NoiseParams = NoiseParams(),
                       fidelity: Optional[Dict[str, Dict[str, float]]] = None
                       ) -> List[SummaryRow]:
    """Fig. 12 rows for one topology.

    Pass a precomputed ``fidelity`` table (from
    :func:`fidelity_experiment`) to avoid re-running the mappings.
    """
    if fidelity is None:
        fidelity = fidelity_experiment(suite, benchmarks, num_mappings, params)
    metrics = suite.metrics()
    rows: List[SummaryRow] = []
    for strategy in suite.layouts:
        values = [fidelity[b][strategy] for b in fidelity]
        rows.append(SummaryRow(
            topology=suite.topology.name,
            strategy=strategy,
            avg_fidelity=float(np.mean(values)) if values else 0.0,
            impacted_qubits=metrics[strategy].impacted_qubits,
            ph_percent=metrics[strategy].ph_percent,
        ))
    return rows


# ---------------------------------------------------------------------------
# Fig. 13 — area ratios
# ---------------------------------------------------------------------------

def area_experiment(suite: PlacementSuite) -> Dict[str, float]:
    """``Amer`` ratios relative to Qplacer (Fig. 13)."""
    qplacer_amer = suite.layouts["qplacer"].amer()
    return {name: layout.amer() / qplacer_amer
            for name, layout in suite.layouts.items()}


# ---------------------------------------------------------------------------
# Fig. 15 + Table II — segment-size sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One (topology, lb) entry of Fig. 15 / Table II."""

    topology: str
    segment_size_mm: float
    num_cells: int
    utilization: float
    ph_percent: float
    runtime_s: float
    avg_iteration_s: float


def segment_sweep(topology_name: str,
                  segment_sizes: Sequence[float] = constants.SEGMENT_SIZE_SWEEP_MM,
                  config: Optional[PlacerConfig] = None,
                  runner: Optional["ParallelRunner"] = None) -> List[SweepRow]:
    """Sweep the resonator segment size ``lb`` (Fig. 15, Table II).

    Sweep points are independent placement jobs, so they fan out across
    the ``runner``'s worker pool (a default runner is created when none
    is passed).
    """
    from .runner import ParallelRunner, PlacementJob, SweepJob, run_sweep_job

    if runner is None:
        runner = ParallelRunner()
    jobs = [SweepJob(PlacementJob(topology=topology_name,
                                  segment_size_mm=lb,
                                  strategies=("qplacer",),
                                  config=config))
            for lb in segment_sizes]
    return runner.map(run_sweep_job, jobs, namespace="sweep")


# ---------------------------------------------------------------------------
# Fig. 1 — infidelity vs area Pareto sketch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParetoPoint:
    """One strategy's (area, infidelity) point for one topology."""

    topology: str
    strategy: str
    amer_mm2: float
    infidelity: float


def pareto_points(suite: PlacementSuite,
                  benchmarks: Sequence[str] = ("bv-4", "qgan-4", "ising-4"),
                  num_mappings: int = 10,
                  params: NoiseParams = NoiseParams()) -> List[ParetoPoint]:
    """Fig. 1's qualitative scatter: infidelity vs required area."""
    fidelity = fidelity_experiment(suite, benchmarks, num_mappings, params)
    points: List[ParetoPoint] = []
    for strategy, layout in suite.layouts.items():
        values = [fidelity[b][strategy] for b in fidelity]
        avg = float(np.mean(values)) if values else 0.0
        points.append(ParetoPoint(
            topology=suite.topology.name,
            strategy=strategy,
            amer_mm2=layout.amer(),
            infidelity=1.0 - avg,
        ))
    return points


# ---------------------------------------------------------------------------
# Figs. 4 / 5-b / 6 — physics curves
# ---------------------------------------------------------------------------

def coupling_vs_detuning(freq1_ghz: float = 5.0,
                         freq2_range_ghz: Tuple[float, float] = (4.6, 5.4),
                         num_points: int = 81,
                         g_ghz: float = 0.025) -> Dict[str, np.ndarray]:
    """Fig. 4: effective qubit-qubit coupling as ``w2`` sweeps past ``w1``."""
    freq2 = np.linspace(freq2_range_ghz[0], freq2_range_ghz[1], num_points)
    effective = coupling.smooth_exchange_ghz(g_ghz, freq2 - freq1_ghz)
    return {"freq2_ghz": freq2, "effective_coupling_ghz": effective}


def coupling_vs_distance(distance_range_mm: Tuple[float, float] = (0.02, 2.0),
                         num_points: int = 100,
                         freq_ghz: float = 5.0,
                         detuning_ghz: float = 0.3) -> Dict[str, np.ndarray]:
    """Fig. 5-b: Cp, g and g_eff versus qubit separation."""
    d = np.linspace(distance_range_mm[0], distance_range_mm[1], num_points)
    cp = capacitance.qubit_parasitic_capacitance_ff(d)
    g = coupling.qubit_qubit_coupling_ghz(freq_ghz, freq_ghz + detuning_ghz, cp)
    g_eff = g * g / detuning_ghz
    return {"distance_mm": d, "cp_ff": cp, "g_ghz": np.asarray(g),
            "g_eff_ghz": np.asarray(g_eff)}


def resonator_coupling_curves(distance_range_mm: Tuple[float, float] = (0.02, 1.0),
                              num_points: int = 100,
                              adjacent_length_mm: float = 1.0,
                              freq_ghz: float = 6.5
                              ) -> Dict[str, np.ndarray]:
    """Fig. 6-b/c: resonator-resonator coupling vs detuning and distance."""
    d = np.linspace(distance_range_mm[0], distance_range_mm[1], num_points)
    cp = capacitance.resonator_parasitic_capacitance_ff(d, adjacent_length_mm)
    g_dist = coupling.resonator_resonator_coupling_ghz(freq_ghz, freq_ghz, cp)
    freq2 = np.linspace(freq_ghz - 0.5, freq_ghz + 0.5, num_points)
    g0 = coupling.resonator_resonator_coupling_ghz(
        freq_ghz, freq_ghz,
        capacitance.resonator_parasitic_capacitance_ff(0.1, adjacent_length_mm))
    g_freq = coupling.smooth_exchange_ghz(g0, freq2 - freq_ghz)
    return {"distance_mm": d, "cp_ff": np.asarray(cp),
            "g_vs_distance_ghz": np.asarray(g_dist),
            "freq2_ghz": freq2, "g_vs_detuning_ghz": np.asarray(g_freq)}


def run_full_evaluation(topology_names: Sequence[str] = PAPER_TOPOLOGY_ORDER,
                        benchmarks: Sequence[str] = PAPER_BENCHMARKS,
                        num_mappings: int = constants.DEFAULT_NUM_MAPPINGS,
                        segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM,
                        config: Optional[PlacerConfig] = None,
                        runner: Optional["ParallelRunner"] = None
                        ) -> Dict[str, Dict[str, object]]:
    """The paper's whole evaluation: Figs. 11-13 for every topology.

    Each topology is one :class:`~repro.analysis.runner.EvaluationJob`
    dispatched through the ``runner`` (process pool + store);
    results are assembled in topology order, so the output is identical
    to a serial evaluation regardless of worker count.

    Returns a nested dict keyed by topology with ``fidelity`` (Fig. 11),
    ``summary`` (Fig. 12), and ``area_ratio`` (Fig. 13) entries.
    """
    from .runner import (EvaluationJob, ParallelRunner, PlacementJob,
                         run_topology_evaluation)

    if runner is None:
        runner = ParallelRunner()
    jobs = [
        EvaluationJob(
            placement=PlacementJob(topology=name,
                                   segment_size_mm=segment_size_mm,
                                   config=config),
            benchmarks=tuple(benchmarks),
            num_mappings=num_mappings,
        )
        for name in topology_names
    ]
    results = runner.map(
        functools.partial(run_topology_evaluation, store=runner.store),
        jobs, namespace="evaluation")
    return dict(zip(topology_names, results))


# ---------------------------------------------------------------------------
# Service entry points — request-shaped pipelines with JSON-able payloads
# ---------------------------------------------------------------------------
#
# The placement service (:mod:`repro.service`) executes validated
# requests through these functions.  Each takes exactly the fields of
# its request dataclass plus a runner, reuses the job pipelines above,
# and returns a plain-JSON payload — the artifact the store persists
# and the HTTP API serves.  The evaluate payload is *value-identical*
# to converting a direct :func:`run_full_evaluation` with
# :func:`evaluation_payload` (the service bench's bit-identity gate).

def _effective_config(config: Optional[PlacerConfig], seed: int,
                      segment_size_mm: float) -> PlacerConfig:
    """One rule for folding (config, seed, lb) request fields together."""
    from dataclasses import replace

    base = config if config is not None else PlacerConfig()
    return replace(base.with_segment_size(segment_size_mm), seed=seed)


def placement_payload(suite: PlacementSuite, segment_size_mm: float,
                      include_layouts: bool = True) -> Dict[str, object]:
    """JSON-able summary (and optionally layouts) of a placed suite."""
    from dataclasses import asdict

    from ..io.serialization import layout_to_dict

    strategies: Dict[str, object] = {}
    for name, layout in suite.layouts.items():
        metrics = compute_layout_metrics(layout)
        entry: Dict[str, object] = {"metrics": asdict(metrics)}
        result = suite.results.get(name)
        if result is not None:
            entry["num_cells"] = result.num_cells
            entry["iterations"] = result.iterations
            entry["runtime_s"] = result.runtime_s
            entry["legalize"] = asdict(result.legalize_stats)
            entry["detailed"] = (asdict(result.detailed_stats)
                                 if result.detailed_stats is not None
                                 else None)
            entry["phases"] = dict(result.phase_profile)
        if include_layouts:
            entry["layout"] = layout_to_dict(layout, segment_size_mm)
        strategies[name] = entry
    return {"topology": suite.topology.name,
            "segment_size_mm": segment_size_mm,
            "strategies": strategies}


def evaluation_payload(results: Dict[str, Dict[str, object]]
                       ) -> Dict[str, object]:
    """JSON-able form of a :func:`run_full_evaluation` result.

    Summary rows become field dicts; everything else already is plain
    data.  Shared by the direct pipeline and the service executor so
    "service result == direct result" is a dict comparison.
    """
    from dataclasses import asdict

    payload: Dict[str, object] = {}
    for topology, entry in results.items():
        payload[topology] = {
            "fidelity": entry["fidelity"],
            "summary": [asdict(row) for row in entry["summary"]],
            "area_ratio": entry["area_ratio"],
        }
    return payload


def warm_start_positions(store, topology: str, segment_size_mm: float,
                         strategies: Sequence[str]
                         ) -> Tuple[Dict[str, np.ndarray], Optional[str]]:
    """Per-strategy warm-start seeds from the nearest stored placement.

    Looks up :meth:`~repro.service.store.ArtifactStore.
    nearest_placement` and extracts each requested strategy's stored
    positions; a strategy absent from the artifact falls back to any
    available layout (a different strategy's converged placement is
    still a far better start than the seeded random cloud).  Returns
    ``({}, None)`` when the store holds no usable artifact.
    """
    record = store.nearest_placement(topology,
                                     segment_size_mm=segment_size_mm)
    if record is None:
        return {}, None
    stored = {
        name: np.asarray(entry["layout"]["positions"], dtype=float)
        for name, entry in record.result.get("strategies", {}).items()
        if isinstance(entry, dict) and entry.get("layout")
        and entry["layout"].get("positions")
    }
    if not stored:
        return {}, None
    fallback = next(iter(stored.values()))
    seeds = {name: stored.get(name, fallback) for name in strategies
             if name != "human"}
    return seeds, record.digest


def _accumulate_payload_phases(payload: Dict[str, object]) -> None:
    """Fold a place payload's per-strategy phase timings into the
    process-global profile (the service's ``/metrics`` ``"phases"``
    block).  Runs in the service process even when the placement itself
    ran in a worker — the payload carries the timings across."""
    for entry in payload.get("strategies", {}).values():
        if isinstance(entry, dict) and entry.get("phases"):
            profiling.accumulate(entry["phases"])


def run_place_request(request: "PlaceRequest", runner: "ParallelRunner",
                      store=None) -> Dict[str, object]:
    """Execute one service place request (a cached PlacementJob).

    With ``request.warm_start`` (and a store to scan), the engines are
    seeded from the nearest stored placement of the topology.  The warm
    path bypasses the runner's suite cache: its result depends on store
    contents a :class:`~repro.analysis.runner.PlacementJob` token
    cannot describe.
    """
    from .runner import PlacementJob

    lb = request.segment_size_mm
    if request.warm_start and store is not None:
        seeds, source = warm_start_positions(
            store, request.topology, lb, request.strategies)
        if seeds:
            suite = build_suite(
                request.topology, segment_size_mm=lb,
                strategies=request.strategies,
                config=_effective_config(request.config, request.seed, lb),
                initial_positions=seeds)
            payload = placement_payload(
                suite, lb, include_layouts=request.include_layouts)
            payload["warm_start"] = {"seeded": True,
                                     "source_digest": source}
            _accumulate_payload_phases(payload)
            return payload
    job = PlacementJob(topology=request.topology, segment_size_mm=lb,
                       strategies=request.strategies, config=request.config,
                       seed=request.seed)
    suite = runner.run_suites([job])[0]
    payload = placement_payload(suite, lb,
                                include_layouts=request.include_layouts)
    if request.warm_start:
        # Requested but nothing to seed from: record the cold fallback
        # so clients can tell the two cases apart.
        payload["warm_start"] = {"seeded": False, "source_digest": None}
    _accumulate_payload_phases(payload)
    return payload


def run_fidelity_request(request: "FidelityRequest",
                         runner: "ParallelRunner",
                         shard_count: Optional[int] = None
                         ) -> Dict[str, object]:
    """Execute one service fidelity request (sharded over the runner)."""
    fidelity = sharded_fidelity_experiment(
        request.topology, workloads=request.workloads,
        shard_count=shard_count, num_mappings=request.num_mappings,
        base_seed=request.base_seed,
        segment_size_mm=request.segment_size_mm,
        strategies=request.strategies,
        config=_effective_config(request.config, request.seed,
                                 request.segment_size_mm),
        runner=runner)
    return {"topology": request.topology,
            "workloads": list(request.workloads),
            "num_mappings": request.num_mappings,
            "base_seed": request.base_seed, "fidelity": fidelity}


def run_map_request(request: "MapRequest", runner: "ParallelRunner",
                    chunk_size: Optional[int] = None) -> Dict[str, object]:
    """Execute one service map request.

    With a ``chunk_size`` option the batch fans across the runner as
    composable seed-range :class:`~repro.analysis.runner.MappingJob`
    chunks (identical output, shared cache namespace); otherwise it is
    one cached whole-batch job.  The payload is the JSON-able
    per-mapping summary — the heavyweight mapped circuits stay in the
    runner's pickle cache for fidelity studies to reuse.
    """
    from .runner import (MappingJob, run_mapping_job,
                         run_mapping_job_sharded, with_circuit_digest)

    job = with_circuit_digest(
        MappingJob(benchmark=request.benchmark, topology=request.topology,
                   num_mappings=request.num_mappings,
                   base_seed=request.base_seed, router=request.router,
                   optimization_level=request.optimization_level))
    if chunk_size is not None:
        mappings = run_mapping_job_sharded(job, runner,
                                           chunk_size=chunk_size)
    else:
        mappings = runner.map(run_mapping_job, [job],
                              namespace="mappings")[0]
    rows = []
    for k, mapped in enumerate(mappings):
        n_single, n_two = mapped.timed_gate_totals()
        rows.append({
            "seed": request.base_seed + k,
            "swap_count": mapped.swap_count,
            "duration_ns": mapped.duration_ns,
            "active_qubits": int(mapped.active_qubit_mask.sum()),
            "two_qubit_gates": n_two,
            "timed_single_qubit_gates": n_single,
        })
    return {"benchmark": request.benchmark, "topology": request.topology,
            "router": request.router,
            "optimization_level": request.optimization_level,
            "num_mappings": request.num_mappings,
            "base_seed": request.base_seed,
            "circuit_digest": job.circuit_digest,
            "total_swaps": sum(r["swap_count"] for r in rows),
            "mappings": rows}


def run_evaluate_request(request: "EvaluateRequest",
                         runner: "ParallelRunner") -> Dict[str, object]:
    """Execute one service evaluate request (the whole-paper pipeline)."""
    results = run_full_evaluation(
        topology_names=request.topologies, benchmarks=request.benchmarks,
        num_mappings=request.num_mappings,
        segment_size_mm=request.segment_size_mm,
        config=_effective_config(request.config, request.seed,
                                 request.segment_size_mm),
        runner=runner)
    return evaluation_payload(results)
