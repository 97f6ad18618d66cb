"""Parallel experiment orchestration: jobs, process pools, result cache.

Every evaluation artefact of the paper decomposes into *placement jobs*
— (topology, config, seed) triples placed by one or more strategies —
followed by cheap aggregation.  This module turns that shape into a
subsystem:

* :class:`PlacementJob` — a frozen, hashable description of one
  placement unit of work with deterministic per-job seeding;
* :class:`ParallelRunner` — fans job lists across a
  ``concurrent.futures`` process pool (falling back to in-process
  execution for single workers) with an optional on-disk result cache
  keyed by a config/topology hash;
* module-level worker functions (:func:`run_placement_job`,
  :func:`run_topology_evaluation`, ...) that the experiment pipelines
  submit, picklable by construction.

Determinism: a job's outcome depends only on its fields — workers
receive the full job description and recompute from scratch, so a
parallel run is bit-identical to a serial run of the same jobs, and a
cache hit returns exactly what the original execution produced (results
round-trip through pickle, which preserves float64 bit patterns).

Cache layout: ``<cache_dir>/<namespace>/<sha256-of-job>.pkl``.  The
cache directory defaults to the ``REPRO_CACHE_DIR`` environment
variable; caching is disabled when neither that variable nor the
``cache_dir`` argument is set.  Hashes cover the job fields, the full
placer configuration, and :data:`CACHE_SCHEMA_VERSION` — bump the
version whenever an algorithm change invalidates previous results.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import constants
from ..core.config import PlacerConfig
from ..io.atomic import atomic_write_bytes
from ..io.serialization import canonical_json

#: Bump when placement/evaluation semantics change so stale cached
#: results are never returned.  The version is hashed into every runner
#: job token *and* every service artifact digest
#: (:mod:`repro.service.store`), so one bump invalidates both layers.
#: 2: interaction-backend config fields; condor topologies; mapping jobs.
#: 3: mapping-protocol fixes — fixed subset start-node cycling and
#:    canonical shortest-path tie-breaking change every MappingJob
#:    batch (and everything downstream of evaluation_mappings).
#: 4: MappedCircuit grew columnar gate arrays (pickled mapping payloads
#:    changed shape; fidelity numbers are unchanged).
#: 5: incremental placement engine — PlacerConfig grew the banding /
#:    incremental-density switches and PlaceRequest grew ``warm_start``
#:    (both re-key every config-bearing digest), and sparse-backend
#:    topologies (condor tiers) converge along a different numeric
#:    trajectory under incremental density.
#: 6: placement telemetry — payload strategy entries grew ``legalize``
#:    / ``detailed`` / ``phases`` blocks, PlacerConfig grew
#:    ``detailed_passes`` / ``legalizer_screening``, and condor tiers
#:    now run one detailed-placement pass by default (their cached
#:    layouts change).
#: 7: placer portfolio — PlacerConfig grew the ``placer`` switch plus
#:    the SA/portfolio knobs (every config-bearing digest re-keys),
#:    PlacementResult grew ``portfolio_scores`` (pickled suite shape
#:    changed), and the service gained the ``refine`` request kind.
#: 8: columnar circuits — MappedCircuit pickles lazily (arrays only, no
#:    eager decoded circuit), MappingJob grew content-addressed
#:    ``circuit_digest`` keying, and suites compile through the
#:    suite-batched ``map_suite_arrays`` pass.
#: 9: disorder-ensemble engine — independent qubit/resonator disorder
#:    streams change every disorder realisation, map request digests
#:    key on the circuit content digest (layer-1 coalescing), and the
#:    service gained the ``ensemble`` request kind.
#: Dropping PlacerConfig fields needs no bump: the A/B-only
#: ``legalizer_screening`` / ``freq_pair_banding`` /
#: ``incremental_density`` switches (added in 5 and 6) left without
#: changing any default result, and the smaller field set re-keys every
#: config-bearing digest, so a stale key can never collide.
#: 10: placer portfolio retired — PlacementResult lost
#:     ``portfolio_scores`` (pickled suite shape changed again, as at 7).
#: Retiring the interaction-backend override and the sparse tuning knobs
#: (six fields) needs no bump either: every layout is unchanged and the
#: smaller field set re-keys every config-bearing digest.
#: 11: one global-placement path — PlacementProblem lost its backend
#:     name and its ``collision_pairs`` field (now a lazily cached
#:     accessor) and grew the size-chosen
#:     ``freq_pair_cutoff_mm`` / ``density_flush_interval`` /
#:     ``auto_detailed_passes`` (pickled suite shape changed, as at 7
#:     and 10; every layout is unchanged).
CACHE_SCHEMA_VERSION = 11

#: Environment variable naming the default on-disk cache directory.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"


def job_token(job: Any, namespace: str = "") -> str:
    """Stable sha256 token of a job description (cache key).

    Built on the repo-wide canonical JSON encoding
    (:func:`repro.io.serialization.canonicalize`) — the same primitive
    the service artifact store digests requests with — plus the cache
    namespace and :data:`CACHE_SCHEMA_VERSION`.

    Jobs that define a ``cache_key()`` method are keyed by its return
    value instead of their raw fields — how :class:`MappingJob` swaps
    its benchmark *name* for the benchmark's content digest, so
    differently-named aliases of one workload share a cache entry.
    """
    key = job.cache_key() if hasattr(job, "cache_key") else job
    payload = canonical_json(
        {"schema": CACHE_SCHEMA_VERSION, "namespace": namespace,
         "job": key})
    return hashlib.sha256(payload.encode()).hexdigest()


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-job seed from a base seed and job index.

    Decorrelates jobs without the collisions of ``base + index`` when
    sweeps themselves vary the base seed.  Use it when expanding one
    job description into a multi-seed batch::

        jobs = [replace(job, seed=derive_seed(base, k)) for k in range(n)]
    """
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class PlacementJob:
    """One placement unit of work: topology x config x seed.

    Attributes:
        topology: Registered topology name.
        segment_size_mm: Resonator segment size ``lb``.
        strategies: Strategy names to place ("qplacer", "classic",
            "human" — the :data:`~repro.analysis.experiments.STRATEGIES`
            subset to run).
        config: Base placer configuration (``None`` = defaults).
        seed: Optional seed override applied to the config.
    """

    topology: str
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    strategies: Tuple[str, ...] = ("qplacer", "classic", "human")
    config: Optional[PlacerConfig] = None
    seed: Optional[int] = None

    def resolved_config(self) -> PlacerConfig:
        """The effective configuration (segment size and seed applied)."""
        cfg = self.config if self.config is not None else PlacerConfig()
        cfg = cfg.with_segment_size(self.segment_size_mm)
        if self.seed is not None:
            cfg = replace(cfg, seed=self.seed)
        return cfg


def run_placement_job(job: PlacementJob):
    """Worker: place one :class:`PlacementJob` into a suite.

    Module-level so process pools can pickle it.
    """
    from .experiments import build_suite

    return build_suite(job.topology,
                       segment_size_mm=job.segment_size_mm,
                       strategies=job.strategies,
                       config=job.resolved_config())


@dataclass(frozen=True)
class EvaluationJob:
    """One full per-topology evaluation (Figs. 11-13) unit of work."""

    placement: PlacementJob
    benchmarks: Tuple[str, ...]
    num_mappings: int = constants.DEFAULT_NUM_MAPPINGS
    base_seed: int = 0


def run_topology_evaluation(job: EvaluationJob) -> Dict[str, object]:
    """Worker: suite + fidelity + summary + area for one topology."""
    from .experiments import (area_experiment, fidelity_experiment,
                              summary_experiment)

    suite = run_placement_job(job.placement)
    fidelity = fidelity_experiment(suite, job.benchmarks, job.num_mappings,
                                   base_seed=job.base_seed)
    return {
        "fidelity": fidelity,
        "summary": summary_experiment(suite, job.benchmarks,
                                      job.num_mappings, fidelity=fidelity),
        "area_ratio": area_experiment(suite),
    }


@dataclass(frozen=True)
class SweepJob:
    """One segment-size point of the Fig. 15 / Table II sweep."""

    placement: PlacementJob


def run_sweep_job(job: SweepJob):
    """Worker: place one sweep point and compute its Table II row."""
    from .experiments import SweepRow
    from .metrics import compute_layout_metrics

    suite = run_placement_job(job.placement)
    result = suite.results["qplacer"]
    assert result is not None
    m = compute_layout_metrics(suite.layouts["qplacer"])
    return SweepRow(
        topology=job.placement.topology,
        segment_size_mm=job.placement.segment_size_mm,
        num_cells=result.num_cells,
        utilization=m.utilization,
        ph_percent=m.ph_percent,
        runtime_s=result.runtime_s,
        avg_iteration_s=result.avg_iteration_s,
    )


@dataclass(frozen=True)
class MappingJob:
    """One evaluation-mapping batch: circuit x topology x seed x router.

    The mapping/transpile pipeline (subset sampling, SABRE or basic
    routing, basis lowering, scheduling) is the dominant cost of
    repeated fidelity studies, and its output depends only on these
    fields — never on the layout being scored.  Routing it through the
    runner's on-disk cache therefore lets every re-study of the same
    (circuit, topology, seeds, transpiler config) skip routing entirely.

    Attributes:
        benchmark: Registered benchmark name, e.g. ``"bv-16"``.
        topology: Registered topology name.
        num_mappings: Mapping subsets in the batch (paper: 50).
        base_seed: First subset seed; the batch covers
            ``base_seed .. base_seed + num_mappings - 1``.
        router: ``"basic"`` or ``"sabre"``.
        optimization_level: Transpiler effort level.
        circuit_digest: Optional content digest of the benchmark circuit
            (:func:`repro.io.serialization.circuit_content_digest`).
            When set, the cache token keys on the digest *instead of*
            the benchmark name, so identical circuits submitted under
            different names compile exactly once fleet-wide.
    """

    benchmark: str
    topology: str
    num_mappings: int = constants.DEFAULT_NUM_MAPPINGS
    base_seed: int = 0
    router: str = "basic"
    optimization_level: int = 3
    circuit_digest: Optional[str] = None

    def cache_key(self) -> Any:
        """Content-addressed cache identity (see :func:`job_token`).

        Without a digest the job keys on its raw fields (the pre-digest
        token shape).  With one, the benchmark name drops out of the key
        entirely — content addressing — while every compile-affecting
        field (topology, seeds, router, effort level) stays.
        """
        if self.circuit_digest is None:
            return self
        return {"kind": "mapping-suite",
                "circuit_digest": self.circuit_digest,
                "topology": self.topology,
                "num_mappings": self.num_mappings,
                "base_seed": self.base_seed,
                "router": self.router,
                "optimization_level": self.optimization_level}


@functools.lru_cache(maxsize=256)
def benchmark_circuit_digest(benchmark: str) -> str:
    """Content digest of a registered benchmark, memoized per process.

    Building the circuit just to hash it is cheap next to routing, but
    hot call sites (the service's per-request digest stamping) repeat
    the same few names constantly — hence the cache.
    """
    from ..circuits.library import get_benchmark
    from ..io.serialization import circuit_content_digest

    return circuit_content_digest(get_benchmark(benchmark))


def with_circuit_digest(job: MappingJob) -> MappingJob:
    """The same job, content-addressed (digest resolved from the name)."""
    if job.circuit_digest is not None:
        return job
    return replace(job, circuit_digest=benchmark_circuit_digest(job.benchmark))


def run_mapping_job(job: MappingJob):
    """Worker: compile one benchmark's evaluation-mapping batch."""
    from ..circuits.library import get_benchmark
    from ..circuits.mapping import evaluation_mappings
    from ..devices.topology import get_topology

    return evaluation_mappings(
        get_benchmark(job.benchmark), get_topology(job.topology),
        num_mappings=job.num_mappings, base_seed=job.base_seed,
        router=job.router, optimization_level=job.optimization_level)


def split_mapping_job(job: MappingJob,
                      chunk_size: int) -> List[MappingJob]:
    """Split one mapping batch into composable seed-range chunks.

    A :class:`MappingJob` is an independent function of each subset
    seed, so the batch ``base_seed .. base_seed + num_mappings - 1``
    partitions into contiguous sub-batches that are themselves valid
    jobs — chunk ``k`` covers ``base_seed + k*chunk_size`` onward.  The
    chunks carry their own cache tokens, so one huge benchmark can fan
    across workers (or machines) and re-runs with the same chunk
    boundaries replay from the cache; concatenating the chunk results
    in order is exactly the unsplit batch (pinned by
    ``tests/analysis/test_mapping_cache.py``).

    Raises:
        ValueError: on a non-positive chunk size.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    chunks = []
    done = 0
    while done < job.num_mappings:
        take = min(chunk_size, job.num_mappings - done)
        chunks.append(replace(job, base_seed=job.base_seed + done,
                              num_mappings=take))
        done += take
    return chunks


def run_mapping_job_sharded(job: MappingJob, runner: "ParallelRunner",
                            chunk_size: Optional[int] = None) -> List[Any]:
    """Fan one mapping batch across the runner as seed-range chunks.

    With ``chunk_size=None`` the batch splits evenly over the runner's
    workers (one chunk per worker, at least 1 seed each).  Chunks share
    the ``"mappings"`` cache namespace with whole-batch
    :class:`MappingJob` units, so a chunked run and an unchunked run
    each replay from their own tokens while producing identical
    mappings.
    """
    if chunk_size is None:
        chunk_size = max(1, -(-job.num_mappings // runner.max_workers))
    chunks = split_mapping_job(job, chunk_size)
    batches = runner.map(run_mapping_job, chunks, namespace="mappings")
    return [mapped for batch in batches for mapped in batch]


@dataclass(frozen=True)
class WorkloadShardJob:
    """One shard of a wide-workload fidelity evaluation.

    The sharding contract is positional and deterministic:
    ``workloads[shard_index::shard_count]`` (see
    :mod:`repro.workloads.sharding`), so a job is fully described by
    the full workload list plus the two shard integers — the same
    contract the ``workloads evaluate --shard-index/--shard-count`` CLI
    exposes across machines.  Each worker rebuilds the placement suite
    from the job description (an on-disk cache hit when the runner has
    one) and scores only its own slice; merging every shard's partial
    table is bit-identical to a single-process run over the full list.

    Attributes:
        placement: The placement unit whose layouts are scored.
        workloads: Full ordered workload name list (canonical registry
            names) — NOT pre-sliced; slicing happens in the worker.
        shard_index: This shard's position, ``0 <= index < count``.
        shard_count: Total number of shards.
        num_mappings: Mapping subsets per benchmark.
        base_seed: First mapping-subset seed.
    """

    placement: PlacementJob
    workloads: Tuple[str, ...]
    shard_index: int
    shard_count: int
    num_mappings: int = constants.DEFAULT_NUM_MAPPINGS
    base_seed: int = 0


@functools.lru_cache(maxsize=1)
def _shard_suite(placement: PlacementJob):
    """Process-local placement reuse across a worker's shard jobs.

    Shards of one evaluation share the placement, so the worker loads
    it through the runner's on-disk cache (``$REPRO_CACHE_DIR``, which
    pool workers inherit from the parent runner) — one disk read per
    worker when the parent pre-placed, one computation otherwise — and
    memoizes the result so further shard jobs in this process reuse it
    directly.  One entry is enough: shard batches score a single
    placement.
    """
    return default_runner(max_workers=1).run_suites([placement])[0]


def run_workload_shard(job: WorkloadShardJob):
    """Worker: score one workload shard against its placement suite.

    Returns the partial ``{benchmark: {strategy: fidelity}}`` table for
    the shard's slice of the workload list.
    """
    from ..workloads.sharding import shard_items
    from .experiments import fidelity_experiment

    suite = _shard_suite(job.placement)
    names = shard_items(job.workloads, job.shard_index, job.shard_count)
    return fidelity_experiment(suite, benchmarks=names,
                               num_mappings=job.num_mappings,
                               base_seed=job.base_seed)


@dataclass(frozen=True)
class AblationJob:
    """One ablation variant on one topology."""

    topology: str
    variant: str
    config: Optional[PlacerConfig] = None


def run_ablation_job(job: AblationJob):
    """Worker: evaluate one ablation variant row."""
    from .ablation import evaluate_ablation_variant

    return evaluate_ablation_variant(job.topology, job.variant, job.config)


def _worker_cache_init(cache_dir: str) -> None:
    """Pool-worker initializer: inherit the parent runner's cache dir."""
    os.environ[CACHE_ENV_VAR] = cache_dir


class ParallelRunner:
    """Fan homogeneous jobs across workers with an optional disk cache.

    Args:
        max_workers: Process-pool size.  ``None`` uses ``os.cpu_count()``;
            values <= 1 run jobs in-process (no pool, no pickling).
        cache_dir: Directory for the on-disk result cache.  ``None``
            falls back to ``$REPRO_CACHE_DIR``; caching is off when both
            are unset.
    """

    #: Process-wide reference count guarding the ``$REPRO_CACHE_DIR``
    #: publication of :meth:`_cache_env` — the service's scheduler
    #: threads drive one shared runner concurrently, so save/restore
    #: must nest instead of racing.
    _env_lock = threading.Lock()
    _env_depth = 0
    _env_previous: Optional[str] = None

    #: Process-wide per-namespace hit/miss tallies, aggregated across
    #: every runner instance.  Experiment pipelines construct fresh
    #: :func:`default_runner` instances deep inside worker functions, so
    #: instance counters alone cannot answer "did the mapping-suite
    #: cache hit anywhere this process?" — the question the service's
    #: ``/metrics`` circuit-cache counters report.
    _namespace_lock = threading.Lock()
    _namespace_stats: Dict[str, Dict[str, int]] = {}

    @classmethod
    def global_namespace_stats(cls) -> Dict[str, Dict[str, int]]:
        """Snapshot of process-wide ``{namespace: {hits, misses}}``."""
        with cls._namespace_lock:
            return {ns: dict(stats)
                    for ns, stats in cls._namespace_stats.items()}

    @classmethod
    def _record_namespace(cls, namespace: str, hit: bool) -> None:
        with cls._namespace_lock:
            stats = cls._namespace_stats.setdefault(
                namespace, {"hits": 0, "misses": 0})
            stats["hits" if hit else "misses"] += 1

    def __init__(self, max_workers: Optional[int] = None,
                 cache_dir: Optional[os.PathLike] = None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        if cache_dir is None:
            env = os.environ.get(CACHE_ENV_VAR, "")
            cache_dir = Path(env) if env else None
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.cache_hits = 0
        self.cache_misses = 0
        self._stats_lock = threading.Lock()

    # -- cache -----------------------------------------------------------------

    def _cache_path(self, namespace: str, token: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / namespace / f"{token}.pkl"

    def _cache_load(self, path: Optional[Path]) -> Tuple[bool, Any]:
        if path is None or not path.exists():
            return False, None
        try:
            with open(path, "rb") as fh:
                return True, pickle.load(fh)
        except Exception:
            # Torn/stale cache entries are recomputed, never fatal —
            # and deleted, so a permanently corrupt file (e.g. a
            # truncated write that survived a crash) cannot force a
            # parse-and-fail on every future lookup.  The recompute
            # below rewrites the entry atomically.
            try:
                path.unlink()
            except OSError:
                pass  # racing unlink/readonly dir: still a plain miss
            return False, None

    @contextlib.contextmanager
    def _cache_env(self):
        """Expose this runner's cache dir to nested default runners.

        Workers (and in-process jobs) may themselves route sub-units of
        work — e.g. :func:`run_topology_evaluation` caches its mapping
        batches — through :func:`default_runner`, which discovers the
        cache via ``$REPRO_CACHE_DIR``.  Publishing the directory for
        the duration of a ``map`` call makes an explicit ``cache_dir``
        (CLI ``--cache-dir``) transitive without threading it through
        every job description (cache keys must not depend on cache
        location).

        Concurrent ``map`` calls (the service scheduler's worker
        threads share one runner) nest through a process-wide reference
        count: the first entry saves the previous value, the last exit
        restores it, so one thread's exit can never unset the variable
        while another thread's jobs are still computing.  Runners with
        *different* cache directories racing this guard last-write-win
        on the value — the service always shares one directory.
        """
        if self.cache_dir is None:
            yield
            return
        cls = ParallelRunner
        with cls._env_lock:
            if cls._env_depth == 0:
                cls._env_previous = os.environ.get(CACHE_ENV_VAR)
            cls._env_depth += 1
            os.environ[CACHE_ENV_VAR] = str(self.cache_dir)
        try:
            yield
        finally:
            with cls._env_lock:
                cls._env_depth -= 1
                if cls._env_depth == 0:
                    if cls._env_previous is None:
                        os.environ.pop(CACHE_ENV_VAR, None)
                    else:
                        os.environ[CACHE_ENV_VAR] = cls._env_previous

    def _cache_store(self, path: Optional[Path], value: Any) -> None:
        """Persist one entry; losing a write race is never fatal.

        Goes through :func:`repro.io.atomic.atomic_write_bytes` — temp
        names are unique per process *and thread*, so the service's
        threaded scheduler workers racing on one token can no longer
        interleave writes into a shared temp file (the old per-pid temp
        name allowed exactly that), and readers only ever see complete
        entries.
        """
        if path is None:
            return
        try:
            atomic_write_bytes(
                path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            pass

    # -- execution --------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], jobs: Sequence[Any],
            namespace: Optional[str] = None) -> List[Any]:
        """Run ``fn`` over ``jobs``; results in job order.

        Args:
            fn: Module-level worker function (picklable).
            jobs: Job descriptions (frozen dataclasses of primitives).
            namespace: Cache namespace; defaults to the worker's name.
                Results are cached on disk when the runner has a cache
                directory.
        """
        if namespace is None:
            namespace = getattr(fn, "__name__", "jobs")
        results: List[Any] = [None] * len(jobs)
        paths: List[Optional[Path]] = [None] * len(jobs)
        pending: List[int] = []
        for k, job in enumerate(jobs):
            path = None
            if self.cache_dir is not None:
                path = self._cache_path(namespace, job_token(job, namespace))
                hit, value = self._cache_load(path)
                if hit:
                    with self._stats_lock:
                        self.cache_hits += 1
                    self._record_namespace(namespace, hit=True)
                    results[k] = value
                    continue
                with self._stats_lock:
                    self.cache_misses += 1
                self._record_namespace(namespace, hit=False)
            paths[k] = path
            pending.append(k)

        if pending:
            todo = [jobs[k] for k in pending]
            if self.max_workers <= 1 or len(pending) == 1:
                with self._cache_env():
                    computed = [fn(job) for job in todo]
            else:
                workers = min(self.max_workers, len(pending))
                init_args = ((_worker_cache_init, (str(self.cache_dir),))
                             if self.cache_dir is not None else (None, ()))
                with ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=init_args[0],
                        initargs=init_args[1]) as pool:
                    computed = list(pool.map(fn, todo))
            for k, value in zip(pending, computed):
                results[k] = value
                self._cache_store(paths[k], value)
        return results

    def run_suites(self, jobs: Sequence[PlacementJob]) -> List[Any]:
        """Place every job; returns the suites in job order."""
        return self.map(run_placement_job, jobs, namespace="suite")


def default_runner(max_workers: Optional[int] = None,
                   cache_dir: Optional[os.PathLike] = None) -> ParallelRunner:
    """A runner with environment-driven defaults (one per call site)."""
    return ParallelRunner(max_workers=max_workers, cache_dir=cache_dir)
