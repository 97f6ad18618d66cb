"""The service request model: typed, validated, canonicalisable.

A request is a frozen dataclass describing one *result* the service can
produce.  Everything that determines the result — and only that — lives
in the request: the artifact store digests the canonicalised dataclass
(:mod:`repro.service.store`), so two requests share one artifact iff
their fields agree after normalisation.  Execution hints that cannot
change the result (priority tier, mapping chunk size, fidelity shard
count) ride in the job envelope instead (``options`` of
:meth:`repro.service.queue.JobQueue.submit`) and never enter the
digest.

Normalisation happens in :func:`parse_request`, before digesting:

* defaults are materialised (an omitted field and its explicit default
  digest identically);
* workload suite names expand to the registry's explicit name list
  (``"paper-8"`` and its eight names coalesce);
* JSON lists become tuples, config dicts become
  :class:`~repro.core.config.PlacerConfig`;
* unknown kinds/fields/topologies/strategies raise
  :class:`RequestError` (HTTP 400), never a queued job that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type, Union

from .. import constants
from ..circuits.mapping import ROUTER_CHOICES
from ..core.config import PlacerConfig

#: The three placement strategies a request may score.
_KNOWN_STRATEGIES = frozenset({"qplacer", "classic", "human"})

#: Routers understood by the mapping pipeline — the single source of
#: truth is :data:`repro.circuits.mapping.ROUTER_CHOICES`, so the
#: service 400s exactly the names ``map_suite_arrays`` would reject.
_KNOWN_ROUTERS = frozenset(ROUTER_CHOICES)


class RequestError(ValueError):
    """A malformed or unsatisfiable service request (HTTP 400)."""


@dataclass(frozen=True)
class PlaceRequest:
    """Place one topology with the requested strategies.

    The service analogue of :class:`~repro.analysis.runner.PlacementJob`
    (the executor builds exactly that job, so the runner's suite cache
    is shared).  The artifact is the per-strategy metrics table plus —
    when ``include_layouts`` — the serialised layouts themselves.

    ``warm_start`` seeds the global placement from the nearest stored
    placement of the same topology (:meth:`~repro.service.store.
    ArtifactStore.nearest_placement`).  It is a request field — not an
    execution option — because the seeding changes the computed
    positions, so warm and cold runs must digest differently.
    """

    kind: ClassVar[str] = "place"

    topology: str
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    strategies: Tuple[str, ...] = ("qplacer", "classic", "human")
    seed: int = 0
    config: Optional[PlacerConfig] = None
    include_layouts: bool = True
    warm_start: bool = False


@dataclass(frozen=True)
class FidelityRequest:
    """Score one placed topology over a workload list (Fig. 11 shape)."""

    kind: ClassVar[str] = "fidelity"

    topology: str
    workloads: Tuple[str, ...] = ()
    num_mappings: int = 12
    base_seed: int = 0
    strategies: Tuple[str, ...] = ("qplacer", "classic", "human")
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    seed: int = 0
    config: Optional[PlacerConfig] = None


@dataclass(frozen=True)
class MapRequest:
    """Compile one benchmark's evaluation-mapping batch.

    The artifact is the JSON-able per-mapping summary (swap counts,
    durations, gate totals) — the full :class:`~repro.circuits.mapping.
    MappedCircuit` objects stay in the runner's pickle cache, where a
    subsequent fidelity request finds them.
    """

    kind: ClassVar[str] = "map"

    benchmark: str
    topology: str
    num_mappings: int = constants.DEFAULT_NUM_MAPPINGS
    base_seed: int = 0
    router: str = "basic"
    optimization_level: int = 3

    def digest_document(self) -> Dict[str, Any]:
        """Digest payload keyed on the circuit *content*, not its name.

        Differently-named aliases of one workload (``ghz-5`` vs a
        custom alias compiling to the same gates) coalesce at queue
        submission — layer 1 — instead of only at the runner cache.
        Falls back to the raw field document when the benchmark cannot
        be built (parse_request validated the name, so this is purely
        defensive).
        """
        document: Dict[str, Any] = {
            "topology": self.topology,
            "num_mappings": self.num_mappings,
            "base_seed": self.base_seed,
            "router": self.router,
            "optimization_level": self.optimization_level,
        }
        try:
            from ..analysis.runner import benchmark_circuit_digest

            document["circuit_digest"] = benchmark_circuit_digest(
                self.benchmark)
        except Exception:
            document["benchmark"] = self.benchmark
        return document


@dataclass(frozen=True)
class EvaluateRequest:
    """The full paper evaluation (Figs. 11-13) over topologies.

    The artifact is value-identical to running
    :func:`repro.analysis.experiments.run_full_evaluation` directly and
    converting it with :func:`repro.analysis.experiments.
    evaluation_payload` (pinned by ``benchmarks/bench_perf_service.py``).
    """

    kind: ClassVar[str] = "evaluate"

    topologies: Tuple[str, ...] = ()
    benchmarks: Tuple[str, ...] = ()
    num_mappings: int = 12
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    seed: int = 0
    config: Optional[PlacerConfig] = None


@dataclass(frozen=True)
class EnsembleRequest:
    """Monte-Carlo disorder ensemble against one frozen placement.

    For each sigma in ``sigmas``, draws ``samples`` frequency-disorder
    realisations (qubit scatter ``sigma``, resonator scatter ``sigma *
    resonator_sigma_scale``), re-scores the frozen layout across the
    batch, and incrementally repairs up to ``repair_samples`` failing
    realisations.  The artifact is the yield/fidelity-vs-sigma curve
    with bootstrap intervals; progress streams one point per sigma via
    ``GET /jobs/<id>``.  Samples fan through the runner
    as chunk jobs (``chunk_size`` execution option).
    """

    kind: ClassVar[str] = "ensemble"

    topology: str
    sigmas: Tuple[float, ...] = (0.01, 0.02, 0.05)
    samples: int = 64
    resonator_sigma_scale: float = 0.5
    base_seed: int = 0
    strategy: str = "qplacer"
    segment_size_mm: float = constants.DEFAULT_SEGMENT_SIZE_MM
    seed: int = 0
    config: Optional[PlacerConfig] = None
    repair_samples: int = 0
    max_ph_percent: float = 0.0
    warm_start: bool = False
    bootstrap: int = 200


Request = Union[PlaceRequest, FidelityRequest, MapRequest, EvaluateRequest,
                EnsembleRequest]

#: Request kind -> dataclass, the POST /jobs dispatch table.
REQUEST_TYPES: Dict[str, Type[Request]] = {
    cls.kind: cls
    for cls in (PlaceRequest, FidelityRequest, MapRequest, EvaluateRequest,
                EnsembleRequest)
}

#: Fields normalised from JSON lists to tuples.
_TUPLE_FIELDS = frozenset({"strategies", "workloads", "topologies",
                           "benchmarks", "sigmas"})


def _check_topology(name: Any) -> str:
    from ..devices.topology import TOPOLOGY_FACTORIES

    if not isinstance(name, str) or name not in TOPOLOGY_FACTORIES:
        known = ", ".join(sorted(TOPOLOGY_FACTORIES))
        raise RequestError(f"unknown topology {name!r}; known: {known}")
    return name


def _check_strategies(strategies: Tuple[str, ...]) -> Tuple[str, ...]:
    bad = [s for s in strategies if s not in _KNOWN_STRATEGIES]
    if bad or not strategies:
        raise RequestError(
            f"strategies must be a non-empty subset of "
            f"{sorted(_KNOWN_STRATEGIES)}, got {list(strategies)}")
    return strategies


def _check_benchmarks(names: Tuple[str, ...]) -> None:
    """Cheap name-level validation (no circuit is built)."""
    from ..workloads import resolve_workload_names

    for name in names:
        try:
            resolve_workload_names((name,))
        except Exception as exc:
            raise RequestError(
                f"unknown benchmark {name!r}: {exc}") from None


#: Scalar field types enforced before validation logic runs, so a
#: wrong-typed JSON value (e.g. ``"num_mappings": "5"``) is a clean
#: RequestError instead of a TypeError escaping mid-comparison.
_FIELD_SCALARS = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
}


def _check_field_types(cls: type, data: Dict[str, Any], kind: str) -> None:
    for f in fields(cls):
        if f.name not in data:
            continue
        expected = _FIELD_SCALARS.get(f.type)
        if expected is None:
            continue
        value = data[f.name]
        if not isinstance(value, expected) or (
                f.type in ("int", "float") and isinstance(value, bool)):
            raise RequestError(
                f"{kind} request field {f.name!r} must be {f.type}, "
                f"got {type(value).__name__}")


def parse_request(kind: str, payload: Mapping[str, Any]) -> Request:
    """Build and validate a request from a JSON payload.

    Raises:
        RequestError: unknown kind, unknown/invalid field, unknown
            topology or strategy — anything the API maps to HTTP 400.
    """
    if not isinstance(kind, str):
        raise RequestError("request kind must be a string")
    cls = REQUEST_TYPES.get(kind)
    if cls is None:
        raise RequestError(
            f"unknown request kind {kind!r}; known: "
            f"{sorted(REQUEST_TYPES)}")
    if not isinstance(payload, Mapping):
        raise RequestError("request payload must be a JSON object")
    data = dict(payload)

    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise RequestError(
            f"unknown {kind} request field(s) {sorted(unknown)}; "
            f"known: {sorted(known)}")
    _check_field_types(cls, data, kind)

    config = data.get("config")
    if isinstance(config, Mapping):
        # seed / segment_size_mm are request-level fields; the
        # executors overwrite any config-embedded values with them, so
        # accepting them here would compute one thing while digesting
        # another (and fragment the artifact space).
        shadowed = {"seed", "segment_size_mm"} & set(config)
        if shadowed:
            raise RequestError(
                f"set {sorted(shadowed)} at the request level, not "
                f"inside config (request-level values always win)")
        try:
            data["config"] = PlacerConfig(**config)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"invalid placer config: {exc}") from None
    elif config is not None and not isinstance(config, PlacerConfig):
        raise RequestError("config must be a JSON object of PlacerConfig "
                           "fields")

    if "workloads" in data:
        from ..workloads import resolve_workload_names

        try:
            data["workloads"] = resolve_workload_names(data["workloads"])
        except (KeyError, ValueError) as exc:
            raise RequestError(f"invalid workloads: {exc}") from None
    for name in _TUPLE_FIELDS & set(data):
        value = data[name]
        if isinstance(value, str):
            value = tuple(part for part in value.split(",") if part)
        try:
            data[name] = tuple(value)
        except TypeError:
            raise RequestError(f"{name} must be a list of names") from None

    try:
        request = cls(**data)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"invalid {kind} request: {exc}") from None

    if hasattr(request, "topology"):
        _check_topology(request.topology)
    if hasattr(request, "strategies"):
        _check_strategies(request.strategies)
    if isinstance(request, MapRequest):
        if request.router not in _KNOWN_ROUTERS:
            raise RequestError(f"unknown router {request.router!r}; known: "
                               f"{sorted(_KNOWN_ROUTERS)}")
        if request.num_mappings < 1:
            raise RequestError("num_mappings must be >= 1")
        if request.optimization_level not in (0, 1, 2, 3):
            raise RequestError("optimization_level must be 0..3")
        _check_benchmarks((request.benchmark,))
    if isinstance(request, FidelityRequest):
        if not request.workloads:
            raise RequestError("fidelity requests need a non-empty "
                               "workloads list (or a suite name)")
    if isinstance(request, EvaluateRequest):
        # Materialise the paper defaults so an omitted list and the
        # explicit equivalent coalesce to one digest.
        from ..circuits.library import PAPER_BENCHMARKS
        from ..devices.topology import PAPER_TOPOLOGY_ORDER
        from dataclasses import replace as _replace

        if not request.topologies:
            request = _replace(request, topologies=tuple(PAPER_TOPOLOGY_ORDER))
        if not request.benchmarks:
            request = _replace(request, benchmarks=tuple(PAPER_BENCHMARKS))
        for name in request.topologies:
            _check_topology(name)
        _check_benchmarks(request.benchmarks)
    if isinstance(request, (FidelityRequest, EvaluateRequest)):
        if request.num_mappings < 1:
            raise RequestError("num_mappings must be >= 1")
    if isinstance(request, EnsembleRequest):
        from dataclasses import replace as _replace

        try:
            sigmas = tuple(float(s) for s in request.sigmas)
        except (TypeError, ValueError):
            raise RequestError("sigmas must be a list of numbers "
                               "(or a comma-separated string)") from None
        if not sigmas:
            raise RequestError("ensemble requests need at least one sigma")
        if any(s < 0.0 or s > 1.0 for s in sigmas):
            raise RequestError("each sigma must be in [0, 1] GHz")
        request = _replace(request, sigmas=sigmas)
        if request.strategy not in _KNOWN_STRATEGIES:
            raise RequestError(
                f"strategy must be one of {sorted(_KNOWN_STRATEGIES)}, "
                f"got {request.strategy!r}")
        if not 1 <= request.samples <= 100_000:
            raise RequestError("samples must be in [1, 100000]")
        if not 0.0 <= request.resonator_sigma_scale <= 10.0:
            raise RequestError("resonator_sigma_scale must be in [0, 10]")
        if request.repair_samples < 0:
            raise RequestError("repair_samples must be non-negative")
        if request.repair_samples > request.samples:
            raise RequestError("repair_samples cannot exceed samples")
        if request.max_ph_percent < 0.0:
            raise RequestError("max_ph_percent must be non-negative")
        if not 0 <= request.bootstrap <= 10_000:
            raise RequestError("bootstrap must be in [0, 10000]")
    return request


#: Execution hints each kind accepts in the job envelope's ``options``
#: object.  Options never enter the digest, so an invalid option on one
#: submit would otherwise poison every identical request coalescing
#: onto its job — they are validated as strictly as request fields.
_KNOWN_OPTIONS: Dict[str, Tuple[str, ...]] = {
    "place": (),
    "fidelity": ("shard_count",),
    "map": ("chunk_size",),
    "evaluate": (),
    "ensemble": ("chunk_size",),
}


def check_options(kind: str, options: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a submit's execution options for one request kind.

    Raises:
        RequestError: unknown option name, or a non-positive/non-int
            value (every current option is a positive integer).
    """
    if not isinstance(options, Mapping):
        raise RequestError("options must be a JSON object")
    allowed = _KNOWN_OPTIONS.get(kind, ())
    out: Dict[str, Any] = {}
    for name, value in options.items():
        if name not in allowed:
            raise RequestError(
                f"unknown {kind} option {name!r}; known: {list(allowed)}")
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 1:
            raise RequestError(f"option {name!r} must be a positive "
                               f"integer, got {value!r}")
        out[name] = value
    return out
