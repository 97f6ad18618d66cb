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

Normalisation happens in :func:`parse_request`, before digesting, from
one table keyed by field name (:data:`FIELDS`) that every kind shares:

* defaults are materialised (an omitted field and its explicit default
  digest identically);
* workload suite names expand to the registry's explicit name list
  (``"paper-8"`` and its eight names coalesce);
* JSON lists become tuples, config dicts become
  :class:`~repro.core.config.PlacerConfig`;
* unknown kinds/fields/topologies/strategies, wrong-typed values and
  out-of-range numbers (a negative seed, say) raise
  :class:`RequestError` (HTTP 400), never a queued job that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import (Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple,
                    Type, Union)

from .. import constants
from ..analysis.experiments import STRATEGIES
from ..circuits.mapping import ROUTER_CHOICES
from ..core.config import PlacerConfig

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
    strategies: Tuple[str, ...] = STRATEGIES
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
    strategies: Tuple[str, ...] = STRATEGIES
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


def _check_topology(name: Any) -> None:
    from ..devices.topology import TOPOLOGY_FACTORIES

    if not isinstance(name, str) or name not in TOPOLOGY_FACTORIES:
        known = ", ".join(sorted(TOPOLOGY_FACTORIES))
        raise RequestError(f"unknown topology {name!r}; known: {known}")


def _check_topologies(names: Tuple[Any, ...]) -> None:
    for name in names:
        _check_topology(name)


def _check_benchmarks(names: Tuple[Any, ...]) -> None:
    """Cheap name-level validation (no circuit is built)."""
    from ..workloads import resolve_workload_names

    for name in names:
        try:
            resolve_workload_names((name,))
        except Exception as exc:
            raise RequestError(
                f"unknown benchmark {name!r}: {exc}") from None


def _check_strategies(strategies: Tuple[Any, ...]) -> None:
    bad = [s for s in strategies
           if not isinstance(s, str) or s not in STRATEGIES]
    if bad or not strategies:
        raise RequestError(
            f"strategies must be a non-empty subset of "
            f"{sorted(STRATEGIES)}, got {list(strategies)}")


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise RequestError(
            f"strategy must be one of {sorted(STRATEGIES)}, "
            f"got {strategy!r}")


def _check_router(router: str) -> None:
    if router not in _KNOWN_ROUTERS:
        raise RequestError(f"unknown router {router!r}; known: "
                           f"{sorted(_KNOWN_ROUTERS)}")


def _require(predicate: Callable[[Any], bool],
             message: str) -> Callable[[Any], None]:
    """A check raising ``RequestError(message)`` when ``predicate``
    fails."""
    def check(value: Any) -> None:
        if not predicate(value):
            raise RequestError(message)
    return check


def _non_negative(name: str) -> Callable[[Any], None]:
    return _require(lambda v: v >= 0, f"{name} must be non-negative")


def _as_tuple(name: str) -> Callable[[Any], Tuple[Any, ...]]:
    """JSON list, or comma-separated string, -> tuple."""
    def normalise(value: Any) -> Tuple[Any, ...]:
        if isinstance(value, str):
            value = tuple(part for part in value.split(",") if part)
        try:
            return tuple(value)
        except TypeError:
            raise RequestError(f"{name} must be a list of names") from None
    return normalise


def _as_sigmas(value: Any) -> Tuple[float, ...]:
    sigmas = _as_tuple("sigmas")(value)
    try:
        return tuple(float(s) for s in sigmas)
    except (TypeError, ValueError):
        raise RequestError("sigmas must be a list of numbers "
                           "(or a comma-separated string)") from None


def _check_sigmas(sigmas: Tuple[float, ...]) -> None:
    if not sigmas:
        raise RequestError("ensemble requests need at least one sigma")
    if any(s < 0.0 or s > 1.0 for s in sigmas):
        raise RequestError("each sigma must be in [0, 1] GHz")


def _as_workloads(value: Any) -> Tuple[str, ...]:
    """A suite name or a name list -> the registry's explicit names."""
    from ..workloads import resolve_workload_names

    if not isinstance(value, (str, list, tuple)) or (
            not isinstance(value, str)
            and not all(isinstance(name, str) for name in value)):
        raise RequestError("workloads must be a suite name or a list of "
                           "names")
    try:
        return resolve_workload_names(value)
    except (KeyError, ValueError) as exc:
        raise RequestError(f"invalid workloads: {exc}") from None


def _as_config(value: Any) -> Optional[PlacerConfig]:
    if isinstance(value, Mapping):
        # seed / segment_size_mm are request-level fields; the
        # executors overwrite any config-embedded values with them, so
        # accepting them here would compute one thing while digesting
        # another (and fragment the artifact space).
        shadowed = {"seed", "segment_size_mm"} & set(value)
        if shadowed:
            raise RequestError(
                f"set {sorted(shadowed)} at the request level, not "
                f"inside config (request-level values always win)")
        try:
            return PlacerConfig(**value)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"invalid placer config: {exc}") from None
    if value is not None and not isinstance(value, PlacerConfig):
        raise RequestError("config must be a JSON object of PlacerConfig "
                           "fields")
    return value


@dataclass(frozen=True)
class _Field:
    """How one request field is read, for every kind that has it.

    ``scalar`` is the type an explicit value must have, checked first so
    that ``"num_mappings": "5"`` is a 400, not a TypeError mid-check
    (``float`` admits ints; only ``bool`` admits a bool).  ``normalise``
    maps an explicit value to its field value.  ``check`` validates the
    built request's value, defaults included.
    """

    scalar: Optional[type] = None
    normalise: Optional[Callable[[Any], Any]] = None
    check: Optional[Callable[[Any], None]] = None

    def read(self, kind: str, name: str, value: Any) -> Any:
        if self.scalar is not None:
            expected = (int, float) if self.scalar is float else self.scalar
            if not isinstance(value, expected) or (
                    isinstance(value, bool) and self.scalar is not bool):
                raise RequestError(
                    f"{kind} request field {name!r} must be "
                    f"{self.scalar.__name__}, got {type(value).__name__}")
        return value if self.normalise is None else self.normalise(value)


#: Field name -> how it is read and checked, shared by every request
#: kind that has the field.
FIELDS: Dict[str, _Field] = {
    "topology": _Field(str, check=_check_topology),
    "topologies": _Field(normalise=_as_tuple("topologies"),
                         check=_check_topologies),
    "benchmark": _Field(str, check=lambda name: _check_benchmarks((name,))),
    "benchmarks": _Field(normalise=_as_tuple("benchmarks"),
                         check=_check_benchmarks),
    "workloads": _Field(normalise=_as_workloads, check=_require(
        bool, "fidelity requests need a non-empty workloads list (or a "
              "suite name)")),
    "strategies": _Field(normalise=_as_tuple("strategies"),
                         check=_check_strategies),
    "strategy": _Field(str, check=_check_strategy),
    "router": _Field(str, check=_check_router),
    "config": _Field(normalise=_as_config),
    "segment_size_mm": _Field(float),
    "include_layouts": _Field(bool),
    "warm_start": _Field(bool),
    "seed": _Field(int, check=_non_negative("seed")),
    "base_seed": _Field(int, check=_non_negative("base_seed")),
    "num_mappings": _Field(int, check=_require(
        lambda n: n >= 1, "num_mappings must be >= 1")),
    "optimization_level": _Field(int, check=_require(
        lambda level: level in (0, 1, 2, 3),
        "optimization_level must be 0..3")),
    "sigmas": _Field(normalise=_as_sigmas, check=_check_sigmas),
    "samples": _Field(int, check=_require(
        lambda n: 1 <= n <= 100_000, "samples must be in [1, 100000]")),
    "resonator_sigma_scale": _Field(float, check=_require(
        lambda x: 0.0 <= x <= 10.0,
        "resonator_sigma_scale must be in [0, 10]")),
    "repair_samples": _Field(int, check=_non_negative("repair_samples")),
    "max_ph_percent": _Field(float, check=_non_negative("max_ph_percent")),
    "bootstrap": _Field(int, check=_require(
        lambda n: 0 <= n <= 10_000, "bootstrap must be in [0, 10000]")),
}


def parse_request(kind: str, payload: Mapping[str, Any]) -> Request:
    """Build and validate a request from a JSON payload.

    Every field is read through its :data:`FIELDS` entry; only the
    cross-field rules (evaluate's paper defaults, ``repair_samples <=
    samples``) are per kind.

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

    names = [f.name for f in fields(cls)]
    unknown = set(payload) - set(names)
    if unknown:
        raise RequestError(
            f"unknown {kind} request field(s) {sorted(unknown)}; "
            f"known: {sorted(names)}")
    data = {name: FIELDS[name].read(kind, name, payload[name])
            for name in names if name in payload}
    try:
        request = cls(**data)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"invalid {kind} request: {exc}") from None

    if isinstance(request, EvaluateRequest):
        # Materialise the paper defaults so an omitted list and the
        # explicit equivalent coalesce to one digest.
        from ..circuits.library import PAPER_BENCHMARKS
        from ..devices.topology import PAPER_TOPOLOGY_ORDER

        request = replace(
            request,
            topologies=request.topologies or tuple(PAPER_TOPOLOGY_ORDER),
            benchmarks=request.benchmarks or tuple(PAPER_BENCHMARKS))
    for name in names:
        check = FIELDS[name].check
        if check is not None:
            check(getattr(request, name))
    if isinstance(request, EnsembleRequest) \
            and request.repair_samples > request.samples:
        raise RequestError("repair_samples cannot exceed samples")
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
