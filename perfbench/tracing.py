"""Per-layer spans for the traced benchmark run.

:data:`HOOKS` is the one declarative table of what is traced: each
entry names a layer and the module attribute a caller looks the layer's
public entry point up by, so replacing that attribute with a timing
wrapper puts a span around every call.  Nothing under ``src/`` changes.
An entry whose module or attribute no longer exists is reported as
unavailable and skipped, and only the traced run imports this module,
so a refactor of the program can blind a layer but never break the
end-to-end runs.

Spans are kept in memory: ``(layer, start, end, self_s, top_level)``
with ``time.monotonic()`` stamps, which on Linux read the system-wide
``CLOCK_MONOTONIC``, so spans of the service process line up with the
benchmark's op windows.  A layer's self time is its span minus the time
its child spans (nested calls on the same thread) cover.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .stats import ratio

Counts = Dict[str, float]


# -- counters read at the wrapped boundaries --------------------------------

def _engine_counts(args, result, before) -> Counts:
    return {"core.engine.iterations": result.iterations,
            "core.density.rescattered": result.density_rescattered,
            "core.interactions.rebuilds": result.freq_list_rebuilds,
            "core.interactions.reuses": result.freq_list_reuses}


def _frequency_counts(args, result, before) -> Counts:
    return {"core.frequency_force.pairs": len(args[1])}


def _legalizer_counts(args, result, before) -> Counts:
    return {"core.legalizer.relaxations":
            result[1].resonant_relaxations}


def _detailed_counts(args, result, before) -> Counts:
    stats = result[1]
    # candidates_scored counts swap candidates only, so only swaps are
    # set against it.
    return {"core.detailed.candidates": stats.candidates_scored,
            "core.detailed.accepted": stats.swaps_applied}


def _mapping_counts(args, result, before) -> Counts:
    return {"circuits.mapping.mappings": len(result),
            "circuits.mapping.swaps": sum(m.swap_count for m in result)}


def _transpile_counts(args, result, before) -> Counts:
    return {"circuits.transpile.gates_in": args[0].size,
            "circuits.transpile.gates_out": result.size}


def _sampling_counts(args, result, before) -> Counts:
    return {"ensembles.sampling.samples": len(result.qubit_freqs)}


def _runner_before(args) -> Tuple[int, int]:
    return args[0].cache_hits, args[0].cache_misses


def _runner_counts(args, result, before) -> Counts:
    hits = args[0].cache_hits - before[0]
    misses = args[0].cache_misses - before[1]
    return {"analysis.runner.hits": hits,
            "analysis.runner.lookups": hits + misses}


def _store_put_counts(args, result, before) -> Counts:
    store, digest = args[0], args[1]
    try:
        written = os.path.getsize(store.path(digest))
    except OSError:
        written = 0
    return {"service.store.bytes_written": written}


def _queue_counts(args, result, before) -> Counts:
    return {"service.queue.submits": 1,
            "service.queue.hits": int(result[1] == "cache_hit")}


def _client_submit_counts(args, result, before) -> Counts:
    return {"service.http.submits": 1}


def _client_poll_counts(args, result, before) -> Counts:
    return {"service.http.polls": 1}


@dataclass(frozen=True)
class Hook:
    """One traced entry point.

    Attributes:
        layer: Layer name the span is booked to.
        module: Module the caller resolves the entry point through.
        attr: Attribute path in that module (``"Class.method"`` allowed).
        key: Item of a dict-valued attribute (an executor registry).
        counts: ``(args, result, before) -> {counter: value}``.
        before: ``args -> snapshot`` taken before the call, for counts
            that are deltas of the callee's own counters.
    """

    layer: str
    module: str
    attr: str
    key: Optional[str] = None
    counts: Optional[Callable[..., Counts]] = None
    before: Optional[Callable[..., Any]] = None


HOOKS: Tuple[Hook, ...] = (
    Hook("core.preprocess", "repro.core.placer", "build_problem"),
    Hook("core.engine", "repro.core.engine", "GlobalPlacer.run",
         counts=_engine_counts),
    Hook("core.optimizer", "repro.core.optimizer", "NesterovOptimizer.step"),
    Hook("core.wirelength", "repro.core.engine", "wirelength_and_grad"),
    Hook("core.density", "repro.core.density", "DensityGrid.evaluate"),
    Hook("core.density", "repro.core.density",
         "DensityGrid.evaluate_incremental"),
    Hook("core.frequency_force", "repro.core.engine",
         "frequency_energy_and_grad", counts=_frequency_counts),
    Hook("core.interactions", "repro.core.interactions",
         "PrunedCollisionPairs.pairs"),
    Hook("core.legalizer", "repro.core.legalizer", "Legalizer.run",
         counts=_legalizer_counts),
    Hook("core.detailed", "repro.core.detailed", "refine_placement",
         counts=_detailed_counts),
    Hook("core.detailed", "repro.ensembles.repair", "refine_placement",
         counts=_detailed_counts),
    Hook("circuits.mapping", "repro.circuits.mapping", "map_suite_arrays",
         counts=_mapping_counts),
    Hook("circuits.subsets", "repro.circuits.mapping",
         "sample_connected_subset"),
    Hook("circuits.route", "repro.circuits.mapping", "route_basic_arrays"),
    Hook("circuits.transpile", "repro.circuits.mapping", "transpile_arrays",
         counts=_transpile_counts),
    Hook("circuits.schedule", "repro.circuits.batch",
         "ArrayCircuit.asap_schedule"),
    Hook("crosstalk.fidelity", "repro.crosstalk.fidelity",
         "estimate_program_fidelity"),
    Hook("crosstalk.fidelity", "repro.crosstalk.fidelity",
         "ViolationTable.build"),
    Hook("crosstalk.hotspots", "repro.ensembles.jobs", "hotspot_report"),
    Hook("ensembles.sampling", "repro.ensembles.jobs", "sample_batch",
         counts=_sampling_counts),
    Hook("ensembles.evaluation", "repro.ensembles.evaluation",
         "FrozenLayoutScorer.__init__"),
    Hook("ensembles.evaluation", "repro.ensembles.evaluation",
         "FrozenLayoutScorer.score_batch"),
    Hook("ensembles.evaluation", "repro.ensembles.jobs", "summarize_scores"),
    Hook("ensembles.repair", "repro.ensembles.jobs", "repair_sample"),
    Hook("ensembles.repair", "repro.ensembles.repair", "check_layout_legal"),
    Hook("analysis.runner", "repro.analysis.runner", "ParallelRunner.map",
         counts=_runner_counts, before=_runner_before),
    Hook("analysis.runner", "repro.analysis.runner",
         "ParallelRunner.run_suites"),
    Hook("service.scheduler", "repro.service.scheduler", "EXECUTORS",
         key="ensemble"),
    Hook("service.store", "repro.service.store", "ArtifactStore.put",
         counts=_store_put_counts),
    Hook("service.store", "repro.service.store", "ArtifactStore.get"),
    Hook("service.queue", "repro.service.queue", "JobQueue.submit",
         counts=_queue_counts),
    Hook("service.http", "repro.service.client", "ServiceClient.submit",
         counts=_client_submit_counts),
    Hook("service.http", "repro.service.client", "ServiceClient.job",
         counts=_client_poll_counts),
    Hook("service.http", "repro.service.client", "ServiceClient.artifact"),
)

#: Layers in table order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(h.layer for h in HOOKS))

#: Per-layer metrics beyond ``<layer>.calls`` and ``<layer>.self_s``:
#: (name, unit, better).
EXTRA_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("core.engine.iterations", "count", "lower"),
    ("core.density.rescattered", "count", "lower"),
    ("core.frequency_force.pairs", "count", "lower"),
    ("core.interactions.rebuilds", "count", "lower"),
    ("core.interactions.reuse_ratio", "ratio", "higher"),
    ("core.legalizer.relaxations", "count", "lower"),
    ("core.detailed.candidates", "count", "lower"),
    ("core.detailed.accept_ratio", "ratio", "higher"),
    ("circuits.mapping.mappings", "count", "higher"),
    ("circuits.mapping.swaps", "count", "lower"),
    ("circuits.transpile.gates_in", "count", "lower"),
    ("circuits.transpile.gates_out", "count", "lower"),
    ("ensembles.sampling.samples", "count", "higher"),
    ("ensembles.repair.pass_ratio", "ratio", "higher"),
    ("analysis.runner.hit_ratio", "ratio", "higher"),
    ("service.scheduler.queue_wait_s", "s", "lower"),
    ("service.store.bytes_written", "bytes", "lower"),
    ("service.queue.cache_hit_ratio", "ratio", "higher"),
    ("service.http.polls_per_op", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.hooks_missing", "count", "lower"),
)


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    specs: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    return specs + list(EXTRA_METRICS)


Span = Tuple[str, float, float, float, bool]


class Tracer:
    """Installs :data:`HOOKS` wrappers and records their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.unavailable: List[str] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- installation ------------------------------------------------------

    def install(self, hooks: Sequence[Hook] = HOOKS) -> None:
        """Wrap every resolvable hook; unresolvable ones are listed."""
        for hook in hooks:
            try:
                self._install_one(hook)
            except (ImportError, AttributeError, KeyError, TypeError) as exc:
                self.unavailable.append(
                    f"{hook.layer}: {hook.module}.{hook.attr}"
                    f"{'[' + hook.key + ']' if hook.key else ''} ({exc})")

    def _install_one(self, hook: Hook) -> None:
        owner: Any = importlib.import_module(hook.module)
        *path, name = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if hook.key is not None:
            table = getattr(owner, name)
            original = table[hook.key]
            table[hook.key] = self._wrap(hook, original)
            self._restore.append(
                lambda: table.__setitem__(hook.key, original))
            return
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(self._wrap(hook, raw.__func__))
        elif callable(raw):
            replacement = self._wrap(hook, raw)
        else:
            raise TypeError(f"{hook.attr} is not callable")
        own = not isinstance(owner, type) or name in vars(owner)
        setattr(owner, name, replacement)
        if own:
            self._restore.append(lambda: setattr(owner, name, raw))
        else:
            self._restore.append(lambda: delattr(owner, name))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            self._restore.pop()()

    # -- recording ---------------------------------------------------------

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            before = hook.before(args) if hook.before else None
            frame = [0.0]
            top_level = not stack
            stack.append(frame)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer.spans.append((hook.layer, start, end,
                                     end - start - frame[0], top_level))
            if hook.counts is not None:
                counts = hook.counts(args, result, before)
                with tracer._lock:
                    for key, value in counts.items():
                        tracer.counters[key] += value
            return result

        return traced

    # -- persistence (the service process writes, the benchmark reads) --------

    def dump(self, path: str) -> None:
        """Write spans, counters and unavailable hooks as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "unavailable": self.unavailable}, fh)

    def merge_file(self, path: str) -> None:
        """Fold another process's :meth:`dump` into this tracer."""
        with open(path) as fh:
            doc = json.load(fh)
        self.spans.extend(tuple(span) for span in doc["spans"])
        for key, value in doc["counters"].items():
            self.counters[key] += value
        self.unavailable.extend(u for u in doc["unavailable"]
                                if u not in self.unavailable)


def covered_share(windows: Sequence[Tuple[float, float]],
                  intervals: Sequence[Tuple[float, float]]) -> float:
    """Share of the windows' total length covered by the intervals.

    Intervals may overlap each other (spans of several threads or
    processes); their union is what counts.
    """
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [m[0] for m in merged]
    covered = total = 0.0
    for lo, hi in windows:
        total += hi - lo
        k = max(bisect.bisect_right(starts, lo) - 1, 0)
        while k < len(merged) and merged[k][0] < hi:
            covered += max(0.0, min(hi, merged[k][1]) - max(lo, merged[k][0]))
            k += 1
    return ratio(covered, total)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """``<layer>.calls``/``.self_s`` plus the counter-derived metrics.

    Metrics the benchmark measures itself (``ensembles.repair.pass_ratio``,
    ``service.scheduler.queue_wait_s`` and the ``trace.*`` numbers) are
    left for the caller to fill in.
    """
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for layer, _, _, self_s, _ in tracer.spans:
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_s
    c = tracer.counters
    for name in ("core.engine.iterations", "core.density.rescattered",
                 "core.frequency_force.pairs", "core.interactions.rebuilds",
                 "core.legalizer.relaxations", "core.detailed.candidates",
                 "circuits.mapping.mappings", "circuits.mapping.swaps",
                 "circuits.transpile.gates_in", "circuits.transpile.gates_out",
                 "ensembles.sampling.samples", "service.store.bytes_written"):
        out[name] = c.get(name, 0)
    rebuilds = c.get("core.interactions.rebuilds", 0)
    out["core.interactions.reuse_ratio"] = ratio(
        c.get("core.interactions.reuses", 0),
        c.get("core.interactions.reuses", 0) + rebuilds)
    out["core.detailed.accept_ratio"] = ratio(
        c.get("core.detailed.accepted", 0),
        c.get("core.detailed.candidates", 0))
    out["analysis.runner.hit_ratio"] = ratio(
        c.get("analysis.runner.hits", 0),
        c.get("analysis.runner.lookups", 0))
    out["service.queue.cache_hit_ratio"] = ratio(
        c.get("service.queue.hits", 0), c.get("service.queue.submits", 0))
    out["service.http.polls_per_op"] = ratio(
        c.get("service.http.polls", 0), c.get("service.http.submits", 0))
    out["trace.hooks_missing"] = len(tracer.unavailable)
    return out
