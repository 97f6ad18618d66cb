"""Ensemble fan-out: chunk jobs, the runner pipeline, and the request
executor body.

An ensemble request fans exactly like a chunked map request: the sample
range ``[0, samples)`` splits into :class:`EnsembleChunkJob` slices
that flow through :meth:`~repro.analysis.runner.ParallelRunner.map`
under the ``"ensembles"`` cache namespace.  Chunk results are pure
per-sample score lists, so they concatenate into the same arrays a
single whole-ensemble evaluation would produce (chunk-boundary
invariance is a property of the sampler, see
:mod:`repro.ensembles.sampling`).

A chunk's cache key deliberately omits the ensemble's *total* sample
count: sample ``i`` is fully defined by ``(layout, disorder, base_seed,
i)``, so growing an ensemble from 64 to 256 samples re-uses every
cached chunk of the first 64.

The frozen layout is prepared once per request: the request hashes its
layout document once, every chunk job carries that digest, and
:func:`frozen_scorer` keeps the last parsed layout and its
:class:`FrozenLayoutScorer`, so the chunks of a request (and later
requests on the same layout) share one parse and one positional
precompute.  The request fills the entry before it fans out, so
in-process chunks and forked pool workers both find it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

from .. import constants, profiling
from ..crosstalk.hotspots import hotspot_report
from ..devices.disorder import netlist_with_frequencies
from ..io.serialization import canonical_json, layout_from_dict
from .evaluation import (
    DEFAULT_EXPOSURE_NS,
    EnsembleScores,
    FrozenLayoutScorer,
    summarize_scores,
)
from .repair import repair_sample
from .sampling import sample_batch
from .spec import DisorderSpec, EnsembleSpec

if TYPE_CHECKING:
    from ..service.requests import EnsembleRequest


def layout_doc_digest(layout_doc: Dict) -> str:
    """sha256 over the canonical JSON of a serialised layout."""
    return hashlib.sha256(canonical_json(layout_doc).encode()).hexdigest()


@dataclass(frozen=True)
class EnsembleChunkJob:
    """Score samples ``[start, start+count)`` of one disorder setting.

    ``layout_doc`` is the serialised frozen layout
    (:func:`~repro.io.serialization.layout_to_dict` output) so the job
    pickles cleanly into worker processes and the runner cache; the
    cache key swaps it for ``layout_digest``, which must be its
    :func:`layout_doc_digest` (hashed once for all the jobs over one
    layout).
    """

    layout_doc: Dict
    layout_digest: str
    sigma_qubit_ghz: float
    sigma_resonator_ghz: float
    base_seed: int
    start: int
    count: int
    detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ
    duration_ns: float = DEFAULT_EXPOSURE_NS

    def cache_key(self) -> Dict:
        """Content-addressed identity for the runner's pickle cache."""
        return {
            "kind": "ensemble-chunk",
            "layout_digest": self.layout_digest,
            "sigma_qubit_ghz": self.sigma_qubit_ghz,
            "sigma_resonator_ghz": self.sigma_resonator_ghz,
            "base_seed": self.base_seed,
            "start": self.start,
            "count": self.count,
            "detuning_threshold_ghz": self.detuning_threshold_ghz,
            "duration_ns": self.duration_ns,
        }


#: The last frozen-layout scorer this process built, keyed by
#: ``(layout digest, detuning threshold, exposure window)``.  One entry
#: holds the layout of the request in flight; it takes no lock, so
#: concurrent cold callers may each build one (the last write wins) and
#: a forked worker never inherits a held lock.
_LAST_SCORER: Optional[Tuple[Tuple[str, float, float],
                             FrozenLayoutScorer]] = None


def frozen_scorer(layout_doc: Dict, layout_digest: str,
                  detuning_threshold_ghz: float =
                  constants.DETUNING_THRESHOLD_GHZ,
                  duration_ns: float = DEFAULT_EXPOSURE_NS
                  ) -> FrozenLayoutScorer:
    """The parsed layout's scorer, re-used while the digest repeats.

    ``layout_digest`` must be :func:`layout_doc_digest` of
    ``layout_doc``.  The scorer and its ``layout`` are shared between
    callers (and the service's worker threads), so they are read-only.
    """
    global _LAST_SCORER
    key = (layout_digest, float(detuning_threshold_ghz), float(duration_ns))
    last = _LAST_SCORER
    if last is not None and last[0] == key:
        return last[1]
    scorer = FrozenLayoutScorer(
        layout_from_dict(layout_doc),
        detuning_threshold_ghz=detuning_threshold_ghz,
        duration_ns=duration_ns)
    _LAST_SCORER = (key, scorer)
    return scorer


def run_ensemble_chunk(job: EnsembleChunkJob) -> Dict[str, List]:
    """Evaluate one chunk; returns JSON-able per-sample score lists."""
    scorer = frozen_scorer(job.layout_doc, job.layout_digest,
                           job.detuning_threshold_ghz, job.duration_ns)
    with profiling.phase("sample"):
        batch = sample_batch(
            scorer.layout.netlist,
            DisorderSpec(job.sigma_qubit_ghz, job.sigma_resonator_ghz),
            job.base_seed, start=job.start, count=job.count)
    scores = scorer.score_batch(batch.qubit_freqs, batch.resonator_freqs)
    return {
        "start": job.start,
        "ph_percent": [float(x) for x in scores.ph_percent],
        "num_hotspots": [int(x) for x in scores.num_hotspots],
        "impacted_qubits": [int(x) for x in scores.impacted_qubits],
        "fidelity_proxy": [float(x) for x in scores.fidelity_proxy],
    }


def _scores_from_chunks(chunks: Sequence[Dict[str, List]]) -> EnsembleScores:
    ordered = sorted(chunks, key=lambda c: c["start"])
    return EnsembleScores(
        ph_percent=np.concatenate(
            [np.asarray(c["ph_percent"], dtype=float) for c in ordered]),
        num_hotspots=np.concatenate(
            [np.asarray(c["num_hotspots"], dtype=np.int64)
             for c in ordered]),
        impacted_qubits=np.concatenate(
            [np.asarray(c["impacted_qubits"], dtype=np.int64)
             for c in ordered]),
        fidelity_proxy=np.concatenate(
            [np.asarray(c["fidelity_proxy"], dtype=float)
             for c in ordered]))


def split_ensemble(samples: int, chunk_size: int) -> List[range]:
    """Sample index ranges of the chunked ensemble."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return [range(s, min(s + chunk_size, samples))
            for s in range(0, samples, chunk_size)]


def run_ensemble_request(request: "EnsembleRequest",
                         runner: "ParallelRunner",
                         chunk_size: Optional[int] = None,
                         store=None,
                         on_point: Optional[Callable[[int, Dict], None]] = None
                         ) -> Dict[str, object]:
    """Execute one ensemble request (shared by service and CLI paths).

    For each sigma point: fan the sample range through the runner as
    cached :class:`EnsembleChunkJob` chunks, summarise into a yield /
    fidelity curve point with bootstrap intervals, then incrementally
    repair up to ``repair_samples`` failing realisations (cached
    problem-frame positions -> legalize -> transactional detailed pass,
    :func:`~repro.ensembles.repair.repair_sample`) and report
    yield-after-repair next to the frozen yield.  ``on_point`` fires
    after each completed point — the service executor uses it to stream
    progress and publish partial artifacts; it may raise (e.g.
    ``JobCancelled``) to abort the sweep.
    """
    from ..analysis.experiments import _effective_config, run_place_request
    from ..core.preprocess import build_problem
    from ..service.requests import PlaceRequest

    topology, strategy = request.topology, request.strategy
    segment_size_mm, samples = request.segment_size_mm, request.samples
    base_seed, max_ph_percent = request.base_seed, request.max_ph_percent
    effective = _effective_config(request.config, request.seed,
                                  segment_size_mm)
    design_problem = None
    with profiling.PhaseProfiler() as prof:
        with profiling.phase("ensemble/layout"):
            place_payload = run_place_request(
                PlaceRequest(topology=topology,
                             segment_size_mm=segment_size_mm,
                             strategies=(strategy,), seed=request.seed,
                             config=request.config,
                             warm_start=request.warm_start),
                runner, store=store)
            layout_doc = place_payload["strategies"][strategy]["layout"]
            layout_digest = layout_doc_digest(layout_doc)
            layout = frozen_scorer(layout_doc, layout_digest).layout
        netlist = layout.netlist
        cached_positions = layout.problem_positions

        if chunk_size is None:
            workers = max(1, int(getattr(runner, "max_workers", 1) or 1))
            chunk_size = max(1, -(-samples // workers))

        points: List[Dict[str, object]] = []
        for k, sigma in enumerate(request.sigmas):
            sigma_q = float(sigma)
            sigma_r = float(sigma) * float(request.resonator_sigma_scale)
            spec = EnsembleSpec(
                topology=topology, strategy=strategy,
                segment_size_mm=segment_size_mm, samples=samples,
                base_seed=base_seed,
                disorder=DisorderSpec(sigma_q, sigma_r))
            jobs = [
                EnsembleChunkJob(
                    layout_doc=layout_doc, layout_digest=layout_digest,
                    sigma_qubit_ghz=sigma_q, sigma_resonator_ghz=sigma_r,
                    base_seed=base_seed, start=r.start, count=len(r))
                for r in split_ensemble(samples, chunk_size)
            ]
            with profiling.phase("ensemble/score"):
                chunks = runner.map(run_ensemble_chunk, jobs,
                                    namespace="ensembles")
            scores = _scores_from_chunks(chunks)
            point: Dict[str, object] = {
                "sigma_qubit_ghz": sigma_q,
                "sigma_resonator_ghz": sigma_r,
                "spec_digest": spec.digest,
                "chunks": len(jobs),
            }
            point.update(summarize_scores(scores, max_ph_percent,
                                          bootstrap=request.bootstrap,
                                          seed=base_seed))

            passed = scores.passed(max_ph_percent)
            failing = np.flatnonzero(~passed)
            attempted = [int(i) for i in
                         failing[:max(0, request.repair_samples)]]
            repaired_pass = 0
            repair_rows: List[Dict[str, object]] = []
            with profiling.phase("ensemble/repair"):
                if attempted and design_problem is None:
                    design_problem = build_problem(netlist, effective)
                for idx in attempted:
                    row = sample_batch(netlist, spec.disorder, base_seed,
                                       start=idx, count=1)
                    noisy = netlist_with_frequencies(
                        netlist, row.qubit_freqs[0], row.resonator_freqs[0])
                    result = repair_sample(design_problem, noisy,
                                           cached_positions,
                                           effective, strategy=strategy)
                    ph_after = hotspot_report(result.layout).ph_percent
                    ok = ph_after <= max_ph_percent + 1e-12
                    repaired_pass += int(ok)
                    repair_rows.append({
                        "sample": idx,
                        "sample_digest": spec.sample_digest(idx),
                        "ph_percent_before": float(scores.ph_percent[idx]),
                        "ph_percent_after": float(ph_after),
                        "legal": bool(result.legal),
                        "moved_mm": result.moved_mm,
                        "passed": bool(ok),
                    })
            kept = int(passed.sum())
            point["repair"] = {
                "attempted": len(attempted),
                "passed": repaired_pass,
                "legal_all": all(r["legal"] for r in repair_rows),
                "samples": repair_rows,
            }
            point["yield_after_repair"] = (kept + repaired_pass) / samples
            points.append(point)
            if on_point is not None:
                on_point(k, point)

    payload: Dict[str, object] = {
        "kind": "ensemble",
        "topology": topology,
        "strategy": strategy,
        "segment_size_mm": segment_size_mm,
        "samples": samples,
        "base_seed": base_seed,
        "resonator_sigma_scale": request.resonator_sigma_scale,
        "max_ph_percent": max_ph_percent,
        "chunk_size": chunk_size,
        "warm_start": place_payload.get("warm_start"),
        "points": points,
        "phases": prof.as_dict(),
    }
    profiling.accumulate(payload["phases"])
    return payload
