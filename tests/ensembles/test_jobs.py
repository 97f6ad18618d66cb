"""Chunk jobs, cache identity, and the shared ensemble executor."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.analysis.runner import ParallelRunner
from repro.core import PlacerConfig
from repro.ensembles import (
    DisorderSpec,
    EnsembleChunkJob,
    FrozenLayoutScorer,
    repair_sample,
    run_ensemble_chunk,
    run_ensemble_request,
    sample_batch,
    split_ensemble,
)
from repro.ensembles import jobs
from repro.ensembles.jobs import layout_doc_digest
from repro.io.serialization import (canonical_json, layout_from_dict,
                                    layout_to_dict)
from repro.io.store import Store
from repro.service.requests import EnsembleRequest


@pytest.fixture(scope="module")
def layout_doc(grid9_placed, fast_config):
    return layout_to_dict(grid9_placed.layout,
                          fast_config.segment_size_mm)


def _job(layout_doc, **over):
    fields = dict(layout_doc=layout_doc,
                  layout_digest=layout_doc_digest(layout_doc),
                  sigma_qubit_ghz=0.05, sigma_resonator_ghz=0.02,
                  base_seed=0, start=0, count=3)
    fields.update(over)
    return EnsembleChunkJob(**fields)


class TestSplitEnsemble:
    def test_covers_the_range_without_overlap(self):
        ranges = split_ensemble(10, 4)
        assert [list(r) for r in ranges] \
            == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_single_chunk(self):
        assert [list(r) for r in split_ensemble(3, 16)] == [[0, 1, 2]]

    @pytest.mark.parametrize("samples,chunk", [(0, 1), (1, 0)])
    def test_invalid_rejected(self, samples, chunk):
        with pytest.raises(ValueError):
            split_ensemble(samples, chunk)


class TestChunkCacheKey:
    def test_layout_doc_replaced_by_digest(self, layout_doc):
        key = _job(layout_doc).cache_key()
        assert "layout_doc" not in key
        assert key["layout_digest"] == hashlib.sha256(
            canonical_json(layout_doc).encode()).hexdigest()

    def test_key_is_stable_and_sensitive(self, layout_doc):
        base = _job(layout_doc).cache_key()
        assert _job(layout_doc).cache_key() == base
        for over in ({"start": 3}, {"count": 2}, {"base_seed": 1},
                     {"sigma_qubit_ghz": 0.06}):
            assert _job(layout_doc, **over).cache_key() != base

    def test_key_omits_the_total_sample_count(self, layout_doc):
        """Growing an ensemble must re-use every cached chunk, so the
        chunk identity covers only its own slice."""
        key = _job(layout_doc).cache_key()
        assert "samples" not in key


class TestRunEnsembleChunk:
    def test_matches_direct_scoring(self, grid9_placed, layout_doc):
        job = _job(layout_doc, start=2, count=3)
        out = run_ensemble_chunk(job)
        batch = sample_batch(grid9_placed.layout.netlist,
                             DisorderSpec(0.05, 0.02), 0, start=2, count=3)
        scorer = FrozenLayoutScorer(grid9_placed.layout)
        scores = scorer.score_batch(batch.qubit_freqs,
                                    batch.resonator_freqs)
        assert out["start"] == 2
        assert out["ph_percent"] == pytest.approx(scores.ph_percent)
        assert out["num_hotspots"] == scores.num_hotspots.tolist()
        assert out["impacted_qubits"] == scores.impacted_qubits.tolist()
        assert out["fidelity_proxy"] == pytest.approx(
            scores.fidelity_proxy)

    def test_result_is_json_able(self, layout_doc):
        json.dumps(run_ensemble_chunk(_job(layout_doc, count=2)))


class TestRunEnsembleRequest:
    @pytest.fixture(scope="class")
    def payload(self, fast_config):
        runner = ParallelRunner(max_workers=1)
        seen = []

        def on_point(index, point):
            seen.append((index, point["sigma_qubit_ghz"]))

        request = EnsembleRequest(
            topology="grid-9", sigmas=(0.0, 0.08), samples=4,
            config=fast_config, repair_samples=2, bootstrap=20)
        payload = run_ensemble_request(request, runner, chunk_size=2,
                                       on_point=on_point)
        payload["_seen"] = seen
        return payload

    def test_payload_shape(self, payload):
        assert payload["kind"] == "ensemble"
        assert payload["samples"] == 4
        assert payload["chunk_size"] == 2
        assert len(payload["points"]) == 2
        assert "ensemble/layout" in payload["phases"]
        assert "ensemble/score" in payload["phases"]

    def test_points_stream_in_order(self, payload):
        assert payload["_seen"] == [(0, 0.0), (1, 0.08)]

    def test_zero_sigma_point_is_degenerate(self, payload):
        point = payload["points"][0]
        assert point["sigma_qubit_ghz"] == 0.0
        # Every realisation is the design itself: one outcome only.
        assert point["yield"] in (0.0, 1.0)
        assert point["yield_ci"][0] == point["yield_ci"][1]

    def test_yield_after_repair_dominates(self, payload):
        for point in payload["points"]:
            assert point["yield_after_repair"] >= point["yield"] - 1e-12
            repair = point["repair"]
            assert repair["attempted"] <= 2
            assert repair["legal_all"]
            for row in repair["samples"]:
                assert row["ph_percent_before"] > 0.0
                assert len(row["sample_digest"]) == 64

    def test_spec_digests_differ_per_sigma(self, payload):
        digests = [p["spec_digest"] for p in payload["points"]]
        assert len(set(digests)) == len(digests)

    def test_each_point_counts_chunks(self, payload):
        assert all(p["chunks"] == 2 for p in payload["points"])

    def test_payload_json_able(self, payload):
        clean = {k: v for k, v in payload.items() if k != "_seen"}
        json.dumps(clean)


class TestChunkReuseAcrossEnsembleGrowth:
    def test_cached_chunks_survive_sample_growth(self, layout_doc,
                                                 tmp_path):
        """64 -> 256 style growth: the first chunks' cache entries are
        byte-identical keys, so the runner serves them without
        recomputation."""
        runner = ParallelRunner(max_workers=1, store=Store(tmp_path))
        jobs_small = [_job(layout_doc, start=r.start, count=len(r))
                      for r in split_ensemble(4, 2)]
        first = runner.map(run_ensemble_chunk, jobs_small,
                           namespace="ensembles")
        jobs_grown = [_job(layout_doc, start=r.start, count=len(r))
                      for r in split_ensemble(8, 2)]
        second = runner.map(run_ensemble_chunk, jobs_grown,
                            namespace="ensembles")
        assert second[:2] == first


#: Grid-25 FAST ensemble of the frame and bit-identity tests: two sigma
#: points of two chunks each, every sample failing ``max_ph_percent`` 0.
FRAME_REQUEST = EnsembleRequest(
    topology="grid-25", sigmas=(0.02, 0.05), samples=8,
    config=PlacerConfig(max_iterations=60, min_iterations=10, num_bins=32),
    repair_samples=2, bootstrap=20)

#: sha256 over the canonical JSON of FRAME_REQUEST's points without
#: their ``repair`` and ``yield_after_repair`` fields.  Recorded before
#: the repair moved to the problem frame; the frozen scoring must not
#: move with it.
FROZEN_POINTS_DIGEST = \
    "fb2fef2b17d196b2f4f5f2e099043c0af038d6cfa1867835fd67df815f6b7f4b"


class TestRepairInTheProblemFrame:
    @pytest.fixture(scope="class")
    def run(self):
        seen = []

        def spy(design_problem, noisy, cached_positions, config,
                strategy="qplacer"):
            seen.append((design_problem, config,
                         np.array(cached_positions)))
            return repair_sample(design_problem, noisy, cached_positions,
                                 config, strategy=strategy)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jobs, "repair_sample", spy)
            payload = run_ensemble_request(
                FRAME_REQUEST, ParallelRunner(max_workers=1), chunk_size=4)
        return payload, seen

    def test_cached_qubits_sit_on_the_legalizer_lattice(self, run):
        payload, seen = run
        assert len(seen) == 4
        for problem, config, cached in seen:
            qubits = cached[problem.is_qubit]
            pitch = config.qubit_site_pitch_mm(
                float(problem.sizes[problem.is_qubit][:, 0].max()))
            off = np.abs(qubits - np.round(qubits / pitch) * pitch)
            assert off.max() <= 1e-9

    def test_frozen_scores_unchanged(self, run):
        payload, _ = run
        frozen = [{k: v for k, v in point.items()
                   if k not in ("repair", "yield_after_repair")}
                  for point in payload["points"]]
        assert "fidelity_ci" in frozen[0]
        digest = hashlib.sha256(canonical_json(frozen).encode()).hexdigest()
        assert digest == FROZEN_POINTS_DIGEST

    def test_repaired_rows_are_legal(self, run):
        payload, _ = run
        for point in payload["points"]:
            assert point["repair"]["attempted"] == 2
            assert point["repair"]["legal_all"]


class TestFrozenScorerMemo:
    def test_two_chunks_parse_the_layout_once(self, layout_doc,
                                              monkeypatch):
        parses = []

        def counting(doc):
            parses.append(doc)
            return layout_from_dict(doc)

        monkeypatch.setattr(jobs, "layout_from_dict", counting)
        monkeypatch.setattr(jobs, "_LAST_SCORER", None)
        first = run_ensemble_chunk(_job(layout_doc, start=0, count=3))
        second = run_ensemble_chunk(_job(layout_doc, start=3, count=3))
        assert len(parses) == 1
        assert first["start"] == 0 and second["start"] == 3

    def test_memo_scores_equal_a_fresh_parse(self, layout_doc,
                                             monkeypatch):
        monkeypatch.setattr(jobs, "_LAST_SCORER", None)
        job = _job(layout_doc, start=1, count=4)
        run_ensemble_chunk(job)  # fills the memo
        memo = run_ensemble_chunk(job)
        fresh = FrozenLayoutScorer(layout_from_dict(layout_doc))
        batch = sample_batch(fresh.layout.netlist, DisorderSpec(0.05, 0.02),
                             0, start=1, count=4)
        scores = fresh.score_batch(batch.qubit_freqs, batch.resonator_freqs)
        assert np.array(memo["ph_percent"]).tobytes() \
            == scores.ph_percent.tobytes()
        assert np.array(memo["fidelity_proxy"]).tobytes() \
            == scores.fidelity_proxy.tobytes()
        assert memo["num_hotspots"] == scores.num_hotspots.tolist()
        assert memo["impacted_qubits"] == scores.impacted_qubits.tolist()

    def test_memo_keeps_one_layout(self, layout_doc, monkeypatch):
        monkeypatch.setattr(jobs, "_LAST_SCORER", None)
        first = jobs.frozen_scorer(layout_doc, "digest-a")
        assert jobs.frozen_scorer(layout_doc, "digest-a") is first
        other = jobs.frozen_scorer(layout_doc, "digest-b")
        assert other is not first
        assert jobs._LAST_SCORER == (
            ("digest-b", other.detuning_threshold_ghz, other.duration_ns),
            other)
        assert jobs.frozen_scorer(layout_doc, "digest-a") is not first

    def test_concurrent_callers_get_their_own_layout(self, layout_doc,
                                                     monkeypatch):
        """Service worker threads share the memo: whatever the
        interleaving, each caller gets a scorer of the document it
        asked for."""
        docs = {"digest-a": layout_doc,
                "digest-b": dict(layout_doc, strategy="other")}
        monkeypatch.setattr(jobs, "_LAST_SCORER", None)
        wrong = []
        barrier = threading.Barrier(8)

        def call(k):
            barrier.wait()
            for d in ("digest-a", "digest-b")[k % 2:] * 6:
                scorer = jobs.frozen_scorer(docs[d], d)
                if scorer.layout.strategy != docs[d]["strategy"]:
                    wrong.append(d)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method")
    def test_fork_during_a_cold_build_does_not_hang(self, layout_doc,
                                                    monkeypatch):
        """A pool worker forked while another thread is building a
        scorer still builds its own."""
        building, release = threading.Event(), threading.Event()

        def slow(doc):
            if threading.current_thread().name == "cold-build":
                building.set()
                release.wait(timeout=60)
            return layout_from_dict(doc)

        monkeypatch.setattr(jobs, "layout_from_dict", slow)
        monkeypatch.setattr(jobs, "_LAST_SCORER", None)
        builder = threading.Thread(
            target=jobs.frozen_scorer, args=(layout_doc, "digest-a"),
            name="cold-build")
        builder.start()
        try:
            assert building.wait(timeout=60)
            ctx = multiprocessing.get_context("fork")
            parent_end, child_end = ctx.Pipe(duplex=False)

            def child():
                child_end.send(run_ensemble_chunk(
                    _job(layout_doc, start=0, count=2))["start"])

            proc = ctx.Process(target=child)
            proc.start()
            done = parent_end.poll(timeout=60)
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
            assert done and parent_end.recv() == 0
        finally:
            release.set()
            builder.join(timeout=60)
