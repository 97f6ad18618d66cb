"""Chunk jobs, cache identity, and the shared ensemble executor."""

from __future__ import annotations

import json

import pytest

from repro.analysis.runner import ParallelRunner
from repro.ensembles import (
    DisorderSpec,
    EnsembleChunkJob,
    FrozenLayoutScorer,
    run_ensemble_chunk,
    run_ensemble_request,
    sample_batch,
    split_ensemble,
)
from repro.io.serialization import layout_to_dict
from repro.service.requests import EnsembleRequest


@pytest.fixture(scope="module")
def layout_doc(grid9_placed, fast_config):
    return layout_to_dict(grid9_placed.layout,
                          fast_config.segment_size_mm)


def _job(layout_doc, **over):
    fields = dict(layout_doc=layout_doc, sigma_qubit_ghz=0.05,
                  sigma_resonator_ghz=0.02, base_seed=0, start=0, count=3)
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
        assert len(key["layout_digest"]) == 64

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
        runner = ParallelRunner(max_workers=1, cache_dir=tmp_path)
        jobs_small = [_job(layout_doc, start=r.start, count=len(r))
                      for r in split_ensemble(4, 2)]
        first = runner.map(run_ensemble_chunk, jobs_small,
                           namespace="ensembles")
        jobs_grown = [_job(layout_doc, start=r.start, count=len(r))
                      for r in split_ensemble(8, 2)]
        second = runner.map(run_ensemble_chunk, jobs_grown,
                            namespace="ensembles")
        assert second[:2] == first
