"""Real-executor end-to-end tests (fast configs, one small topology).

The HTTP tests stub the executors; these run the actual pipelines
through the service and pin the service-vs-direct identity contract at
test scale (the eagle-scale version lives in
``benchmarks/bench_perf_service.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import (build_suite, fidelity_experiment,
                                        _effective_config)
from repro.core import PlacerConfig
from repro.service import PlacementService, ServiceClient
from tests.oracles.circuit import used_qubits

FAST = {"max_iterations": 60, "min_iterations": 10, "num_bins": 32}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    svc = PlacementService(store_dir=root, port=0, workers=2,
                           runner_workers=1)
    with svc:
        yield svc


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.base_url, timeout=30.0)


class TestPlacePipeline:
    def test_place_result_and_layout_round_trip(self, client):
        result = client.run("place", {
            "topology": "grid-25", "strategies": ["qplacer"],
            "config": FAST}, timeout=300)
        entry = result["strategies"]["qplacer"]
        assert entry["num_cells"] > 0
        assert entry["metrics"]["amer_mm2"] > 0
        # the served layout deserialises back into a Layout
        from repro.io.serialization import layout_from_dict

        layout = layout_from_dict(entry["layout"])
        assert layout.strategy == "qplacer"
        assert layout.positions.shape[1] == 2

    def test_place_payload_carries_phase_telemetry(self, client):
        result = client.run("place", {
            "topology": "grid-25", "strategies": ["qplacer"],
            "config": FAST}, timeout=300)
        entry = result["strategies"]["qplacer"]
        # Legalizer + detailed telemetry ride in the payload.
        assert entry["legalize"]["phase_seconds"]["legalize"] > 0
        assert entry["detailed"] is None  # grid-25 resolves to 0 passes
        phases = entry["phases"]
        assert {"preprocess", "global", "legalize"} <= set(phases)
        top = sum(s for path, s in phases.items() if "/" not in path)
        assert top <= 1.05 * entry["runtime_s"]

    def test_metrics_aggregate_place_phases(self, client):
        client.run("place", {"topology": "grid-25",
                             "strategies": ["qplacer"],
                             "config": FAST}, timeout=300)
        metrics = client.metrics()
        assert "legalize" in metrics["phases"]
        assert metrics["phases"]["legalize"]["seconds"] > 0
        assert metrics["phases"]["legalize"]["calls"] >= 1


class TestMapPipeline:
    def test_map_summary_matches_direct_computation(self, client):
        request = {"benchmark": "bv-4", "topology": "grid-25",
                   "num_mappings": 3, "base_seed": 2}
        result = client.run("map", request, timeout=300)
        from repro.circuits.library import get_benchmark
        from repro.circuits.mapping import evaluation_mappings
        from repro.devices.topology import get_topology

        direct = evaluation_mappings(get_benchmark("bv-4"),
                                     get_topology("grid-25"),
                                     num_mappings=3, base_seed=2)
        assert len(result["mappings"]) == 3
        for row, mapped in zip(result["mappings"], direct):
            assert row["swap_count"] == mapped.swap_count
            assert row["duration_ns"] == mapped.duration_ns
            assert row["active_qubits"] == len(
                used_qubits(mapped.physical_arrays.to_circuit()))
        assert result["total_swaps"] == sum(m.swap_count for m in direct)

    def test_chunked_map_has_same_digest_and_result(self, client, service):
        request = {"benchmark": "bv-4", "topology": "grid-25",
                   "num_mappings": 4, "base_seed": 11}
        plain = client.submit("map", request)
        baseline = client.result(plain["job_id"], timeout=300)
        # force a recompute of the same request with chunking by
        # clearing the artifact (options are not part of the digest)
        service.store.path(plain["digest"]).unlink()
        chunked_job = client.submit("map", request,
                                    options={"chunk_size": 2})
        assert chunked_job["digest"] == plain["digest"]
        chunked = client.result(chunked_job["job_id"], timeout=300)
        assert chunked == baseline


class TestFidelityPipeline:
    def test_fidelity_matches_direct_experiment(self, client):
        request = {"topology": "grid-25", "workloads": ["bv-4", "ising-4"],
                   "num_mappings": 2, "strategies": ["qplacer"],
                   "config": FAST}
        result = client.run("fidelity", request, timeout=300)
        config = _effective_config(PlacerConfig(**FAST), 0, 0.3)
        suite = build_suite("grid-25", strategies=("qplacer",),
                            config=config)
        direct = fidelity_experiment(suite, ("bv-4", "ising-4"),
                                     num_mappings=2)
        assert result["fidelity"] == json.loads(json.dumps(direct))


class TestWarmStartPipeline:
    """Warm-starting place requests from the artifact store (ISSUE 6)."""

    def test_warm_start_seeds_from_stored_placement(self, client):
        cold = client.run("place", {
            "topology": "grid-25", "strategies": ["qplacer"],
            "config": FAST}, timeout=300)
        assert "warm_start" not in cold
        warm = client.run("place", {
            "topology": "grid-25", "strategies": ["qplacer"],
            "config": FAST, "warm_start": True}, timeout=300)
        assert warm["warm_start"]["seeded"] is True
        assert isinstance(warm["warm_start"]["source_digest"], str)
        entry = warm["strategies"]["qplacer"]
        assert entry["metrics"]["amer_mm2"] > 0
        assert entry["iterations"] >= 1

    def test_warm_start_without_source_falls_back_cold(self, client):
        result = client.run("place", {
            "topology": "falcon-27", "strategies": ["qplacer"],
            "config": FAST, "warm_start": True, "seed": 7}, timeout=300)
        assert result["warm_start"] == {"seeded": False,
                                        "source_digest": None}
        assert result["strategies"]["qplacer"]["metrics"]["amer_mm2"] > 0

    def test_warm_and_cold_requests_digest_differently(self):
        from repro.service.requests import parse_request
        from repro.service.store import request_digest

        cold = parse_request("place", {"topology": "grid-25"})
        warm = parse_request("place", {"topology": "grid-25",
                                       "warm_start": True})
        assert request_digest("place", cold) != request_digest("place", warm)

    def test_warm_start_positions_helper(self, tmp_path):
        import numpy as np

        from repro.analysis.experiments import warm_start_positions
        from repro.service.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        store.put("aa" * 32, {
            "topology": "grid-25", "segment_size_mm": 0.3,
            "strategies": {
                "qplacer": {"layout": {"positions": [[1.0, 2.0]]}},
            }},
            metadata={"kind": "place", "created_at": 10.0,
                      "request": {"topology": "grid-25",
                                  "segment_size_mm": 0.3}})
        seeds, source = warm_start_positions(
            store, "grid-25", 0.3, ("qplacer", "classic", "human"))
        assert source == "aa" * 32
        assert np.array_equal(seeds["qplacer"], [[1.0, 2.0]])
        # classic falls back to the only stored layout; human never seeds
        assert np.array_equal(seeds["classic"], [[1.0, 2.0]])
        assert "human" not in seeds
        assert warm_start_positions(store, "falcon-27", 0.3,
                                    ("qplacer",)) == ({}, None)
