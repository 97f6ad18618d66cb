"""Artifact-store tests: digests, round-trips, schema invalidation."""

from __future__ import annotations

import threading

import pytest

from repro.analysis import runner as runner_mod
from repro.service.requests import parse_request
from repro.service.store import ArtifactStore, request_digest


class TestRequestDigest:
    def test_stable_across_calls(self):
        req = parse_request("place", {"topology": "grid-25"})
        assert request_digest("place", req) == request_digest("place", req)

    def test_kind_in_digest(self):
        req = parse_request("place", {"topology": "grid-25"})
        assert request_digest("place", req) != request_digest("other", req)

    def test_field_changes_digest(self):
        a = parse_request("place", {"topology": "grid-25"})
        b = parse_request("place", {"topology": "grid-25", "seed": 1})
        assert request_digest("place", a) != request_digest("place", b)

    def test_defaults_coalesce_with_explicit(self):
        """An omitted field and its explicit default share one digest."""
        a = parse_request("place", {"topology": "grid-25"})
        b = parse_request("place", {"topology": "grid-25", "seed": 0,
                                    "segment_size_mm": 0.3})
        assert request_digest("place", a) == request_digest("place", b)

    def test_suite_name_coalesces_with_explicit_list(self):
        from repro.workloads import resolve_workload_names

        a = parse_request("fidelity", {"topology": "grid-25",
                                       "workloads": "paper-8"})
        b = parse_request("fidelity", {
            "topology": "grid-25",
            "workloads": list(resolve_workload_names("paper-8"))})
        assert request_digest("fidelity", a) == request_digest("fidelity", b)

    def test_config_in_digest(self):
        a = parse_request("place", {"topology": "grid-25",
                                    "config": {"num_bins": 32}})
        b = parse_request("place", {"topology": "grid-25",
                                    "config": {"num_bins": 64}})
        assert request_digest("place", a) != request_digest("place", b)

    def test_schema_version_in_digest(self, monkeypatch):
        req = parse_request("place", {"topology": "grid-25"})
        before = request_digest("place", req)
        monkeypatch.setattr(runner_mod, "CACHE_SCHEMA_VERSION",
                            runner_mod.CACHE_SCHEMA_VERSION + 1)
        assert request_digest("place", req) != before


class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ab" * 32
        store.put(digest, {"value": [1.5, 2.25]}, metadata={"kind": "test"})
        record = store.get(digest)
        assert record is not None
        assert record.result == {"value": [1.5, 2.25]}
        assert record.metadata["kind"] == "test"
        assert record.metadata["schema"] == runner_mod.CACHE_SCHEMA_VERSION
        assert store.count("hits", "objects") == 1

    def test_missing_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("cd" * 32) is None
        assert store.count("misses", "objects") == 1
        assert not store.contains("cd" * 32)

    def test_torn_document_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ef" * 32
        store.put(digest, {"x": 1})
        store.path(digest).write_text('{"format": "repro.artifact.v1", "di')
        assert store.get(digest) is None

    def test_wrong_digest_inside_document_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "12" * 32
        store.put(digest, {"x": 1})
        other = "34" * 32
        store.path(other).parent.mkdir(parents=True, exist_ok=True)
        store.path(other).write_text(store.path(digest).read_text())
        assert store.get(other) is None

    def test_float_bit_exact_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "56" * 32
        values = [0.1 + 0.2, 1e-300, 3.141592653589793, 2.0 ** -1074]
        store.put(digest, values)
        assert store.get(digest).result == values

    def test_put_is_atomic_under_thread_races(self, tmp_path):
        """Many threads writing one digest never produce a torn file."""
        store = ArtifactStore(tmp_path)
        digest = "78" * 32
        payload = {"rows": list(range(500))}
        errors = []

        def write(k):
            try:
                for _ in range(20):
                    store.put(digest, payload, metadata={"writer": k})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(k,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        record = store.get(digest)
        assert record is not None and record.result == payload
        leftovers = [p for p in store.path(digest).parent.iterdir()
                     if ".tmp." in p.name]
        assert leftovers == []


class TestSchemaInvalidation:
    """A store populated at version N must miss after a bump (ISSUE 5)."""

    def _digest_roundtrip(self, store, kind, request):
        digest = request_digest(kind, request)
        store.put(digest, {"computed_at_schema":
                           runner_mod.CACHE_SCHEMA_VERSION})
        return digest

    @pytest.mark.parametrize("kind,payload", [
        ("place", {"topology": "grid-25"}),
        ("map", {"benchmark": "bv-4", "topology": "grid-25",
                 "num_mappings": 2}),
    ])
    def test_bump_misses_for_both_artifact_kinds(self, tmp_path,
                                                 monkeypatch, kind,
                                                 payload):
        store = ArtifactStore(tmp_path)
        request = parse_request(kind, payload)
        old_digest = self._digest_roundtrip(store, kind, request)
        assert store.get(old_digest) is not None

        monkeypatch.setattr(runner_mod, "CACHE_SCHEMA_VERSION",
                            runner_mod.CACHE_SCHEMA_VERSION + 1)
        new_digest = request_digest(kind, request)
        assert new_digest != old_digest
        # The lookup under the new version is a clean miss — no crash,
        # no stale data.
        assert store.get(new_digest) is None


def test_circuit_scan_removed():
    """Artifacts carry their circuit digest in metadata; the store has
    no per-circuit scan (nothing called it)."""
    assert not hasattr(ArtifactStore, "artifacts_for_circuit")


class TestNearestPlacement:
    """The warm-start lookup scanning stored place artifacts."""

    def _place_artifact(self, store, digest, topology, created_at,
                        segment_size_mm=0.3, with_layout=True,
                        positions=((1.0, 2.0), (3.0, 4.0))):
        strategies = {"qplacer": {"metrics": {}}}
        if with_layout:
            strategies["qplacer"]["layout"] = {
                "format": "repro.layout.v1", "topology": topology,
                "positions": [list(p) for p in positions]}
        store.put(digest, {"topology": topology,
                           "segment_size_mm": segment_size_mm,
                           "strategies": strategies},
                  metadata={"kind": "place", "created_at": created_at,
                            "request": {"topology": topology,
                                        "segment_size_mm": segment_size_mm}})

    def test_empty_store_returns_none(self, tmp_path):
        assert ArtifactStore(tmp_path).nearest_placement("grid-25") is None

    def test_matches_topology_and_segment_size(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._place_artifact(store, "aa" * 32, "grid-25", 100.0)
        self._place_artifact(store, "bb" * 32, "falcon-27", 200.0)
        record = store.nearest_placement("grid-25", segment_size_mm=0.3)
        assert record is not None and record.digest == "aa" * 32
        assert store.nearest_placement("grid-25",
                                       segment_size_mm=0.5) is None
        assert store.nearest_placement("hummingbird-65") is None

    def test_newest_created_at_wins(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._place_artifact(store, "aa" * 32, "grid-25", 100.0)
        self._place_artifact(store, "cc" * 32, "grid-25", 300.0)
        self._place_artifact(store, "bb" * 32, "grid-25", 200.0)
        record = store.nearest_placement("grid-25")
        assert record.digest == "cc" * 32

    def test_ignores_layoutless_and_foreign_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._place_artifact(store, "aa" * 32, "grid-25", 100.0,
                             with_layout=False)
        store.put("dd" * 32, {"rows": []}, metadata={"kind": "map"})
        torn = store.path("ee" * 32)
        torn.parent.mkdir(parents=True, exist_ok=True)
        torn.write_text('{"format": "repro.artifact.v1", "metadata"')
        assert store.nearest_placement("grid-25") is None
        self._place_artifact(store, "ff" * 32, "grid-25", 50.0)
        assert store.nearest_placement("grid-25").digest == "ff" * 32

    def test_scan_does_not_skew_hit_metrics(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._place_artifact(store, "aa" * 32, "grid-25", 100.0)
        counts = [store.count(event) for event in ("hits", "misses")]
        store.nearest_placement("grid-25")
        assert [store.count(event) for event in ("hits", "misses")] \
            == counts


class TestSizeCap:
    """max_bytes eviction: oldest-mtime artifacts go first."""

    def _fill(self, store, digests, payload_bytes=2000):
        import os
        for k, digest in enumerate(digests):
            store.put(digest, {"blob": "x" * payload_bytes, "k": k})
            # Distinct mtimes even on coarse-resolution filesystems.
            os.utime(store.path(digest), (1_000_000 + k, 1_000_000 + k))

    def test_unbounded_by_default(self, tmp_path):
        store = ArtifactStore(tmp_path)
        self._fill(store, [f"{k:02x}" * 32 for k in range(5)])
        assert store.count("evictions") == 0
        assert all(store.contains(f"{k:02x}" * 32) for k in range(5))

    def test_rejects_nonpositive_cap(self, tmp_path):
        import pytest
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, max_bytes=0)

    def test_oldest_mtime_evicted_first(self, tmp_path):
        digests = [f"{k:02x}" * 32 for k in range(4)]
        store = ArtifactStore(tmp_path)
        self._fill(store, digests[:3])
        one_size = store.path(digests[0]).stat().st_size
        capped = ArtifactStore(tmp_path, max_bytes=2 * one_size + 10)
        capped.put(digests[3], {"blob": "y" * 2000})
        # Oldest two evicted; the just-written artifact always survives.
        assert not capped.contains(digests[0])
        assert not capped.contains(digests[1])
        assert capped.contains(digests[3])
        assert capped.count("evictions") == 2

    def test_just_written_never_evicted_even_if_oversized(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=100)
        digest = "ab" * 32
        store.put(digest, {"blob": "z" * 5000})
        assert store.contains(digest)

    def test_evictions_counter_in_metrics(self, tmp_path):
        digests = [f"{k:02x}" * 32 for k in range(3)]
        store = ArtifactStore(tmp_path, max_bytes=1)
        self._fill(store, digests)
        metrics = store.metrics()
        assert metrics["artifact_evictions"] == store.count("evictions")
        assert store.count("evictions") == 2  # each write evicts the previous

    def test_evicted_artifact_reads_as_miss(self, tmp_path):
        digests = ["aa" * 32, "bb" * 32]
        store = ArtifactStore(tmp_path, max_bytes=1)
        self._fill(store, digests)
        assert store.get(digests[0]) is None
        assert not store.remembers(digests[0])
