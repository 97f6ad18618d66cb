"""The one content-addressed store: layout, codecs, eviction, counters."""

from __future__ import annotations

import os
import pickle
import sys
import threading

import pytest

from repro.io.store import Store


def _aged(store, namespace, digest, size, age, suffix=".pkl"):
    """Save a ``size``-byte entry and give it a distinct, old mtime."""
    store.save(namespace, digest, b"x" * size, suffix=suffix, encode=bytes)
    path = store.entry(namespace, digest, suffix)
    os.utime(path, (1_000_000 + age, 1_000_000 + age))
    return path


class TestLayout:
    def test_entry_path_fans_out_by_digest_prefix(self, tmp_path):
        store = Store(tmp_path)
        assert store.entry("suite", "abcd") \
            == tmp_path / "suite" / "ab" / "abcd.pkl"
        assert store.entry("objects", "abcd", ".json") \
            == tmp_path / "objects" / "ab" / "abcd.json"

    def test_pickle_round_trip_is_a_hit(self, tmp_path):
        store = Store(tmp_path)
        store.save("ns", "ab" * 32, {"x": [0.1 + 0.2]})
        assert store.load("ns", "ab" * 32) == (True, {"x": [0.1 + 0.2]})
        assert (store.count("hits", "ns"), store.count("misses", "ns")) \
            == (1, 0)

    def test_custom_codec(self, tmp_path):
        store = Store(tmp_path)
        store.save("raw", "cd" * 32, "text", suffix=".txt",
                   encode=str.encode)
        assert store.load("raw", "cd" * 32, ".txt", bytes.decode) \
            == (True, "text")
        assert list(store.scan("raw", ".txt")) == [b"text"]
        assert list(store.scan("raw")) == []  # other suffix

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            Store(tmp_path, max_bytes=0)


class TestCorruptEntries:
    def test_undecodable_entry_is_one_miss_and_deleted(self, tmp_path):
        store = Store(tmp_path)
        store.save("ns", "ef" * 32, list(range(100)))
        path = store.entry("ns", "ef" * 32)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        assert store.load("ns", "ef" * 32) == (False, None)
        assert not path.exists()
        assert (store.count("hits"), store.count("misses")) == (0, 1)

    def test_failed_encode_keeps_the_previous_entry(self, tmp_path):
        store = Store(tmp_path)
        store.save("ns", "12" * 32, "old")

        class Explodes:
            def __reduce__(self):
                raise RuntimeError("mid-serialisation failure")

        with pytest.raises(RuntimeError):
            store.save("ns", "12" * 32, Explodes())
        assert store.load("ns", "12" * 32) == (True, "old")


class TestEviction:
    def test_unbounded_store_never_evicts(self, tmp_path):
        store = Store(tmp_path)
        for k in range(4):
            _aged(store, "ns", f"{k:02x}" * 32, 500, k)
        assert store.count("evictions") == 0
        assert len(list(tmp_path.rglob("*.pkl"))) == 4

    def test_one_policy_across_namespaces(self, tmp_path):
        """Oldest mtime goes first, whatever namespace holds it."""
        seed = Store(tmp_path)
        old_suite = _aged(seed, "suite", "aa" * 32, 1000, 0)
        old_doc = _aged(seed, "objects", "bb" * 32, 1000, 1, suffix=".json")
        young = _aged(seed, "mappings", "cc" * 32, 1000, 2)
        capped = Store(tmp_path, max_bytes=2000)
        capped.save("mappings", "dd" * 32, b"w" * 1000, encode=bytes)
        assert not old_suite.exists() and not old_doc.exists()
        assert young.exists()
        assert capped.entry("mappings", "dd" * 32).exists()
        assert capped.count("evictions") == 2
        assert capped.count("evictions", "suite") == 1
        assert capped.count("evictions", "objects") == 1

    def test_just_written_entry_survives_an_oversized_write(self, tmp_path):
        store = Store(tmp_path, max_bytes=10)
        store.save("ns", "ab" * 32, "x" * 5000)
        assert store.load("ns", "ab" * 32)[0]

    def test_in_flight_temp_files_are_not_evicted(self, tmp_path):
        store = Store(tmp_path, max_bytes=1)
        temp = tmp_path / "ns" / "ab" / ".abab.pkl.tmp.1.2.3"
        temp.parent.mkdir(parents=True)
        temp.write_bytes(b"partial")
        store.save("ns", "cd" * 32, "x")
        assert temp.exists()


class TestIdentity:
    def test_pickles_to_a_store_at_the_same_root(self, tmp_path):
        store = Store(tmp_path, max_bytes=1000)
        store.save("ns", "ab" * 32, 1)
        store.load("ns", "ab" * 32)
        copy = pickle.loads(pickle.dumps(store))
        assert (copy.root, copy.max_bytes) == (tmp_path, 1000)
        assert copy.count("hits") == 0  # counters stay with the original
        assert copy.load("ns", "ab" * 32) == (True, 1)

    def test_stores_compare_by_root(self, tmp_path):
        assert Store(tmp_path) == Store(tmp_path)
        assert hash(Store(tmp_path)) == hash(Store(tmp_path))
        assert Store(tmp_path) != Store(tmp_path / "other")


def test_counters_lose_no_update_across_threads(tmp_path):
    """The service's scheduler threads and its runner share one store."""
    store = Store(tmp_path)
    store.save("ns", "ab" * 32, 1)
    threads, rounds = 8, 300
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [
            (store.load("ns", "ab" * 32), store.load("ns", "cd" * 32))
            for _ in range(rounds)]) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert store.count("hits", "ns") == threads * rounds
    assert store.count("misses", "ns") == threads * rounds
