"""Cache-directory contracts: atomic writes and schema invalidation.

Two satellite guarantees of ISSUE 5:

* concurrent writers racing on one cache entry go through a temp-file +
  atomic-rename protocol (unique temp per process *and thread*), so
  readers never observe a truncated/torn entry;
* a cache populated at schema version N must *miss* — not crash, not
  return stale data — after :data:`~repro.analysis.runner.
  CACHE_SCHEMA_VERSION` is bumped, for both placement and mapping
  artifacts.
"""

from __future__ import annotations

import functools
import pickle
import threading

from repro.analysis import runner as runner_mod
from repro.analysis.runner import (EvaluationJob, MappingJob, ParallelRunner,
                                   PlacementJob, job_token, run_mapping_job,
                                   run_topology_evaluation)
from repro.core import PlacerConfig
from repro.io.atomic import atomic_write_bytes
from repro.io.store import Store

FAST = PlacerConfig(max_iterations=60, min_iterations=10, num_bins=32)


class TestAtomicCacheWrites:
    def test_concurrent_same_entry_writers_never_tear(self, tmp_path):
        """Threads hammering one path leave a complete winner behind."""
        path = tmp_path / "ns" / "entry.pkl"
        payloads = [pickle.dumps({"writer": k, "blob": bytes(200_000)})
                    for k in range(6)]
        errors = []
        stop = threading.Event()

        def write(k):
            try:
                while not stop.is_set():
                    atomic_write_bytes(path, payloads[k])
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def read():
            try:
                while not stop.is_set():
                    if path.exists():
                        data = path.read_bytes()
                        value = pickle.loads(data)  # torn file would raise
                        assert data in payloads
                        assert "blob" in value
            except Exception as exc:
                errors.append(exc)

        threads = ([threading.Thread(target=write, args=(k,))
                    for k in range(6)]
                   + [threading.Thread(target=read) for _ in range(2)])
        for t in threads:
            t.start()
        timer = threading.Timer(1.0, stop.set)
        timer.start()
        for t in threads:
            t.join(timeout=30)
        timer.cancel()
        stop.set()
        assert not errors
        assert path.read_bytes() in payloads
        leftovers = [p for p in path.parent.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_runner_store_goes_through_atomic_writer(self, tmp_path):
        """A runner write leaves no temp droppings and a loadable entry."""
        runner = ParallelRunner(max_workers=1, store=Store(tmp_path))
        job = MappingJob(benchmark="bv-4", topology="grid-25",
                         num_mappings=2)
        runner.map(run_mapping_job, [job], namespace="mappings")
        entries = list(tmp_path.rglob("*.pkl"))
        assert len(entries) == 1
        pickle.loads(entries[0].read_bytes())
        assert not [p for p in tmp_path.rglob("*") if ".tmp." in p.name]

    def test_threads_share_one_runner_and_store(self, tmp_path):
        """Two threads map through one runner and one store at once.

        Both see cache hits: the runner nested in
        :func:`run_topology_evaluation` finds the mapping batch in the
        store it was handed, and each thread's repeat finds its own
        evaluation entry.
        """
        store = Store(tmp_path)
        runner = ParallelRunner(max_workers=1, store=store)
        evaluate = functools.partial(run_topology_evaluation, store=store)

        def job(seed):
            return EvaluationJob(
                placement=PlacementJob(topology="grid-25",
                                       strategies=("qplacer",),
                                       config=FAST, seed=seed),
                benchmarks=("bv-4",), num_mappings=2)

        # The mapping batch depends on the circuit and the topology, not
        # on the placement seed, so this run warms it for both threads.
        runner.map(evaluate, [job(0)], namespace="evaluation")
        assert store.count("misses", "mappings") == 1
        barrier = threading.Barrier(2)
        results = {}
        errors = []

        def use(seed):
            try:
                barrier.wait()
                results[seed] = [
                    runner.map(evaluate, [job(seed)],
                               namespace="evaluation")[0]
                    for _ in range(2)]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=use, args=(seed,))
                   for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert store.count("hits", "mappings") == 2
        assert store.count("misses", "mappings") == 1
        assert store.count("hits", "evaluation") == 2
        assert runner.cache_hits == 2 and runner.cache_misses == 3
        for first, again in results.values():
            assert first == again

    def test_interrupted_write_preserves_previous_entry(self, tmp_path):
        store = Store(tmp_path)
        path = store.entry("ns", "entry")
        atomic_write_bytes(path, b"old-complete-entry")

        class Explodes:
            def __reduce__(self):
                raise RuntimeError("mid-serialisation failure")

        runner = ParallelRunner(max_workers=1, store=store)
        runner._keep("ns", "entry", Explodes())  # swallowed, non-fatal
        assert path.read_bytes() == b"old-complete-entry"


class TestSchemaVersionInvalidation:
    def _bump(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "CACHE_SCHEMA_VERSION",
                            runner_mod.CACHE_SCHEMA_VERSION + 1)

    def test_placement_cache_misses_after_bump(self, tmp_path, monkeypatch):
        job = PlacementJob(topology="grid-25", strategies=("qplacer",),
                           config=FAST)
        first = ParallelRunner(max_workers=1, store=Store(tmp_path))
        before = first.run_suites([job])[0]
        assert first.cache_misses == 1

        self._bump(monkeypatch)
        after_runner = ParallelRunner(max_workers=1, store=Store(tmp_path))
        after = after_runner.run_suites([job])[0]
        # clean miss and recompute: no crash, no stale read
        assert after_runner.cache_hits == 0
        assert after_runner.cache_misses == 1
        assert (after.layouts["qplacer"].positions
                == before.layouts["qplacer"].positions).all()

    def test_mapping_cache_misses_after_bump(self, tmp_path, monkeypatch):
        job = MappingJob(benchmark="bv-4", topology="grid-25",
                         num_mappings=2)
        first = ParallelRunner(max_workers=1, store=Store(tmp_path))
        first.map(run_mapping_job, [job], namespace="mappings")
        assert first.cache_misses == 1

        self._bump(monkeypatch)
        again = ParallelRunner(max_workers=1, store=Store(tmp_path))
        again.map(run_mapping_job, [job], namespace="mappings")
        assert again.cache_hits == 0 and again.cache_misses == 1
        # both versions' entries now coexist under distinct tokens
        assert len(list(tmp_path.rglob("*.pkl"))) == 2

    def test_token_depends_on_live_version(self, monkeypatch):
        job = PlacementJob(topology="grid-25")
        before = job_token(job)
        self._bump(monkeypatch)
        assert job_token(job) != before


class TestCorruptEntryRecovery:
    def test_truncated_pickle_recomputes_and_deletes(self, tmp_path):
        """A truncated entry is a clean miss AND gets evicted from disk."""
        job = PlacementJob(topology="grid-25", strategies=("qplacer",),
                           config=FAST)
        first = ParallelRunner(max_workers=1, store=Store(tmp_path))
        good = first.run_suites([job])[0]
        entry = next(tmp_path.rglob("*.pkl"))
        data = entry.read_bytes()
        entry.write_bytes(data[:len(data) // 2])  # a torn write survived

        again = ParallelRunner(max_workers=1, store=Store(tmp_path))
        suite = again.run_suites([job])[0]
        assert again.cache_hits == 0 and again.cache_misses == 1
        assert (suite.layouts["qplacer"].positions
                == good.layouts["qplacer"].positions).all()
        # the recompute replaced the corrupt file with a loadable entry
        third = ParallelRunner(max_workers=1, store=Store(tmp_path))
        third.run_suites([job])
        assert third.cache_hits == 1 and third.cache_misses == 0

    def test_cache_load_unlinks_corrupt_file(self, tmp_path):
        store = Store(tmp_path)
        path = store.entry("ns", "deadbeef")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x80\x04not really a pickle")
        assert store.load("ns", "deadbeef") == (False, None)
        assert not path.exists()

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        store = Store(tmp_path)
        assert store.load("ns", "absent") == (False, None)
