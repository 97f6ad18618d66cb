"""On-disk caching of evaluation-mapping batches (MappingJob)."""

import pytest

from repro.analysis.experiments import build_suite, fidelity_experiment
from repro.analysis.runner import (
    MappingJob,
    ParallelRunner,
    job_token,
    run_mapping_job,
    run_mapping_job_sharded,
    split_mapping_job,
)
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import evaluation_mappings
from repro.devices.topology import get_topology
from repro.io.store import Store


def _mapped_equal(a, b):
    return (a.physical_arrays.to_circuit().gates
            == b.physical_arrays.to_circuit().gates
            and a.initial_mapping == b.initial_mapping
            and a.final_mapping == b.final_mapping
            and a.swap_count == b.swap_count
            and a.schedule == b.schedule)


class TestMappingJob:
    def test_worker_matches_direct_computation(self):
        job = MappingJob(benchmark="bv-4", topology="grid-25",
                         num_mappings=3, base_seed=5)
        via_job = run_mapping_job(job)
        direct = evaluation_mappings(get_benchmark("bv-4"),
                                     get_topology("grid-25"),
                                     num_mappings=3, base_seed=5)
        assert len(via_job) == len(direct) == 3
        for a, b in zip(via_job, direct):
            assert a.initial_mapping == b.initial_mapping
            assert a.final_mapping == b.final_mapping
            assert a.swap_count == b.swap_count
            assert a.duration_ns == b.duration_ns

    def test_token_covers_transpiler_config(self):
        base = MappingJob(benchmark="bv-4", topology="grid-25",
                          num_mappings=3)
        assert job_token(base) != job_token(
            MappingJob(benchmark="bv-4", topology="grid-25",
                       num_mappings=3, router="sabre"))
        assert job_token(base) != job_token(
            MappingJob(benchmark="bv-4", topology="grid-25",
                       num_mappings=3, optimization_level=1))
        assert job_token(base) != job_token(
            MappingJob(benchmark="bv-4", topology="falcon-27",
                       num_mappings=3))
        assert job_token(base) != job_token(
            MappingJob(benchmark="bv-4", topology="grid-25",
                       num_mappings=3, base_seed=1))

    def test_cache_skips_recomputation(self, tmp_path):
        job = MappingJob(benchmark="bv-4", topology="grid-25",
                         num_mappings=2)
        runner = ParallelRunner(max_workers=1, store=Store(tmp_path))
        first = runner.map(run_mapping_job, [job], namespace="mappings")[0]
        assert runner.cache_misses == 1
        second = runner.map(run_mapping_job, [job], namespace="mappings")[0]
        assert runner.cache_hits == 1
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.final_mapping == b.final_mapping
            assert a.swap_count == b.swap_count


class TestSeedRangeSharding:
    """MappingJob seed-range chunks compose into the whole batch."""

    JOB = MappingJob(benchmark="bv-4", topology="grid-25",
                     num_mappings=7, base_seed=3)

    def test_split_covers_seed_range_exactly(self):
        chunks = split_mapping_job(self.JOB, chunk_size=3)
        assert [(c.base_seed, c.num_mappings) for c in chunks] == \
            [(3, 3), (6, 3), (9, 1)]
        # every non-seed field is inherited
        assert all(c.benchmark == "bv-4" and c.topology == "grid-25"
                   and c.router == "basic" for c in chunks)

    def test_split_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            split_mapping_job(self.JOB, chunk_size=0)

    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 50])
    def test_chunked_identical_to_whole_batch(self, chunk_size):
        whole = run_mapping_job(self.JOB)
        chunked = run_mapping_job_sharded(
            self.JOB, ParallelRunner(max_workers=1), chunk_size=chunk_size)
        assert len(chunked) == len(whole) == 7
        for a, b in zip(whole, chunked):
            assert _mapped_equal(a, b)

    def test_auto_chunking_splits_across_workers(self):
        runner = ParallelRunner(max_workers=2)
        chunked = run_mapping_job_sharded(self.JOB, runner)
        whole = run_mapping_job(self.JOB)
        for a, b in zip(whole, chunked):
            assert _mapped_equal(a, b)

    def test_chunks_replay_from_cache_and_compose(self, tmp_path):
        """Partial batches cache independently and re-assemble."""
        runner = ParallelRunner(max_workers=1, store=Store(tmp_path))
        first = run_mapping_job_sharded(self.JOB, runner, chunk_size=3)
        assert runner.cache_misses == 3  # one per chunk
        replay = run_mapping_job_sharded(self.JOB, runner, chunk_size=3)
        assert runner.cache_hits == 3
        for a, b in zip(first, replay):
            assert _mapped_equal(a, b)
        # a later *larger* request reuses nothing but still matches
        bigger = run_mapping_job_sharded(
            MappingJob(benchmark="bv-4", topology="grid-25",
                       num_mappings=9, base_seed=3),
            runner, chunk_size=3)
        for a, b in zip(first, bigger):
            assert _mapped_equal(a, b)

    def test_chunk_token_matches_equivalent_whole_job(self):
        """A chunk IS a MappingJob: same token as the same-range batch."""
        chunk = split_mapping_job(self.JOB, chunk_size=3)[1]
        equivalent = MappingJob(benchmark="bv-4", topology="grid-25",
                                num_mappings=3, base_seed=6)
        assert job_token(chunk) == job_token(equivalent)


class TestFidelityExperimentCache:
    @pytest.fixture(scope="class")
    def suite(self):
        return build_suite("grid-25")

    def test_cached_run_matches_uncached(self, suite, tmp_path):
        benchmarks = ("bv-4", "ising-4")
        plain = fidelity_experiment(suite, benchmarks, num_mappings=3)
        runner = ParallelRunner(max_workers=1, store=Store(tmp_path))
        cached = fidelity_experiment(suite, benchmarks, num_mappings=3,
                                     runner=runner)
        assert runner.cache_misses == len(benchmarks)
        assert plain.keys() == cached.keys()
        for bench in plain:
            for strategy in plain[bench]:
                assert plain[bench][strategy] == cached[bench][strategy]

    def test_second_run_hits_cache(self, suite, tmp_path):
        benchmarks = ("bv-4",)
        runner = ParallelRunner(max_workers=1, store=Store(tmp_path))
        first = fidelity_experiment(suite, benchmarks, num_mappings=3,
                                    runner=runner)
        second = fidelity_experiment(suite, benchmarks, num_mappings=3,
                                     runner=runner)
        assert runner.cache_hits == 1
        assert first == second

    def test_wide_benchmarks_still_skipped(self, suite, tmp_path):
        runner = ParallelRunner(max_workers=1, store=Store(tmp_path))
        table = fidelity_experiment(suite, ("bv-4", "qgan-9"),
                                    num_mappings=2, runner=runner)
        # qgan-9 fits grid-25; both rows present, none crash.
        assert set(table) <= {"bv-4", "qgan-9"}
