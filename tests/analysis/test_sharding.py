"""Sharded workload evaluation: contract, merging, bit-identity."""

import pytest

from repro.analysis.experiments import (build_suite, fidelity_experiment,
                                        sharded_fidelity_experiment)
from repro.analysis.runner import (ParallelRunner, PlacementJob,
                                   WorkloadShardJob, run_workload_shard)
from repro.io.store import Store
from repro.workloads import merge_fidelity_shards, shard_items

WORKLOADS = ("bv-9", "ghz-9", "qaoa-9", "clifford-9-d4-s1")


class TestShardItems:
    def test_round_robin_partition(self):
        items = tuple("abcdefg")
        shards = [shard_items(items, k, 3) for k in range(3)]
        assert shards[0] == ("a", "d", "g")
        assert shards[1] == ("b", "e")
        assert shards[2] == ("c", "f")
        # Disjoint and complete.
        merged = [x for shard in shards for x in shard]
        assert sorted(merged) == sorted(items)

    def test_single_shard_is_identity(self):
        assert shard_items((1, 2, 3), 0, 1) == (1, 2, 3)

    def test_more_shards_than_items(self):
        assert shard_items(("a",), 1, 3) == ()

    @pytest.mark.parametrize("index,count", [(-1, 2), (2, 2), (0, 0)])
    def test_invalid_bounds(self, index, count):
        with pytest.raises(ValueError):
            shard_items(("a", "b"), index, count)


class TestMergeFidelityShards:
    def test_merges_in_declared_order(self):
        p0 = {"a": {"s": 1.0}, "c": {"s": 3.0}}
        p1 = {"b": {"s": 2.0}}
        merged = merge_fidelity_shards([p1, p0], order=("a", "b", "c"))
        assert list(merged) == ["a", "b", "c"]

    def test_duplicate_benchmark_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            merge_fidelity_shards([{"a": {}}, {"a": {}}])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            merge_fidelity_shards([{"zz": {}}], order=("a",))

    def test_skipped_benchmarks_stay_absent(self):
        merged = merge_fidelity_shards([{"a": {"s": 1.0}}],
                                       order=("a", "wide-9999"))
        assert list(merged) == ["a"]


@pytest.fixture(scope="module")
def grid_suite():
    return build_suite("grid-25", strategies=("qplacer",))


@pytest.fixture(scope="module")
def single_run(grid_suite):
    return fidelity_experiment(grid_suite, benchmarks=WORKLOADS,
                               num_mappings=3)


class TestShardIdentity:
    def test_fidelity_experiment_shard_slicing(self, grid_suite, single_run):
        partials = [
            fidelity_experiment(grid_suite, benchmarks=WORKLOADS,
                                num_mappings=3, shard_index=k, shard_count=2)
            for k in range(2)
        ]
        merged = merge_fidelity_shards(partials, order=WORKLOADS)
        assert merged == single_run
        assert list(merged) == list(single_run)

    def test_shard_args_must_come_together(self, grid_suite):
        with pytest.raises(ValueError, match="together"):
            fidelity_experiment(grid_suite, benchmarks=WORKLOADS,
                                shard_index=0)

    def test_sharded_experiment_in_process(self, single_run):
        merged = sharded_fidelity_experiment(
            "grid-25", workloads=WORKLOADS, shard_count=2,
            num_mappings=3, strategies=("qplacer",),
            runner=ParallelRunner(max_workers=1))
        assert merged == single_run

    def test_sharded_experiment_process_pool(self, single_run):
        merged = sharded_fidelity_experiment(
            "grid-25", workloads=WORKLOADS, shard_count=3,
            num_mappings=3, strategies=("qplacer",),
            runner=ParallelRunner(max_workers=2))
        assert merged == single_run

    def test_suite_name_resolution(self, grid_suite):
        # paper-8 via suite name == explicit benchmark list.
        expected = fidelity_experiment(grid_suite, num_mappings=2)
        merged = sharded_fidelity_experiment(
            "grid-25", workloads="paper-8", shard_count=2,
            num_mappings=2, strategies=("qplacer",),
            runner=ParallelRunner(max_workers=1))
        assert merged == expected

    def test_cached_rerun_is_identical(self, single_run, tmp_path):
        runner = ParallelRunner(max_workers=1, store=Store(tmp_path))
        first = sharded_fidelity_experiment(
            "grid-25", workloads=WORKLOADS, shard_count=2,
            num_mappings=3, strategies=("qplacer",), runner=runner)
        warm = ParallelRunner(max_workers=1, store=Store(tmp_path))
        second = sharded_fidelity_experiment(
            "grid-25", workloads=WORKLOADS, shard_count=2,
            num_mappings=3, strategies=("qplacer",), runner=warm)
        assert first == second == single_run
        assert warm.cache_hits > 0 and warm.cache_misses == 0


class TestWorkloadShardJob:
    def test_worker_scores_only_its_slice(self, single_run):
        job = WorkloadShardJob(
            placement=PlacementJob(topology="grid-25",
                                   strategies=("qplacer",)),
            workloads=WORKLOADS, shard_index=1, shard_count=2,
            num_mappings=3)
        partial = run_workload_shard(job)
        assert tuple(partial) == WORKLOADS[1::2]
        for name, row in partial.items():
            assert row == single_run[name]

    def test_too_wide_workloads_are_skipped(self):
        job = WorkloadShardJob(
            placement=PlacementJob(topology="grid-25",
                                   strategies=("qplacer",)),
            workloads=("bv-9", "ghz-64"), shard_index=0, shard_count=1,
            num_mappings=2)
        partial = run_workload_shard(job)
        assert "ghz-64" not in partial and "bv-9" in partial
