"""Deterministic workload sharding and shard-result merging.

A *shard* is the ``index``-th of ``count`` round-robin slices of a
workload list.  The contract is position-based and deterministic —
``items[index::count]`` — so N machines given the same workload list
and ``--shard-index/--shard-count`` pair partition it exactly, with no
coordination beyond the two integers, and a single-process run over the
whole list is the concatenation of every shard's work.

Merging is strict: duplicate benchmarks across shards and results for
workloads outside the declared order are errors, not silent
overwrites — a merge over correct shards is bit-identical to the
single-process run (pinned by ``tests/analysis/test_sharding.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, TypeVar

Item = TypeVar("Item")

FidelityTable = Dict[str, Dict[str, float]]


def shard_items(items: Sequence[Item], shard_index: int,
                shard_count: int) -> Tuple[Item, ...]:
    """The round-robin slice of ``items`` owned by one shard.

    Round-robin (rather than contiguous blocks) balances width-sorted
    workload lists: consecutive heavy circuits land on different
    shards.

    Raises:
        ValueError: on a non-positive count or an index outside
            ``0..count-1``.
    """
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard index must be in 0..{shard_count - 1}, "
            f"got {shard_index}")
    return tuple(items[shard_index::shard_count])


def merge_fidelity_shards(partials: Sequence[FidelityTable],
                          order: Optional[Sequence[str]] = None
                          ) -> FidelityTable:
    """Merge per-shard fidelity tables into one.

    Args:
        partials: One ``{benchmark: {strategy: fidelity}}`` table per
            shard (any shard order).
        order: The full workload name list; the merged table follows
            it, exactly as a single-process run would.  Workloads the
            shards skipped (e.g. wider than the device) are absent from
            the result, mirroring the single-process behaviour.

    Raises:
        ValueError: when two shards report the same benchmark, or a
            shard reports a benchmark outside ``order``.
    """
    merged: FidelityTable = {}
    for partial in partials:
        for benchmark, row in partial.items():
            if benchmark in merged:
                raise ValueError(
                    f"benchmark {benchmark!r} reported by more than one "
                    f"shard; shards must be disjoint")
            merged[benchmark] = row
    if order is None:
        return merged
    extras = set(merged) - set(order)
    if extras:
        raise ValueError(
            f"shards reported benchmarks outside the declared workload "
            f"order: {sorted(extras)}")
    return {name: merged[name] for name in order if name in merged}
