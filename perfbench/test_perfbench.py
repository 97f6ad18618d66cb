"""Self-tests of the benchmark: helpers, checks, tracing, tiny runs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.checks import count_overlaps, off_coupling_gates
from perfbench.hostspeed import REFERENCE_S, RUNS_PER_MARK, HostClock
from perfbench.stats import ratio
from perfbench.tracing import (LAYERS, Hook, Tracer, covered_share,
                               layer_metrics, per_layer_specs)
from perfbench.workloads import WORKLOADS, PlaceWorkload

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The layers the benchmark must trace, in the order they are listed.
EXPECTED_LAYERS = (
    "core.preprocess", "core.engine", "core.optimizer", "core.wirelength",
    "core.density", "core.frequency_force", "core.interactions",
    "core.legalizer", "core.detailed", "circuits.mapping",
    "circuits.subsets", "circuits.route", "circuits.transpile",
    "circuits.schedule", "crosstalk.fidelity", "crosstalk.hotspots",
    "ensembles.sampling", "ensembles.evaluation", "ensembles.repair",
    "analysis.runner", "service.scheduler", "service.store",
    "service.queue", "service.http",
)


def _bench(args):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=170, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


# -- helpers ----------------------------------------------------------------

def test_ratio():
    assert ratio(3, 4) == 0.75
    assert ratio(5, 0) == 0.0


# -- checks -----------------------------------------------------------------

def _brute_overlaps(centers, sizes):
    n, count = len(centers), 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = abs(centers[i, 0] - centers[j, 0]) \
                - 0.5 * (sizes[i, 0] + sizes[j, 0])
            dy = abs(centers[i, 1] - centers[j, 1]) \
                - 0.5 * (sizes[i, 1] + sizes[j, 1])
            count += dx < -1e-9 and dy < -1e-9
    return count


def test_count_overlaps_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        centers = rng.uniform(0, 5, size=(n, 2))
        sizes = rng.uniform(0.1, 1.0, size=(n, 2))
        assert count_overlaps(centers, sizes) == \
            _brute_overlaps(centers, sizes)


def test_touching_footprints_do_not_overlap():
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert count_overlaps(centers, np.ones((3, 2))) == 0


def test_off_coupling_gates():
    q0 = np.array([0, 1, 0, 2])
    q1 = np.array([1, 2, -1, 0])
    assert off_coupling_gates(q0, q1, [(0, 1), (1, 2)], 3) == 1


def test_overlapping_layout_raises_fail_ratio():
    workload = PlaceWorkload(seed=0, seconds=1, tiny=True)
    workload.setup()
    good = {s: op() for s, op in workload.op_list()}

    def overlapped(result):
        pos = result.layout.positions.copy()
        pos[1] = pos[0]
        return replace(result, layout=replace(result.layout, positions=pos))

    class Doctored(PlaceWorkload):
        def op_list(self):
            return [(label, lambda r=r: overlapped(r))
                    for label, r in good.items()]

    doctored = Doctored(seed=0, seconds=1, tiny=True)
    doctored.setup()
    runs = run.measure(doctored, HostClock())
    failed = sum(1 for r in runs if r.problems)
    assert ratio(failed, len(runs)) == 1.0
    assert any("overlapping" in p for r in runs for p in r.problems)
    assert all(not r.problems for r in run.measure(workload, HostClock()))


def test_host_clock_scales_by_the_mean_kernel_time():
    clock = HostClock()
    clock.mark()
    assert len(clock.samples) == RUNS_PER_MARK and clock.scale() > 0
    clock.samples = [1.0, 1.0, 4.0]
    assert clock.scale() == pytest.approx(REFERENCE_S / 2.0)


# -- tracing ----------------------------------------------------------------

def test_hook_table_names_every_layer():
    assert LAYERS == EXPECTED_LAYERS


def test_missing_hook_is_reported_not_raised():
    tracer = Tracer()
    tracer.install([Hook("core.engine", "repro.core.engine", "NoSuchThing"),
                    Hook("core.engine", "repro.no_such_module", "f")])
    assert len(tracer.unavailable) == 2
    assert layer_metrics(tracer)["trace.hooks_missing"] == 2


def test_self_time_excludes_children():
    module = types.ModuleType("perfbench_fake_layers")

    def inner():
        return sum(range(20000))

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.install([Hook("core.engine", module.__name__, "outer"),
                        Hook("core.optimizer", module.__name__, "inner")])
        tracer.enabled = True
        module.outer()
        tracer.uninstall()
    finally:
        del sys.modules[module.__name__]
    assert module.outer is outer
    spans = {s[0]: s for s in tracer.spans if s[0] == "core.engine"}
    (_, start, end, self_s, top) = spans["core.engine"]
    children = sum(s[2] - s[1] for s in tracer.spans
                   if s[0] == "core.optimizer")
    assert top and self_s == pytest.approx(end - start - children)
    metrics = layer_metrics(tracer)
    assert metrics["core.optimizer.calls"] == 2


def test_covered_share_merges_overlapping_spans():
    assert covered_share([(0, 10)], [(1, 3), (2, 4), (8, 12)]) == \
        pytest.approx(0.5)
    assert covered_share([(0, 1), (5, 6)], []) == 0.0


# -- metric tables against BENCHMARK.json -----------------------------------

def test_end_to_end_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["end_to_end"]] == list(run.END_TO_END)


def test_per_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["per_layer"]] == per_layer_specs()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


# -- tiny end-to-end runs ---------------------------------------------------

@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run(workload):
    result = _bench(["--workload", workload, "--seed", "3", "--seconds",
                     "1", "--trace", "0", "--tiny"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload,active", [
    ("place", "core.engine.calls"),
    ("ensemble", "service.scheduler.calls"),
])
def test_tiny_traced_run(workload, active):
    result = _bench(["--workload", workload, "--seed", "3", "--seconds",
                     "1", "--trace", "1", "--tiny"])
    assert result["correct"]
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert metrics[active]["value"] > 0
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
