"""Fully-columnar circuit gates: suite compile, zero decode, digest cache.

ISSUE 9's acceptance harness.  The circuit representation became
columnar end to end — ``map_circuit`` materialises no ``Gate`` objects,
``evaluation_mappings`` routes every seed and transpiles the suite in
cache-sized chunks of stacked seeds (``map_suite_arrays``; a chunk
grows while its basis rows stay within ``SUITE_CHUNK_ROWS``), and
compile results are content-addressed by circuit digest.  Three gates:

* **suite bit-identity + >=2x** — the suite-batched
  ``evaluation_mappings`` must reproduce the per-seed ``map_circuit``
  loop (with its pre-PR forced decode) gate for gate, mapping for
  mapping, and beat it by :data:`MIN_SUITE_SPEEDUP` on every gated
  >=100-qubit (eagle-tier) suite;
* **zero eager decode** — compiling a suite under a ``to_circuit``
  tripwire must never decode; explicit ``physical_circuit`` access
  decodes once and memoizes;
* **circuit-digest cache, live** — two differently-named submissions
  of the same workload content to a real HTTP
  :class:`~repro.service.api.PlacementService` share one request
  digest, so they run as **one** computation: the second is answered
  from the artifact store (``cache_hit``) with the identical artifact.
  The runner's circuit-digest cache is proven on a path that cannot
  coalesce: a second service with a fresh artifact store but the same
  runner cache directory computes the aliased request, and its
  ``MappingJob`` replays the first service's compile
  (``circuit_cache_hits`` in ``/metrics``).

Machine-readable JSON goes to ``benchmarks/results/perf_columnar.json``.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.circuits.batch import ArrayCircuit
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import (MappedCircuit, evaluation_mappings,
                                    map_circuit)
from repro.devices.topology import get_topology
from repro.io.serialization import circuit_content_digest
from repro.service import PlacementService, ServiceClient
from repro.workloads import get_workload

from conftest import FULL, emit

#: Required suite-batched speedup on gated >=100-qubit suites.
MIN_SUITE_SPEEDUP = 2.0

#: Suite cases: (workload, topology, num_mappings, gated).  Gated rows
#: enforce the >=2x floor on eagle-tier (>=100q) devices and are chosen
#: with ~30-50% headroom (measured 2.6-3.1x); ungated rows record the
#: trajectory where routing (per-seed in both paths) dominates.
SUITE_CASES: Tuple[Tuple[str, str, int, bool], ...] = (
    ("bv-16", "eagle-127", 50, True),
    ("qgan-16", "eagle-127", 50, True),
    ("ghz-64", "eagle-127", 25, False),
    ("qaoa-120", "eagle-127", 8, False),
) + ((("bv-256", "condor-sm-433", 8, False),) if FULL else ())

#: The live-service digest-cache pair: two names, one circuit content
#: (``qaoa-9`` is the registry's spelling of ``qaoa-9-d1-s0``).
ALIAS_BENCHMARKS = ("qaoa-9", "qaoa-9-d1-s0")
ALIAS_TOPOLOGY = "grid-25"
ALIAS_MAPPINGS = 6


def _time(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _per_seed_reference(circuit, topology,
                        num_mappings: int) -> List[MappedCircuit]:
    """The pre-PR evaluation loop: one ``map_circuit`` per seed plus the
    eager decode the old pipeline performed on every mapping."""
    out = []
    for k in range(num_mappings):
        mapped = map_circuit(circuit, topology, seed=k)
        mapped.physical_circuit  # the old eager Gate materialisation
        out.append(mapped)
    return out


def _mapped_identical(a: MappedCircuit, b: MappedCircuit) -> bool:
    """Bit-identity over everything downstream consumers read."""
    pa, pb = a.physical_arrays, b.physical_arrays
    return (np.array_equal(pa.codes, pb.codes)
            and np.array_equal(pa.q0, pb.q0)
            and np.array_equal(pa.q1, pb.q1)
            and pa.params.tobytes() == pb.params.tobytes()
            and a.initial_mapping == b.initial_mapping
            and a.final_mapping == b.final_mapping
            and a.swap_count == b.swap_count
            and a.schedule == b.schedule)


def _suite_gate(repeats: int) -> List[Dict[str, object]]:
    """Suite-batched vs per-seed loop: identity + speedup rows."""
    rows = []
    for workload, topo_name, num_mappings, gated in SUITE_CASES:
        circuit = get_workload(workload)
        topology = get_topology(topo_name)
        topology.hop_distance_matrix()  # warm the shared caches
        topology.shortest_path_next_hop()
        ref_s, ref = _time(
            lambda: _per_seed_reference(circuit, topology, num_mappings),
            repeats)
        vec_s, vec = _time(
            lambda: evaluation_mappings(circuit, topology,
                                        num_mappings=num_mappings), repeats)
        rows.append({
            "workload": workload,
            "topology": topo_name,
            "device_qubits": topology.num_qubits,
            "num_mappings": num_mappings,
            "gated": gated,
            "swaps": sum(m.swap_count for m in vec),
            "identical": all(_mapped_identical(a, b)
                             for a, b in zip(ref, vec)),
            "per_seed_s": round(ref_s, 4),
            "suite_batched_s": round(vec_s, 4),
            "speedup": round(ref_s / vec_s, 2),
        })
    return rows


def _zero_decode_gate() -> Dict[str, object]:
    """Compile under a to_circuit tripwire; decode only on access."""
    circuit = get_benchmark("bv-16")
    topology = get_topology("eagle-127")
    original = ArrayCircuit.to_circuit
    decodes = {"count": 0}

    def counting(self):
        decodes["count"] += 1
        return original(self)

    ArrayCircuit.to_circuit = counting
    try:
        suite = evaluation_mappings(circuit, topology, num_mappings=10)
        compile_decodes = decodes["count"]
        first = suite[0].physical_circuit
        memoized = suite[0].physical_circuit is first
        access_decodes = decodes["count"] - compile_decodes
    finally:
        ArrayCircuit.to_circuit = original
    return {
        "mappings_compiled": len(suite),
        "decodes_during_compile": compile_decodes,
        "decodes_on_first_access": access_decodes,
        "memoized": memoized,
    }


def _digest_cache_gate(tmp_path) -> Dict[str, object]:
    """Live service round trips: aliased submissions compile once."""
    digests = [circuit_content_digest(get_workload(name))
               for name in ALIAS_BENCHMARKS]
    first, alias = ALIAS_BENCHMARKS

    def request(name: str) -> Dict[str, object]:
        return {"benchmark": name, "topology": ALIAS_TOPOLOGY,
                "num_mappings": ALIAS_MAPPINGS}

    def service(store: str) -> PlacementService:
        return PlacementService(store_dir=tmp_path / store, port=0,
                                workers=2, runner_workers=1,
                                cache_dir=tmp_path / "cache")

    with service("store") as live:
        client = ServiceClient(live.base_url, timeout=60.0)
        payload = client.run("map", request(first), timeout=600)
        job = client.submit("map", request(alias))
        alias_payload = client.result(job["job_id"], timeout=600)
        metrics = client.metrics()
    # Fresh store, shared runner cache: the aliased request cannot be
    # answered by the queue or the store, so it computes, and only the
    # circuit-digest key lets its MappingJob skip the compile.
    with service("store-fresh") as fresh:
        client = ServiceClient(fresh.base_url, timeout=60.0)
        replay = client.run("map", request(alias), timeout=600)
        fresh_metrics = client.metrics()
    return {
        "benchmarks": list(ALIAS_BENCHMARKS),
        "digests_match": len(set(digests)) == 1,
        "alias_disposition": job["disposition"],
        "computations": metrics["computations"],
        "identical_artifact": alias_payload == payload,
        "fresh_store_computations": fresh_metrics["computations"],
        # /metrics reports process-wide counters; the fresh service's
        # share is the difference.
        "circuit_cache_hits": (fresh_metrics["circuit_cache_hits"]
                               - metrics["circuit_cache_hits"]),
        "circuit_cache_misses": (fresh_metrics["circuit_cache_misses"]
                                 - metrics["circuit_cache_misses"]),
        "identical_replay": replay["mappings"] == payload["mappings"],
    }


def test_perf_columnar(results_dir, tmp_path):
    repeats = 4 if FULL else 3
    report: Dict[str, object] = {
        "bench": "perf_columnar",
        "mode": "full" if FULL else "smoke",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "min_suite_speedup": MIN_SUITE_SPEEDUP,
        "suite": _suite_gate(repeats),
        "zero_decode": _zero_decode_gate(),
        "digest_cache": _digest_cache_gate(tmp_path),
    }

    text = json.dumps(report, indent=2)
    emit(results_dir, "perf_columnar", text)
    (results_dir / "perf_columnar.json").write_text(text + "\n")

    # -- gates ----------------------------------------------------------
    for row in report["suite"]:
        assert row["identical"], \
            f"{row['workload']}: suite-batched compile diverged from per-seed"
        if row["gated"]:
            assert row["device_qubits"] >= 100
            assert row["speedup"] >= MIN_SUITE_SPEEDUP, \
                (f"{row['workload']}@{row['topology']}: suite speedup "
                 f"{row['speedup']}x < {MIN_SUITE_SPEEDUP}x")

    decode = report["zero_decode"]
    assert decode["decodes_during_compile"] == 0, \
        (f"suite compile decoded {decode['decodes_during_compile']} "
         f"circuits (want 0)")
    assert decode["decodes_on_first_access"] == 1
    assert decode["memoized"]

    cache = report["digest_cache"]
    assert cache["digests_match"], \
        "alias benchmarks no longer share a content digest"
    assert cache["alias_disposition"] == "cache_hit", \
        (f"second aliased submission was {cache['alias_disposition']!r} "
         f"(want an artifact-store cache_hit)")
    assert cache["computations"] == 1, \
        (f"aliased requests ran {cache['computations']} computations "
         f"(want 1)")
    assert cache["identical_artifact"], \
        "aliased submission answered with a different artifact"
    assert cache["fresh_store_computations"] == 1
    assert cache["circuit_cache_hits"] >= 1, \
        (f"fresh-store compile missed the circuit-digest cache "
         f"(hits={cache['circuit_cache_hits']})")
    assert cache["circuit_cache_misses"] == 0
    assert cache["identical_replay"], \
        "circuit-cache replay produced different mapping summaries"
