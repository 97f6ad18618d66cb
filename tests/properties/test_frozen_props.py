"""Property tests: circuit content digests.

``circuit_content_digest`` keys compiled artifacts in the runner cache
and the service store.  Four contracts:

* the digest is name-blind: differently named copies of one circuit
  share it (aliases of one workload share one compiled artifact);
* any content edit changes it — a gate code, a qubit, one ulp of a
  param, the wire count;
* a ``QuantumCircuit`` and its ``ArrayCircuit`` encoding share it, and
  a mapped circuit keeps it through a pickle round-trip;
* it is stable across processes (the fleet-wide cache-identity
  requirement).
"""

import os
import pickle
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.batch import ArrayCircuit
from repro.io.serialization import circuit_content_digest
from repro.workloads import WORKLOAD_FAMILIES, WorkloadSpec, build_workload

families = st.sampled_from(sorted(WORKLOAD_FAMILIES))
widths = st.integers(min_value=2, max_value=16)
depths = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2 ** 31)


@st.composite
def workload_specs(draw):
    family = draw(families)
    meta = WORKLOAD_FAMILIES[family]
    return WorkloadSpec(family=family, width=draw(widths),
                        depth=draw(depths) if meta.supports_depth else None,
                        seed=draw(seeds) if meta.randomized else 0)


def _copy(arrays, **changes):
    cols = dict(num_qubits=arrays.num_qubits, codes=arrays.codes.copy(),
                q0=arrays.q0.copy(), q1=arrays.q1.copy(),
                params=arrays.params.copy(), name=arrays.name)
    cols.update(changes)
    return ArrayCircuit(**cols)


class TestContentDigest:
    @given(workload_specs())
    @settings(max_examples=30, deadline=None)
    def test_name_blind(self, spec):
        arrays = ArrayCircuit.from_circuit(build_workload(spec))
        alias = _copy(arrays, name="renamed-alias")
        assert circuit_content_digest(alias) == \
            circuit_content_digest(arrays)

    @given(workload_specs())
    @settings(max_examples=20, deadline=None)
    def test_any_edit_changes_digest(self, spec):
        arrays = ArrayCircuit.from_circuit(build_workload(spec))
        digest = circuit_content_digest(arrays)
        wider = _copy(arrays, num_qubits=arrays.num_qubits + 1)
        assert circuit_content_digest(wider) != digest
        if not len(arrays.codes):
            return
        edited = _copy(arrays)
        edited.codes[0] = (edited.codes[0] + 1) % 4
        assert circuit_content_digest(edited) != digest
        moved = _copy(arrays)
        moved.q0[0] = (moved.q0[0] + 1) % arrays.num_qubits
        if moved.q0[0] == moved.q1[0]:
            moved.q0[0] = (moved.q0[0] + 1) % arrays.num_qubits
        assert circuit_content_digest(moved) != digest
        nudged = _copy(arrays)  # one ulp of one param
        nudged.params[0] = np.nextafter(nudged.params[0], np.inf)
        assert circuit_content_digest(nudged) != digest

    @given(workload_specs())
    @settings(max_examples=20, deadline=None)
    def test_circuit_matches_array_encoding(self, spec):
        circuit = build_workload(spec)
        assert circuit_content_digest(circuit) == \
            circuit_content_digest(ArrayCircuit.from_circuit(circuit))

    def test_mapped_pickle_round_trip_keeps_digest(self):
        from repro.circuits.library import get_benchmark
        from repro.circuits.mapping import map_circuit
        from repro.devices.topology import get_topology

        mapped = map_circuit(get_benchmark("qaoa-9"),
                             get_topology("grid-25"), seed=4)
        back = pickle.loads(pickle.dumps(mapped))
        assert circuit_content_digest(back.physical_arrays) == \
            circuit_content_digest(mapped.physical_arrays)

    def test_digest_stable_across_processes(self):
        spec = WorkloadSpec(family="qaoa", width=9, depth=2, seed=7)
        local = circuit_content_digest(build_workload(spec))
        script = (
            "from repro.workloads import WorkloadSpec, build_workload\n"
            "from repro.io.serialization import circuit_content_digest\n"
            "spec = WorkloadSpec(family='qaoa', width=9, depth=2, seed=7)\n"
            "print(circuit_content_digest(build_workload(spec)))\n")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == local
