"""Every compiled mapping is a legal placement of the circuit.

Over the eagle-127 and paper-8 suites compiled onto eagle-127 at 8
mappings (the Sec. VI-A protocol at reduced count), with every router
of :data:`~repro.circuits.mapping.ROUTER_CHOICES`:

* the initial mapping sends distinct logical qubits to distinct
  physical qubits of the seed's sampled subset;
* the final mapping is injective too, into the device: both routers
  swap over the whole chip, so SWAPs may carry a logical qubit off the
  subset (the basic router does for qft-32 on all 8 seeds here);
* every two-qubit gate of ``physical_arrays`` acts on a coupler of
  ``Topology.coupling_map``, checked as packed ``lo * n + hi`` keys.
"""

import numpy as np
import pytest

from repro.circuits.mapping import (ROUTER_CHOICES, evaluation_mappings,
                                    sample_connected_subset)
from repro.devices.topology import get_topology
from repro.workloads import SUITES, build_workload

MAPPINGS = 8
BASE_SEED = 1000
TOPOLOGY = "eagle-127"


@pytest.fixture(scope="module")
def topology():
    return get_topology(TOPOLOGY)


@pytest.fixture(scope="module")
def coupler_keys(topology):
    n = topology.num_qubits
    return np.array([lo * n + hi for lo, hi in topology.coupling_map],
                    dtype=np.int64)


SPECS = [spec for suite in ("eagle-127", "paper-8") for spec in SUITES[suite]]


@pytest.mark.parametrize("router", ROUTER_CHOICES)
@pytest.mark.parametrize("spec", SPECS, ids=[s.name for s in SPECS])
def test_mappings_are_legal(spec, router, topology, coupler_keys):
    circuit = build_workload(spec)
    maps = evaluation_mappings(circuit, topology, num_mappings=MAPPINGS,
                               base_seed=BASE_SEED, router=router)
    assert len(maps) == MAPPINGS
    n = topology.num_qubits
    logical = set(range(circuit.num_qubits))
    for k, mapped in enumerate(maps):
        subset = set(sample_connected_subset(topology, circuit.num_qubits,
                                             BASE_SEED + k))
        for placement, allowed in ((mapped.initial_mapping, subset),
                                   (mapped.final_mapping, set(range(n)))):
            assert set(placement) == logical
            physical = list(placement.values())
            assert len(set(physical)) == len(physical)
            assert set(physical) <= allowed
        arrays = mapped.physical_arrays
        two = arrays.q1 >= 0
        a, b = arrays.q0[two], arrays.q1[two]
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        assert np.isin(keys, coupler_keys).all()
