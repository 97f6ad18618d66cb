"""Golden compile digests for the suite-batched compile pipeline.

``map_suite_arrays`` is checked elsewhere against the per-seed
``map_circuit`` loop, but both paths call the same transpile kernels,
so a kernel change that alters both at once would pass that gate.
These goldens pin the compiled output itself: for every mapping, the
content digest of ``physical_arrays`` (codes, qubits and exact param
bits), the schedule length, the swap count and a digest of the final
mapping.

The cases cover the kernels' branches: ``clifford-64-d12`` is the
eagle-127 circuit whose cancellation pass removes gates, ``qv-32-d8``
has the most rz group sums outside [-pi, pi], and the two paper-8
circuits are the small end of the Sec. VI-A protocol.

To re-record after a deliberate output change, run this module as a
script (``PYTHONPATH=src python tests/circuits/test_compile_golden.py``)
and paste the printed table.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.circuits.mapping import map_suite_arrays
from repro.devices.topology import get_topology
from repro.workloads.registry import SUITES, build_workload

TOPOLOGY = "eagle-127"
NUM_MAPPINGS = 8
BASE_SEED = 1
CASES = (("eagle-127", "clifford-64-d12"), ("eagle-127", "qv-32-d8"),
         ("paper-8", "qaoa-9"), ("paper-8", "qgan-9"))


def _mapping_digest(final_mapping) -> str:
    items = sorted((int(k), int(v)) for k, v in final_mapping.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def _compile(suite: str, name: str):
    spec = next(s for s in SUITES[suite] if s.name == name)
    maps = map_suite_arrays(build_workload(spec), get_topology(TOPOLOGY),
                            num_mappings=NUM_MAPPINGS, base_seed=BASE_SEED)
    return [(m.physical_arrays.freeze().content_digest[:16],
             m.schedule.total_ns, m.swap_count,
             _mapping_digest(m.final_mapping))
            for m in maps]


#: (content digest, schedule total_ns, swap_count, final-mapping digest)
#: per mapping, base seed 1, on eagle-127.
GOLDEN = {
    "clifford-64-d12": [
        ("369d876b19282818", 327295.0, 1155, "a78425f85fde5b0a"),
        ("2d6da238cc4e526b", 278350.0, 1113, "f8f23a2c53059b52"),
        ("5a5290b22ad0aa61", 268370.0, 1096, "32255e43c24ecd33"),
        ("67c51baf38f6adc0", 339885.0, 1072, "5580d1b282bb23f3"),
        ("c7f489206ba7e0ea", 368220.0, 1191, "97e1d3fd638f61f4"),
        ("bd9ad33c05694b1c", 349405.0, 1154, "65d1d032868cd5b8"),
        ("b9451c3acb64e1d5", 307460.0, 1028, "7d932c4198c40f96"),
        ("8283219bab67ca3f", 303510.0, 1110, "703dfb38ff1b496d"),
    ],
    "qv-32-d8": [
        ("487ef3ce1f35f5dc", 213730.0, 637, "c6c46be7ea91c5bb"),
        ("9098c434a42991ec", 240865.0, 616, "e59dfcf938efbdc1"),
        ("6d9d2f32a7d1fcf3", 204085.0, 568, "cdbf06f95ca3beb5"),
        ("870896bf0c574a23", 223655.0, 595, "5365f08fc081d868"),
        ("ba568cbd26308d74", 224875.0, 620, "9b35580b850b4cd0"),
        ("172546c9d2bdb6ab", 245240.0, 685, "a3903b8fcd468485"),
        ("c65459818a6952aa", 249715.0, 637, "aa35616733124c4d"),
        ("206a811eaabe85a9", 240160.0, 614, "b95de1f5639ddb97"),
    ],
    "qaoa-9": [
        ("cdf3fd232d28d6e8", 31875.0, 27, "d1511ab9157d9d38"),
        ("bf866499c9a83432", 24170.0, 23, "4440c861b455eee9"),
        ("aa7e75369e95b85b", 32810.0, 35, "78deaaaf8feb44c6"),
        ("4167b6ac9f17e2a0", 24470.0, 22, "2043a755557c65fa"),
        ("d84e5e335c5e42dd", 29460.0, 30, "879369819d1ebded"),
        ("aca0e6690b2aa92a", 31875.0, 31, "f107637703bcecef"),
        ("a0d67fab9ddb6257", 25545.0, 17, "14f3f342785d5f30"),
        ("09b21dc0256c8cf7", 28490.0, 29, "7725570a264b6604"),
    ],
    "qgan-9": [
        ("d1105020520b2972", 16290.0, 13, "d268c2d763cade84"),
        ("e4b23be1bfa1110f", 15320.0, 14, "c315adc9b3caa437"),
        ("3a62d488bfac3234", 15620.0, 11, "cf75c535df1c0408"),
        ("92d0a2d5868ea377", 18300.0, 13, "e78e16b2d8aeb3ec"),
        ("9603c18e67f65fac", 16960.0, 12, "989a64683b3bbf1d"),
        ("f7356f8cf4f56a3e", 16960.0, 12, "49021af9099a7a99"),
        ("51eb43c4b3e6d66e", 15620.0, 11, "1d07ba6b242aaa2b"),
        ("3f3e8893ee9475a0", 14280.0, 13, "bfe8f63bb87e5455"),
    ],
}


@pytest.mark.parametrize("suite,name", CASES)
def test_compile_matches_golden(suite, name):
    assert _compile(suite, name) == GOLDEN[name]


if __name__ == "__main__":
    for suite, name in CASES:
        print(f"    {name!r}: [")
        for row in _compile(suite, name):
            print(f"        {row!r},")
        print("    ],")
