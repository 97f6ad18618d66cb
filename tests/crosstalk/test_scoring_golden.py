"""Golden scoring digests: program fidelity, violations, ensemble scores.

The scorers are rewritten for size and speed from time to time; every
such rewrite must leave their outputs bit-for-bit unchanged.  These
goldens pin:

* every :class:`~repro.crosstalk.fidelity.FidelityBreakdown` field (floats
  as ``float.hex``) for the qplacer, classic and human layouts of
  grid-25 and falcon-27 (two paper-8 workloads, 8 mappings each) and of
  eagle-127 (one eagle-127 workload);
* a digest of the :func:`~repro.crosstalk.violations.
  find_spatial_violations` records of all nine layouts, once per
  ``include_qr`` setting;
* the bytes of :meth:`~repro.ensembles.evaluation.FrozenLayoutScorer.
  score_batch` on a seeded 8-row disorder batch of two eagle-127
  layouts.

To re-record after a deliberate output change, run this module as a
script (``PYTHONPATH=src python tests/crosstalk/test_scoring_golden.py``)
and paste the printed tables.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest

from repro.analysis.experiments import build_suite
from repro.circuits.mapping import evaluation_mappings
from repro.crosstalk.fidelity import ViolationTable, estimate_program_fidelity
from repro.crosstalk.violations import find_spatial_violations
from repro.devices.topology import get_topology
from repro.ensembles import DisorderSpec, FrozenLayoutScorer, sample_batch
from repro.workloads.registry import SUITES, build_workload

STRATEGIES = ("qplacer", "classic", "human")
NUM_MAPPINGS = 8
#: (topology, workload suite, workload names) of the fidelity cases.
FIDELITY_CASES = (("grid-25", "paper-8", ("bv-16", "qaoa-9")),
                  ("falcon-27", "paper-8", ("bv-16", "qaoa-9")),
                  ("eagle-127", "eagle-127", ("qft-32",)))


@functools.lru_cache(maxsize=None)
def _layouts(topology: str):
    return build_suite(topology).layouts


def _mappings(topology: str, suite: str, name: str):
    spec = next(s for s in SUITES[suite] if s.name == name)
    return evaluation_mappings(build_workload(spec), get_topology(topology),
                               num_mappings=NUM_MAPPINGS, base_seed=1)


def _hexed(value):
    return float(value).hex() if isinstance(value, float) else value


def _fidelity_digest(topology: str, suite: str, names) -> str:
    rows = []
    for name in names:
        maps = _mappings(topology, suite, name)
        for strategy in STRATEGIES:
            layout = _layouts(topology)[strategy]
            table = ViolationTable.build(layout)
            for mapped in maps:
                fb = estimate_program_fidelity(layout, mapped,
                                               violations=table)
                rows.append([_hexed(v) for v in
                             dataclasses.astuple(fb)])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _violations_digest(include_qr: bool) -> str:
    rows = []
    for topology, _, _ in FIDELITY_CASES:
        for strategy in STRATEGIES:
            for v in find_spatial_violations(_layouts(topology)[strategy],
                                             include_qr=include_qr):
                rows.append([_hexed(x) for x in dataclasses.astuple(v)])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _score_digest(strategy: str) -> str:
    layout = _layouts("eagle-127")[strategy]
    batch = sample_batch(layout.netlist, DisorderSpec(0.05, 0.05),
                         base_seed=7, count=8)
    scores = FrozenLayoutScorer(layout).score_batch(batch.qubit_freqs,
                                                    batch.resonator_freqs)
    h = hashlib.sha256()
    for field in dataclasses.fields(scores):
        h.update(np.ascontiguousarray(getattr(scores, field.name)).tobytes())
    return h.hexdigest()[:16]


#: Digest of the hexed breakdowns per topology (workloads in order,
#: strategies in :data:`STRATEGIES` order, 8 mappings each, base seed 1).
FIDELITY_GOLDEN = {
    "grid-25": "99eb0adc57b69d1d",
    "falcon-27": "358f14a21bec7281",
    "eagle-127": "a965396302ba8059",
}

#: Digest of every violation record of the nine layouts.
VIOLATIONS_GOLDEN = {
    True: "3025721765c18398",
    False: "a1ac13b9622b6659",
}

#: Digest of the score_batch arrays on eagle-127 (sigma 0.05, seed 7).
SCORES_GOLDEN = {
    "classic": "dd440ad19c261527",
    "qplacer": "329e4b4de64540f0",
}


@pytest.mark.parametrize("topology,suite,names", FIDELITY_CASES,
                         ids=[c[0] for c in FIDELITY_CASES])
def test_fidelity_matches_golden(topology, suite, names):
    assert _fidelity_digest(topology, suite, names) \
        == FIDELITY_GOLDEN[topology]


@pytest.mark.parametrize("include_qr", [True, False])
def test_violations_match_golden(include_qr):
    assert _violations_digest(include_qr) == VIOLATIONS_GOLDEN[include_qr]


@pytest.mark.parametrize("strategy", sorted(SCORES_GOLDEN))
def test_score_batch_matches_golden(strategy):
    assert _score_digest(strategy) == SCORES_GOLDEN[strategy]


if __name__ == "__main__":
    print("FIDELITY_GOLDEN = {")
    for topology, suite, names in FIDELITY_CASES:
        print(f"    {topology!r}: "
              f"{_fidelity_digest(topology, suite, names)!r},")
    print("}\nVIOLATIONS_GOLDEN = {")
    for include_qr in (True, False):
        print(f"    {include_qr!r}: {_violations_digest(include_qr)!r},")
    print("}\nSCORES_GOLDEN = {")
    for strategy in sorted(SCORES_GOLDEN):
        print(f"    {strategy!r}: {_score_digest(strategy)!r},")
    print("}")
