"""Golden request digests: the artifact store's keys must not move.

A stored artifact is found again only if the same payload parses to the
same request digest.  These digests were recorded before request
parsing moved to the shared field table; any change to normalisation
(suite expansion, CSV splitting, float sigmas, config dicts, materialised
defaults) that alters one of them orphans every existing store, and must
come with a ``CACHE_SCHEMA_VERSION`` bump and re-recorded values.
The values below were re-recorded at schema 16, whose bump moved the
ensemble repair into the problem frame, not request parsing: at schema
15 the same payloads give the values recorded there (and at schemas 14
and 13 the values recorded at those).  Each schema-15 value maps to
exactly one schema-16 value, so the payloads that coalesced still do.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import CACHE_SCHEMA_VERSION
from repro.circuits.library import PAPER_BENCHMARKS
from repro.devices.topology import PAPER_TOPOLOGY_ORDER
from repro.service.requests import parse_request
from repro.service.store import request_digest

PLACE_DEFAULT = \
    "81009396484f628dec9ecb8de4876d42a6096baead862e4a2166570e1d4c4a47"
PLACE_TWO = \
    "33b9156864d629a78013e06b5a5371f3ab9b9c09047b4dc1b15bca826f58682e"
FIDELITY_PAPER8 = \
    "9ddb5c786a3e8a4f69d9f47c4cfc825f1e7dae99c4fa63add84a8794acf3bbfe"
MAP_DEFAULT = \
    "f7720fc16c4a0e9b812c6f81bae177b255f8b78a6964550c561468e56d8e6239"
EVALUATE_PAPER = \
    "4eac2b25e10f0995d4c69d0add38eb69272ccce4a787e04d492a66823556bbd1"
ENSEMBLE_DEFAULT = \
    "5fdf069fe44b9e93d3c7f65328cc87c57f9fe3a01a23dbcd88cc2df9dd4e4624"

GOLDEN = [
    # An omitted field and its explicit default digest identically.
    ("place", {"topology": "grid-25"}, PLACE_DEFAULT),
    ("place", {"topology": "grid-25", "segment_size_mm": 0.3,
               "strategies": ["qplacer", "classic", "human"], "seed": 0,
               "config": None, "include_layouts": True,
               "warm_start": False}, PLACE_DEFAULT),
    # CSV and list strategies coalesce; a config dict is canonicalised.
    ("place", {"topology": "falcon-27", "strategies": "qplacer,classic",
               "seed": 3, "config": {"num_bins": 32},
               "include_layouts": False}, PLACE_TWO),
    ("place", {"topology": "falcon-27", "strategies": ["qplacer", "classic"],
               "seed": 3, "config": {"num_bins": 32},
               "include_layouts": False}, PLACE_TWO),
    # A suite name expands to its explicit workload list.
    ("fidelity", {"topology": "grid-25", "workloads": "paper-8"},
     FIDELITY_PAPER8),
    ("fidelity", {"topology": "grid-25", "workloads": list(PAPER_BENCHMARKS)},
     FIDELITY_PAPER8),
    ("fidelity", {"topology": "grid-25", "workloads": ["bv-4", "qaoa-9"],
                  "strategies": "qplacer", "num_mappings": 5,
                  "base_seed": 2, "config": {"detailed_passes": 1}},
     "066e76f2464b4c8c390fcaf6e8a6e4c0b9fb01faaf73fd0961e99b9a3542b093"),
    ("map", {"benchmark": "bv-4", "topology": "grid-25"}, MAP_DEFAULT),
    ("map", {"benchmark": "bv-4", "topology": "grid-25", "num_mappings": 50,
             "base_seed": 0, "router": "basic", "optimization_level": 3},
     MAP_DEFAULT),
    ("map", {"benchmark": "ghz-8", "topology": "falcon-27",
             "router": "sabre", "num_mappings": 7, "base_seed": 4,
             "optimization_level": 1},
     "1e3066986926dd298b24bf9a357fbfd96681b71601bdc0d03dfb6d8770e0c6a1"),
    # Evaluate's omitted lists become the paper defaults.
    ("evaluate", {}, EVALUATE_PAPER),
    ("evaluate", {"topologies": list(PAPER_TOPOLOGY_ORDER),
                  "benchmarks": list(PAPER_BENCHMARKS)}, EVALUATE_PAPER),
    ("evaluate", {"topologies": "grid-25,falcon-27",
                  "benchmarks": ["bv-4", "qaoa-9"], "num_mappings": 4,
                  "seed": 1, "config": {"num_bins": 32}},
     "14caf78b9c5a84aae2b7fa366abef80c9e08766fc5bb1d351c83090438fd236d"),
    ("ensemble", {"topology": "grid-25"}, ENSEMBLE_DEFAULT),
    ("ensemble", {"topology": "grid-25", "sigmas": [0.01, 0.02, 0.05],
                  "samples": 64, "bootstrap": 200, "repair_samples": 0},
     ENSEMBLE_DEFAULT),
    # CSV sigmas become floats; integer-valued number fields stay
    # integers, so 1 and 1.0 digest apart.
    ("ensemble", {"topology": "grid-25", "sigmas": "0,0.05", "samples": 16,
                  "repair_samples": 2, "strategy": "classic",
                  "max_ph_percent": 1, "resonator_sigma_scale": 1},
     "c2a4248d19614ab543ce0d7bcf3e7e5fb73a17aa7e75ceb05d1a93d1300ae079"),
    ("ensemble", {"topology": "grid-25", "sigmas": [0, 0.05], "samples": 16,
                  "repair_samples": 2, "strategy": "classic",
                  "max_ph_percent": 1.0, "resonator_sigma_scale": 1.0},
     "019105d5611e2832239484a4607d412d13293e4ca5da184388d65356e2d8761d"),
]


def test_schema_version_of_the_golden():
    assert CACHE_SCHEMA_VERSION == 16


@pytest.mark.parametrize("kind,payload,digest", GOLDEN,
                         ids=[f"{k}-{i}" for i, (k, _, _) in
                              enumerate(GOLDEN)])
def test_request_digest_golden(kind, payload, digest):
    assert request_digest(kind, parse_request(kind, payload)) == digest
