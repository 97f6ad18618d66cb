"""Golden request digests: the artifact store's keys must not move.

A stored artifact is found again only if the same payload parses to the
same request digest.  These digests were recorded before request
parsing moved to the shared field table; any change to normalisation
(suite expansion, CSV splitting, float sigmas, config dicts, materialised
defaults) that alters one of them orphans every existing store, and must
come with a ``CACHE_SCHEMA_VERSION`` bump and re-recorded values.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import CACHE_SCHEMA_VERSION
from repro.circuits.library import PAPER_BENCHMARKS
from repro.devices.topology import PAPER_TOPOLOGY_ORDER
from repro.service.requests import parse_request
from repro.service.store import request_digest

PLACE_DEFAULT = \
    "2b0b23fc9f3c80c2b9decefe4a6ad77f4141d2197a5684745d61b35fca24acb3"
PLACE_TWO = \
    "6815561e8176bb75541ab51fccfe2abb96b775632188269f986f4249cebd9c15"
FIDELITY_PAPER8 = \
    "bfb1e2001faaeaa6702534db7664309898f2e19a3857ddee089c93b543a92cf9"
MAP_DEFAULT = \
    "c8162474ed920591bcb744d9c0e8e39bba4f187047bd349df0eb912c94e6bc03"
EVALUATE_PAPER = \
    "2ce0d4b3b9cc48c77922e7aea8bc32ac5838eeefb4c235001fc64ceee080e6cf"
ENSEMBLE_DEFAULT = \
    "26f51093dec28fc59fd161028e88e221072187bcd920fd97c90951b3aec569ce"

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
     "a30373131428b7974034179bbd92d38ebe5cb26a9936dd81cc7968f310bd371a"),
    ("map", {"benchmark": "bv-4", "topology": "grid-25"}, MAP_DEFAULT),
    ("map", {"benchmark": "bv-4", "topology": "grid-25", "num_mappings": 50,
             "base_seed": 0, "router": "basic", "optimization_level": 3},
     MAP_DEFAULT),
    ("map", {"benchmark": "ghz-8", "topology": "falcon-27",
             "router": "sabre", "num_mappings": 7, "base_seed": 4,
             "optimization_level": 1},
     "65d7bc3949cecdfd23f318ce8341cc112bec950e983d3562fba8e5f4a2b738d4"),
    # Evaluate's omitted lists become the paper defaults.
    ("evaluate", {}, EVALUATE_PAPER),
    ("evaluate", {"topologies": list(PAPER_TOPOLOGY_ORDER),
                  "benchmarks": list(PAPER_BENCHMARKS)}, EVALUATE_PAPER),
    ("evaluate", {"topologies": "grid-25,falcon-27",
                  "benchmarks": ["bv-4", "qaoa-9"], "num_mappings": 4,
                  "seed": 1, "config": {"num_bins": 32}},
     "c2a88cccf55464f632299e149bb4d14a30fbfd7aef35b8707c32d82cc6ed8da2"),
    ("ensemble", {"topology": "grid-25"}, ENSEMBLE_DEFAULT),
    ("ensemble", {"topology": "grid-25", "sigmas": [0.01, 0.02, 0.05],
                  "samples": 64, "bootstrap": 200, "repair_samples": 0},
     ENSEMBLE_DEFAULT),
    # CSV sigmas become floats; integer-valued number fields stay
    # integers, so 1 and 1.0 digest apart.
    ("ensemble", {"topology": "grid-25", "sigmas": "0,0.05", "samples": 16,
                  "repair_samples": 2, "strategy": "classic",
                  "max_ph_percent": 1, "resonator_sigma_scale": 1},
     "831be51aabf0fdc88192699f1f962d30d402d82108d3573bceebcefe3b8a7663"),
    ("ensemble", {"topology": "grid-25", "sigmas": [0, 0.05], "samples": 16,
                  "repair_samples": 2, "strategy": "classic",
                  "max_ph_percent": 1.0, "resonator_sigma_scale": 1.0},
     "234612cdb8eb7c24f6db5a68413517e957660ec385dfbfcb6acffe39019b4bd2"),
]


def test_schema_version_of_the_golden():
    assert CACHE_SCHEMA_VERSION == 13


@pytest.mark.parametrize("kind,payload,digest", GOLDEN,
                         ids=[f"{k}-{i}" for i, (k, _, _) in
                              enumerate(GOLDEN)])
def test_request_digest_golden(kind, payload, digest):
    assert request_digest(kind, parse_request(kind, payload)) == digest
