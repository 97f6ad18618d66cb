"""Golden request digests: the artifact store's keys must not move.

A stored artifact is found again only if the same payload parses to the
same request digest.  These digests were recorded before request
parsing moved to the shared field table; any change to normalisation
(suite expansion, CSV splitting, float sigmas, config dicts, materialised
defaults) that alters one of them orphans every existing store, and must
come with a ``CACHE_SCHEMA_VERSION`` bump and re-recorded values.
The values below were re-recorded at schema 15, whose bump changed the
Classic layouts of non-default configs, not request parsing: at schema
14 the same payloads give the values recorded there (and at schema 13
the values first recorded).
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import CACHE_SCHEMA_VERSION
from repro.circuits.library import PAPER_BENCHMARKS
from repro.devices.topology import PAPER_TOPOLOGY_ORDER
from repro.service.requests import parse_request
from repro.service.store import request_digest

PLACE_DEFAULT = \
    "e19b841fcd4c73b12ae4a069a533da6f97a602551bfe9cc5bd0734e2e97fb118"
PLACE_TWO = \
    "71fe79f3bc0a1b5e2d3ba9d0070e53f38daba5dc72e7034d76c8ace74b4644b4"
FIDELITY_PAPER8 = \
    "72412da26392795df583f421c705857cb472f432af4aa2d2f4d1ccc6ba287e56"
MAP_DEFAULT = \
    "31fead5b6c3bb85d1848b6019d5206ea46a6ec9b17c60a1b77e90cc664877024"
EVALUATE_PAPER = \
    "11119d7a29de7f954f924fd9f706e4f462c0eb5270e815da7c12a741ca8ffef4"
ENSEMBLE_DEFAULT = \
    "f5d4067f071bb2f3a0134272e443299dcc1761a1252f7c0999eacb5161394a9d"

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
     "3c538ff4f4f8c701c1d25883da989d512130b3bfe713ad855306b9eaa4561727"),
    ("map", {"benchmark": "bv-4", "topology": "grid-25"}, MAP_DEFAULT),
    ("map", {"benchmark": "bv-4", "topology": "grid-25", "num_mappings": 50,
             "base_seed": 0, "router": "basic", "optimization_level": 3},
     MAP_DEFAULT),
    ("map", {"benchmark": "ghz-8", "topology": "falcon-27",
             "router": "sabre", "num_mappings": 7, "base_seed": 4,
             "optimization_level": 1},
     "d64c484bbfb554ac0bf7a2d0f7fb08f40ce40e21e3db04b779dc22da4d507a58"),
    # Evaluate's omitted lists become the paper defaults.
    ("evaluate", {}, EVALUATE_PAPER),
    ("evaluate", {"topologies": list(PAPER_TOPOLOGY_ORDER),
                  "benchmarks": list(PAPER_BENCHMARKS)}, EVALUATE_PAPER),
    ("evaluate", {"topologies": "grid-25,falcon-27",
                  "benchmarks": ["bv-4", "qaoa-9"], "num_mappings": 4,
                  "seed": 1, "config": {"num_bins": 32}},
     "7680cd3127407f917fdb89234080ca98c322e5461ede67464338681eb7e10c28"),
    ("ensemble", {"topology": "grid-25"}, ENSEMBLE_DEFAULT),
    ("ensemble", {"topology": "grid-25", "sigmas": [0.01, 0.02, 0.05],
                  "samples": 64, "bootstrap": 200, "repair_samples": 0},
     ENSEMBLE_DEFAULT),
    # CSV sigmas become floats; integer-valued number fields stay
    # integers, so 1 and 1.0 digest apart.
    ("ensemble", {"topology": "grid-25", "sigmas": "0,0.05", "samples": 16,
                  "repair_samples": 2, "strategy": "classic",
                  "max_ph_percent": 1, "resonator_sigma_scale": 1},
     "d892abac39fd52e6ad567ffdbb7acacd2f9ccf6e60d322a74f7a06015858aa53"),
    ("ensemble", {"topology": "grid-25", "sigmas": [0, 0.05], "samples": 16,
                  "repair_samples": 2, "strategy": "classic",
                  "max_ph_percent": 1.0, "resonator_sigma_scale": 1.0},
     "4a844ca3390e1b6c9362aa42ba4bc5b057e966f0243edb643ffedb2248027b7f"),
]


def test_schema_version_of_the_golden():
    assert CACHE_SCHEMA_VERSION == 15


@pytest.mark.parametrize("kind,payload,digest", GOLDEN,
                         ids=[f"{k}-{i}" for i, (k, _, _) in
                              enumerate(GOLDEN)])
def test_request_digest_golden(kind, payload, digest):
    assert request_digest(kind, parse_request(kind, payload)) == digest
