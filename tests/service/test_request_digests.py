"""Golden request digests: the artifact store's keys must not move.

A stored artifact is found again only if the same payload parses to the
same request digest.  These digests were recorded before request
parsing moved to the shared field table; any change to normalisation
(suite expansion, CSV splitting, float sigmas, config dicts, materialised
defaults) that alters one of them orphans every existing store, and must
come with a ``CACHE_SCHEMA_VERSION`` bump and re-recorded values.
The values below were re-recorded at schema 14, whose bump changed the
pickled placement problem, not request parsing: at schema 13 the same
payloads give the values first recorded.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import CACHE_SCHEMA_VERSION
from repro.circuits.library import PAPER_BENCHMARKS
from repro.devices.topology import PAPER_TOPOLOGY_ORDER
from repro.service.requests import parse_request
from repro.service.store import request_digest

PLACE_DEFAULT = \
    "5fad175f5cbcbc55563fd60e2002bc405b3ed0bb6f238a805b8e0d53a75ab53c"
PLACE_TWO = \
    "b08ab1483b398690b144b507c45336449d92323c6caa656bbcc5d2b6d984967a"
FIDELITY_PAPER8 = \
    "6acdc0b231e538324fbaed9b714fc1953dd4af2740ed1d0adfbaa4e9261c685c"
MAP_DEFAULT = \
    "d3eaad977e4d210ab1340bba107ac92c857311e67335c901ca196a621c0314d9"
EVALUATE_PAPER = \
    "9371e05371ec7174afe5462e20fccb0d867a485b136fc1f487ef497ac559fc0d"
ENSEMBLE_DEFAULT = \
    "0a8466e052683958df771097b37145911d107a5b46dbd975a663f7feb53377d1"

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
     "d28ce11d8c009a7ece80c1bb067a18e4b6eece639dad0b2e2cad1bf21cbbaee0"),
    ("map", {"benchmark": "bv-4", "topology": "grid-25"}, MAP_DEFAULT),
    ("map", {"benchmark": "bv-4", "topology": "grid-25", "num_mappings": 50,
             "base_seed": 0, "router": "basic", "optimization_level": 3},
     MAP_DEFAULT),
    ("map", {"benchmark": "ghz-8", "topology": "falcon-27",
             "router": "sabre", "num_mappings": 7, "base_seed": 4,
             "optimization_level": 1},
     "e2a224215586dda76e08664c7a680c0945ea49ede8f85600fda954b17c5adf8a"),
    # Evaluate's omitted lists become the paper defaults.
    ("evaluate", {}, EVALUATE_PAPER),
    ("evaluate", {"topologies": list(PAPER_TOPOLOGY_ORDER),
                  "benchmarks": list(PAPER_BENCHMARKS)}, EVALUATE_PAPER),
    ("evaluate", {"topologies": "grid-25,falcon-27",
                  "benchmarks": ["bv-4", "qaoa-9"], "num_mappings": 4,
                  "seed": 1, "config": {"num_bins": 32}},
     "d24ec24088f5d44a9e098bf9188170dc18ded99a4418a8772d059785ca375fe1"),
    ("ensemble", {"topology": "grid-25"}, ENSEMBLE_DEFAULT),
    ("ensemble", {"topology": "grid-25", "sigmas": [0.01, 0.02, 0.05],
                  "samples": 64, "bootstrap": 200, "repair_samples": 0},
     ENSEMBLE_DEFAULT),
    # CSV sigmas become floats; integer-valued number fields stay
    # integers, so 1 and 1.0 digest apart.
    ("ensemble", {"topology": "grid-25", "sigmas": "0,0.05", "samples": 16,
                  "repair_samples": 2, "strategy": "classic",
                  "max_ph_percent": 1, "resonator_sigma_scale": 1},
     "a18a05f78bcae0c716c71585aafeae58fd3df5adb8d5cc3ec02ac787e2c1deda"),
    ("ensemble", {"topology": "grid-25", "sigmas": [0, 0.05], "samples": 16,
                  "repair_samples": 2, "strategy": "classic",
                  "max_ph_percent": 1.0, "resonator_sigma_scale": 1.0},
     "e5375903aa52418b0a968648c0023383e2fc0e252e572f83a0e8f58af4e3a0c3"),
]


def test_schema_version_of_the_golden():
    assert CACHE_SCHEMA_VERSION == 14


@pytest.mark.parametrize("kind,payload,digest", GOLDEN,
                         ids=[f"{k}-{i}" for i, (k, _, _) in
                              enumerate(GOLDEN)])
def test_request_digest_golden(kind, payload, digest):
    assert request_digest(kind, parse_request(kind, payload)) == digest
