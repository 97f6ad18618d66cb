"""Golden digests of final placements (bit-identity gate).

The global placer's objective kernels are rewritten for speed from time
to time; every such rewrite must leave the optimizer trajectory, and so
the final layout, bit-for-bit unchanged.  These SHA-256 digests of
``layout.positions.tobytes()`` were recorded with the straightforward
kernels (fancy-indexed pair gathers, per-call temporaries, separate
rasterise/gather windows) and pin both strategies on two paper tiers,
plus the above-threshold numbers (3 mm pair cutoff, incremental density
flushed every 16 evaluations), which exercise the neighbor-list
rebuilds and the incremental density map with its flush checkpoints
(selected on falcon-27 by lowering ``preprocess.SPARSE_MIN_INSTANCES``;
the numbers are picked from problem size, not configured).  The
eagle-127 pair pins the largest exact-sum tier: the biggest
required-gap table and the most legalizer neighbourhood queries of any
paper topology.  grid-121 is above the size threshold unpatched, so
its digest pins the default sparse path with its 42 neighbor-list
rebuilds.
"""

import hashlib

import pytest

from repro.core import PlacerConfig, QPlacer, preprocess
from repro.devices import build_netlist, get_topology

GOLDEN = [
    ("grid-25", "qplacer", False,
     "4bf518cc8646565d97a6b4b3e5174376585bb82340bf2808dd7bc61a1ce72b18"),
    ("grid-25", "classic", False,
     "53dc716458276cf1999f40c778afa7b09020c80e51d4445a0eae18084e8b1015"),
    ("falcon-27", "qplacer", False,
     "d92fa8d04b101ddc6b74bef152437fa3330778d0c4b58a50cd758f4b1ad4fe26"),
    ("falcon-27", "classic", False,
     "79d379653a0286990c74ee1941e4f3c8c716f7486a7ea42d53a4eaaf1cd2dae0"),
    ("falcon-27", "qplacer", True,
     "1900519d48b66a8dca094d99f8a279c65d48baa509b6dee4ecc6d0c68fd98f64"),
    ("eagle-127", "qplacer", False,
     "6ec8bb25a8449a078f571a4d5cbcc2972332220ac955daf41a53208f7dd7a8c2"),
    ("eagle-127", "classic", False,
     "14f3626c276f652a1564f7bda5f83c645520736b1b6450974d6b350086f5eb86"),
    ("grid-121", "qplacer", True,
     "c15ff714f224ab700966d343f956b89f05b6b0337d26c165e0f7af601e408127"),
]


@pytest.mark.parametrize(
    "topology,strategy,sparse,digest", GOLDEN,
    ids=[f"{t}-{s}{'-sparse' if sp else ''}" for t, s, sp, _ in GOLDEN])
def test_positions_digest(topology, strategy, sparse, digest, monkeypatch):
    if sparse:
        monkeypatch.setattr(preprocess, "SPARSE_MIN_INSTANCES", 0)
    config = (PlacerConfig.classic() if strategy == "classic"
              else PlacerConfig())
    result = QPlacer(config).place(build_netlist(get_topology(topology)))
    assert result.problem.density_flush_interval == (
        preprocess.DENSITY_FLUSH_INTERVAL if sparse else 1)
    positions = result.layout.positions
    assert hashlib.sha256(positions.tobytes()).hexdigest() == digest
