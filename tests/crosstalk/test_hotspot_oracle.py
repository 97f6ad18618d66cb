"""The columnar violation record against its per-pair specifications.

:func:`~repro.crosstalk.hotspots.hotspot_report` evaluates Eq. (18) on
the columns of :func:`~repro.crosstalk.violations.violation_columns`;
:mod:`tests.oracles.hotspots` is the per-pair ``Rect`` loop it
replaced.  Every number must match bit for bit (floats as
``float.hex``) on the qplacer, classic and human layouts of three paper
tiers and on one disordered eagle-127 layout.  The Eq. (15)
:class:`~repro.crosstalk.fidelity.ViolationTable` reads the same
columns, so its rows must equal the ``find_spatial_violations``
records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crosstalk.fidelity import ViolationTable
from repro.crosstalk.hotspots import hotspot_report
from repro.crosstalk.violations import KIND_QQ, find_spatial_violations
from repro.devices import disordered_layout
from repro.devices.components import Qubit, ResonatorSegment

from ..oracles import hotspots as oracle
from .test_scoring_golden import STRATEGIES, _layouts

TOPOLOGIES = ("grid-25", "falcon-27", "eagle-127")
CASES = [(t, s) for t in TOPOLOGIES for s in STRATEGIES] + [
    ("eagle-127", "qplacer-disordered")]


def _layout(topology, strategy):
    if strategy == "qplacer-disordered":
        return disordered_layout(_layouts(topology)["qplacer"],
                                 sigma_qubit_ghz=0.05,
                                 sigma_resonator_ghz=0.05, seed=11)
    return _layouts(topology)[strategy]


def _pairs(report):
    return [(p.i, p.j, p.facing_mm.hex(), p.centroid_distance_mm.hex(),
             p.contribution.hex()) for p in report.pairs]


@pytest.mark.parametrize("topology,strategy", CASES,
                         ids=[f"{t}-{s}" for t, s in CASES])
def test_hotspot_report_matches_rect_loop(topology, strategy):
    layout = _layout(topology, strategy)
    got = hotspot_report(layout)
    want = oracle.hotspot_report(layout)
    assert float(got.ph).hex() == float(want.ph).hex()
    assert _pairs(got) == _pairs(want)
    assert got.impacted_qubits == want.impacted_qubits
    assert got.apoly == want.apoly


def test_disordered_case_has_hotspots():
    """The disordered layout exercises the resonant branch."""
    report = hotspot_report(_layout("eagle-127", "qplacer-disordered"))
    assert report.num_hotspots > 0 and report.num_impacted_qubits > 0


@pytest.mark.parametrize("topology,strategy", CASES,
                         ids=[f"{t}-{s}" for t, s in CASES])
def test_violation_table_rows_equal_records(topology, strategy):
    layout = _layout(topology, strategy)
    table = ViolationTable.build(layout)
    records = find_spatial_violations(layout)
    assert len(table) == len(records)

    def member(idx):
        inst = layout.instances[idx]
        return (inst.index if isinstance(inst, Qubit) else -1,
                inst.resonator_index
                if isinstance(inst, ResonatorSegment) else -1)

    rows = [(int(table.i[k]), int(table.j[k]),
             (int(table.qubit_i[k]), int(table.res_i[k])),
             (int(table.qubit_j[k]), int(table.res_j[k])),
             float(table.g_ghz[k]).hex(),
             float(table.detuning_ghz[k]).hex(), bool(table.is_qq[k]))
            for k in range(len(table))]
    want = [(v.i, v.j, member(v.i), member(v.j), v.g_ghz.hex(),
             v.detuning_ghz.hex(), v.kind == KIND_QQ) for v in records]
    assert rows == want
    assert table.i.dtype == table.qubit_i.dtype == np.int64
