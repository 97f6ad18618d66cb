"""Unit tests for spatial-violation detection on synthetic layouts."""

import numpy as np
import pytest

from repro.devices.components import Qubit, Resonator
from repro.devices.layout import Layout
from repro.crosstalk.violations import (
    KIND_QQ,
    KIND_QR,
    KIND_RR,
    count_by_kind,
    count_candidate_pairs,
    find_spatial_violations,
    spatial_candidate_pairs,
    violating_pairs,
)


def qubit(i, freq, padding=0.4):
    return Qubit(name=f"q{i}", width=0.4, height=0.4, padding=padding,
                 frequency=freq, index=i)


def segments(res_index, freq, count=2):
    r = Resonator(name=f"r{res_index}", index=res_index,
                  endpoints=(0, 1), frequency=freq)
    return list(r.make_segments(0.3)[:count])


def layout_of(instances, positions):
    return Layout(instances=instances, positions=np.array(positions, float))


class TestQubitPairs:
    def test_close_resonant_pair_detected(self):
        lay = layout_of([qubit(0, 5.0), qubit(1, 5.0)], [(0, 0), (0.8, 0)])
        violations = find_spatial_violations(lay)
        assert len(violations) == 1
        v = violations[0]
        assert v.kind == KIND_QQ
        assert v.resonant
        assert v.gap_mm == pytest.approx(0.4)
        assert v.g_ghz > 0

    def test_pair_at_padding_sum_is_legal(self):
        # gap = 0.8 = dq + dq exactly -> not a violation.
        lay = layout_of([qubit(0, 5.0), qubit(1, 5.0)], [(0, 0), (1.2, 0)])
        assert find_spatial_violations(lay) == []

    def test_detuned_pair_not_resonant(self):
        lay = layout_of([qubit(0, 4.8), qubit(1, 5.2)], [(0, 0), (0.8, 0)])
        violations = find_spatial_violations(lay)
        assert len(violations) == 1
        assert not violations[0].resonant
        # Dispersive residual is quadratically suppressed.
        assert violations[0].g_eff_ghz < violations[0].g_ghz

    def test_diagonal_euclidean_gap(self):
        # Diagonal offset: per-axis close, Euclidean gap >= padding sum.
        lay = layout_of([qubit(0, 5.0), qubit(1, 5.0)],
                        [(0, 0), (1.0, 1.0)])
        # gap = hypot(0.6, 0.6) = 0.849 > 0.8 -> legal.
        assert find_spatial_violations(lay) == []

    def test_coupling_grows_as_gap_shrinks(self):
        def g_at(dx):
            lay = layout_of([qubit(0, 5.0), qubit(1, 5.0)], [(0, 0), (dx, 0)])
            return find_spatial_violations(lay)[0].g_ghz
        assert g_at(0.5) > g_at(0.9)


class TestResonatorPairs:
    def test_foreign_segments_close(self):
        s1 = segments(0, 6.5, 1)
        s2 = segments(1, 6.5, 1)
        lay = layout_of(s1 + s2, [(0, 0), (0.4, 0)])
        violations = find_spatial_violations(lay)
        assert len(violations) == 1
        assert violations[0].kind == KIND_RR
        assert violations[0].resonant

    def test_sibling_segments_exempt(self):
        sibs = segments(0, 6.5, 2)
        lay = layout_of(sibs, [(0, 0), (0.3, 0)])
        assert find_spatial_violations(lay) == []

    def test_facing_length_recorded(self):
        s1 = segments(0, 6.5, 1)
        s2 = segments(1, 6.5, 1)
        lay = layout_of(s1 + s2, [(0, 0), (0.4, 0)])
        v = find_spatial_violations(lay)[0]
        assert v.facing_mm == pytest.approx(0.3)


class TestQubitResonatorPairs:
    def test_qr_kind(self):
        q = qubit(0, 5.0)
        s = segments(5, 6.5, 1)
        lay = layout_of([q] + s, [(0, 0), (0.5, 0)])
        violations = find_spatial_violations(lay)
        assert len(violations) == 1
        assert violations[0].kind == KIND_QR
        assert not violations[0].resonant  # bands never overlap

    def test_qr_excluded_when_disabled(self):
        q = qubit(0, 5.0)
        s = segments(5, 6.5, 1)
        lay = layout_of([q] + s, [(0, 0), (0.5, 0)])
        assert find_spatial_violations(lay, include_qr=False) == []


class TestHelpers:
    def test_count_by_kind(self):
        s1 = segments(0, 6.5, 1)
        s2 = segments(1, 6.5, 1)
        q0, q1 = qubit(0, 5.0), qubit(1, 5.0)
        lay = layout_of([q0, q1] + s1 + s2,
                        [(0, 0), (0.8, 0), (10, 10), (10.4, 10)])
        counts = count_by_kind(find_spatial_violations(lay))
        assert counts[KIND_QQ] == 1
        assert counts[KIND_RR] == 1

    def test_empty_layout(self):
        lay = layout_of([qubit(0, 5.0)], [(0, 0)])
        assert find_spatial_violations(lay) == []


class TestFewerThanTwoInstances:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_candidate_pairs_empty(self, n, backend):
        pos = np.zeros((n, 2))
        half = np.full(n, 0.2)
        iu, ju, dx, dy = spatial_candidate_pairs(pos, half, half,
                                                 np.full(n, 0.4),
                                                 backend=backend)
        for arr, dtype in ((iu, np.int64), (ju, np.int64),
                           (dx, np.float64), (dy, np.float64)):
            assert arr.dtype == dtype
            assert arr.shape == (0,)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_layout_scans_empty(self, n, backend):
        lay = Layout(instances=[qubit(0, 5.0)][:n],
                     positions=np.zeros((n, 2)))
        assert count_candidate_pairs(lay, backend=backend) == 0
        assert find_spatial_violations(lay, backend=backend) == []

    @pytest.mark.parametrize("include_qr", [True, False])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_violation_kernel_empty(self, n, backend, include_qr):
        """The scan needs no early return: empty pair columns flow
        through every filter and the physics to an empty list."""
        lay = Layout(instances=[qubit(0, 5.0)][:n],
                     positions=np.zeros((n, 2)))
        assert find_spatial_violations(lay, include_qr=include_qr,
                                       backend=backend) == []
        pairs = violating_pairs(lay, backend=backend)
        assert pairs.i.shape == pairs.gap.shape == pairs.facing.shape == (0,)
        assert pairs.pos.shape == (n, 2)

    @pytest.mark.parametrize("backend", ["auto", "bogus"])
    @pytest.mark.parametrize("n", [0, 2])
    def test_unknown_backend_rejected(self, n, backend):
        """Two behaviours only: the grid (``sparse``, the default) and
        the dense ``triu`` oracle; the retired ``auto`` name is an
        error like any other."""
        with pytest.raises(ValueError, match="violation-scan backend"):
            spatial_candidate_pairs(np.zeros((n, 2)), np.full(n, 0.2),
                                    np.full(n, 0.2), np.full(n, 0.4),
                                    backend=backend)
