"""The vectorized rz-angle reduction equals scalar ``math.remainder``.

``merge_rz_arrays`` reduces every merged rz angle mod 2*pi.  Its helper
returns in-range angles untouched and calls ``math.remainder`` only on
the rest; these tests pin that the result matches the scalar call byte
for byte (sign of zero and NaN payloads included) and raises where it
raises (infinities).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.batch import _remainder_2pi

TWO_PI = 2.0 * math.pi


def _reference(values):
    return np.array([math.remainder(v, TWO_PI) for v in values],
                    dtype=np.float64)


def _assert_same_bytes(values):
    values = np.asarray(values, dtype=np.float64)
    assert _remainder_2pi(values).tobytes() == _reference(values).tobytes()


finite = st.floats(allow_nan=True, allow_infinity=False)
near_pi = st.floats(min_value=math.pi - 1e-9, max_value=math.pi + 1e-9)
near_turns = st.builds(lambda k, d: k * TWO_PI + d,
                       st.integers(min_value=-8, max_value=8),
                       st.floats(min_value=-1e-9, max_value=1e-9))
angles = st.one_of(finite, near_pi, near_pi.map(lambda v: -v), near_turns)


@settings(max_examples=300, deadline=None)
@given(st.lists(angles, max_size=40))
def test_matches_scalar_remainder(values):
    _assert_same_bytes(values)


EDGES = [
    math.pi, -math.pi,
    math.nextafter(math.pi, math.inf), math.nextafter(-math.pi, -math.inf),
    math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
    TWO_PI, -TWO_PI, 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072e-308, -2.2250738585072e-308,
    1e300, -1e300, math.nan,
]


@pytest.mark.parametrize("value", EDGES)
def test_edge_case(value):
    _assert_same_bytes([value])


def test_edge_cases_together():
    _assert_same_bytes(EDGES)


def test_sign_bit_of_zero_kept():
    out = _remainder_2pi(np.array([0.0, -0.0, TWO_PI, -TWO_PI]))
    assert [math.copysign(1.0, v) for v in out.tolist()] == \
        [1.0, -1.0, 1.0, -1.0]


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinity_raises_like_scalar(value):
    with pytest.raises(ValueError):
        math.remainder(value, TWO_PI)
    with pytest.raises(ValueError):
        _remainder_2pi(np.array([0.5, value]))


def test_empty():
    assert _remainder_2pi(np.empty(0)).shape == (0,)
