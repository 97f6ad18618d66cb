"""Small statistics helpers shared by the benchmark's modules."""

from __future__ import annotations


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
