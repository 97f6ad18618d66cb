"""Electromagnetics of half-wave coplanar-waveguide resonators.

The paper (Sec. V-C) sizes resonators with the half-wave relation
``f = v0 / (2 L)`` where ``v0 ~ 1.3e8 m/s`` is the phase velocity in the
CPW.  For the 6.0--7.0 GHz band this gives lengths of 10.8 down to 9.2 mm,
which is where the large resonator area overhead of Sec. III-B comes from.
"""

from __future__ import annotations

from .. import constants


def resonator_length_mm(frequency_ghz: float,
                        phase_velocity_mm_per_ns: float = constants.CPW_PHASE_VELOCITY_MM_PER_NS
                        ) -> float:
    """Physical length of a half-wave resonator at ``frequency_ghz``.

    ``L = v0 / (2 f)`` with v0 in mm/ns and f in GHz yields mm directly.

    Raises:
        ValueError: for non-positive frequency.
    """
    if frequency_ghz <= 0:
        raise ValueError(f"resonator frequency must be positive, got {frequency_ghz}")
    return phase_velocity_mm_per_ns / (2.0 * frequency_ghz)


def resonator_frequency_ghz(length_mm: float,
                            phase_velocity_mm_per_ns: float = constants.CPW_PHASE_VELOCITY_MM_PER_NS
                            ) -> float:
    """Inverse of :func:`resonator_length_mm`: ``f = v0 / (2 L)``."""
    if length_mm <= 0:
        raise ValueError(f"resonator length must be positive, got {length_mm}")
    return phase_velocity_mm_per_ns / (2.0 * length_mm)


def harmonic_ghz(length_mm: float, n: int) -> float:
    """Frequency of the ``n``-th harmonic of a half-wave resonator.

    ``f_n = n * v0 / (2 L)`` with ``n = 1`` the fundamental.
    """
    if n < 1:
        raise ValueError("harmonic index must be >= 1")
    return n * resonator_frequency_ghz(length_mm)
