"""Noise model: gate, decoherence, and crosstalk error channels (Sec. V-C).

The program-fidelity metric (Eq. 15) multiplies three families of error
terms:

* ``eps_q`` — per-qubit errors from timed single-qubit gates, two-qubit
  gates, and decoherence over the circuit duration;
* ``eps_g`` — crosstalk between *qubits* in spatial violation, driven by
  Rabi oscillation at the parasitic effective coupling (Eq. 16);
* ``eps_r`` — the analogous crosstalk between *resonators*.

The crosstalk error is the paper's worst-case estimate: the transition
probability ``Pr[t] = sin^2(g_eff * t)`` evaluated at its running maximum
over the circuit duration (the oscillation certainly reaches its envelope
once ``g_eff * t`` exceeds a quarter period).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import constants
from ..physics.hamiltonian import worst_case_swap_probability


@dataclass(frozen=True)
class NoiseParams:
    """All tunable parameters of the noise model.

    Defaults are the representative superconducting values of Sec. V-C
    (see ``repro.constants`` for provenance).
    """

    t1_ns: float = constants.T1_NS
    t2_ns: float = constants.T2_NS
    single_qubit_gate_ns: float = constants.SINGLE_QUBIT_GATE_NS
    two_qubit_gate_ns: float = constants.TWO_QUBIT_GATE_NS
    single_qubit_gate_error: float = constants.SINGLE_QUBIT_GATE_ERROR
    two_qubit_gate_error: float = constants.TWO_QUBIT_GATE_ERROR
    detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ

    def __post_init__(self) -> None:
        if self.t1_ns <= 0 or self.t2_ns <= 0:
            raise ValueError("coherence times must be positive")
        if not (0 <= self.single_qubit_gate_error < 1):
            raise ValueError("single-qubit gate error must be in [0, 1)")
        if not (0 <= self.two_qubit_gate_error < 1):
            raise ValueError("two-qubit gate error must be in [0, 1)")

    @property
    def decoherence_rate_per_ns(self) -> float:
        """Combined amplitude+phase damping rate: (1/T1 + 1/T2)/2."""
        return 0.5 * (1.0 / self.t1_ns + 1.0 / self.t2_ns)


def decoherence_error(duration_ns: float,
                      params: NoiseParams = NoiseParams()) -> float:
    """Per-qubit decoherence error over ``duration_ns``.

    ``eps = 1 - exp(-t * (1/T1 + 1/T2) / 2)``, covering both idle and
    gate periods (the paper's worst-case estimate exposes every active
    qubit to decoherence for the whole circuit duration).
    """
    if duration_ns < 0:
        raise ValueError("duration must be non-negative")
    return 1.0 - math.exp(-duration_ns * params.decoherence_rate_per_ns)


def crosstalk_error(g_eff_ghz: float, duration_ns: float,
                    detuning_ghz: float = 0.0) -> float:
    """Worst-case crosstalk error for one violating pair (Eq. 16).

    Uses the exact two-level Rabi envelope: amplitude
    ``4 g^2 / (Delta^2 + 4 g^2)`` reached once the accumulated phase
    passes a quarter period.

    Args:
        g_eff_ghz: Parasitic coupling strength (GHz).  For detuned pairs
            pass the *bare* g together with ``detuning_ghz``; for
            resonant pairs the detuning is ~0 and g is the full coupling.
        duration_ns: Exposure time (circuit duration).
        detuning_ghz: Frequency detuning of the pair.
    """
    if duration_ns < 0:
        raise ValueError("duration must be non-negative")
    if g_eff_ghz < 0:
        raise ValueError("coupling strength must be non-negative")
    if g_eff_ghz == 0 or duration_ns == 0:
        return 0.0
    return worst_case_swap_probability(detuning_ghz, 0.0, g_eff_ghz, duration_ns)


def gate_error_factor(num_single: int, num_two: int,
                      params: NoiseParams = NoiseParams()) -> float:
    """Fidelity factor from gate errors: (1-e1)^n1 * (1-e2)^n2."""
    if num_single < 0 or num_two < 0:
        raise ValueError("gate counts must be non-negative")
    return ((1.0 - params.single_qubit_gate_error) ** num_single
            * (1.0 - params.two_qubit_gate_error) ** num_two)
