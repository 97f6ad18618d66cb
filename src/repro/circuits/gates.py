"""Gate definitions for the benchmark-circuit IR.

The native basis matches the paper's fixed-frequency transmon platform:
single-qubit ``rz`` (virtual), ``sx``, ``x`` plus the two-qubit ``cz``
implemented as a resonator-induced phase (RIP) gate (Sec. II-B).
Higher-level gates (``h``, ``cx``, ``rx``, ``ry``, ``rzz``, ``swap``) are
accepted by the IR and lowered by :mod:`repro.circuits.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Hardware-native gate names (IBM fixed-frequency basis with RIP CZ).
BASIS_GATES = frozenset({"rz", "sx", "x", "cz"})

#: Gate names understood by the IR (lowered to the basis by transpile()).
KNOWN_GATES = frozenset({
    "rz", "sx", "x", "cz",
    "h", "cx", "rx", "ry", "rzz", "swap", "barrier",
})

#: Gates that take exactly one rotation-angle parameter.
PARAMETRIC_GATES = frozenset({"rz", "rx", "ry", "rzz"})

#: Gates acting on two qubits.
TWO_QUBIT_GATES = frozenset({"cz", "cx", "rzz", "swap"})

#: Self-inverse gates: two identical applications cancel.
SELF_INVERSE_GATES = frozenset({"x", "h", "cz", "cx", "swap"})


@dataclass(frozen=True)
class Gate:
    """One quantum operation on explicit qubit indices.

    Attributes:
        name: Gate name from :data:`KNOWN_GATES`.
        qubits: Target qubit indices (order matters for cx: control, target).
        params: Rotation angles in radians (empty for Clifford gates).
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in KNOWN_GATES:
            raise ValueError(f"unknown gate {self.name!r}")
        expected = 2 if self.name in TWO_QUBIT_GATES else 1
        if self.name == "barrier":
            if not self.qubits:
                raise ValueError("barrier needs at least one qubit")
        elif len(self.qubits) != expected:
            raise ValueError(
                f"{self.name} expects {expected} qubit(s), got {self.qubits}")
        if self.name in TWO_QUBIT_GATES and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.name} qubits must differ, got {self.qubits}")
        if self.name in PARAMETRIC_GATES and len(self.params) != 1:
            raise ValueError(f"{self.name} expects exactly one parameter")
        if self.name not in PARAMETRIC_GATES and self.params:
            raise ValueError(f"{self.name} takes no parameters")

    @property
    def num_qubits(self) -> int:
        """Number of qubits the gate acts on."""
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        """True for entangling (two-qubit) gates."""
        return self.name in TWO_QUBIT_GATES

    @property
    def is_basis(self) -> bool:
        """True when the gate is hardware-native."""
        return self.name in BASIS_GATES


# -- concise constructors -------------------------------------------------------

def rz(qubit: int, angle: float) -> Gate:
    """Virtual Z rotation."""
    return Gate("rz", (qubit,), (float(angle),))


def sx(qubit: int) -> Gate:
    """Square-root of X."""
    return Gate("sx", (qubit,))


def x(qubit: int) -> Gate:
    """Pauli X."""
    return Gate("x", (qubit,))


def h(qubit: int) -> Gate:
    """Hadamard (lowered to rz-sx-rz)."""
    return Gate("h", (qubit,))


def rx(qubit: int, angle: float) -> Gate:
    """X rotation (lowered to h-rz-h)."""
    return Gate("rx", (qubit,), (float(angle),))


def ry(qubit: int, angle: float) -> Gate:
    """Y rotation (lowered via rz conjugation of rx)."""
    return Gate("ry", (qubit,), (float(angle),))


def cz(a: int, b: int) -> Gate:
    """Controlled-Z (the native RIP two-qubit gate)."""
    return Gate("cz", (a, b))


def cx(control: int, target: int) -> Gate:
    """Controlled-X (lowered to h-cz-h)."""
    return Gate("cx", (control, target))


def rzz(a: int, b: int, angle: float) -> Gate:
    """ZZ interaction exp(-i angle/2 Z⊗Z) (lowered to cx-rz-cx)."""
    return Gate("rzz", (a, b), (float(angle),))


def swap(a: int, b: int) -> Gate:
    """SWAP (lowered to three cx)."""
    return Gate("swap", (a, b))


def barrier(*qubits: int) -> Gate:
    """Scheduling barrier across ``qubits`` (no hardware cost)."""
    return Gate("barrier", tuple(qubits))
