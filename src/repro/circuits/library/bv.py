"""Bernstein-Vazirani benchmark circuits (Table I, ref. [9]).

``bv-n`` uses ``n`` qubits total: ``n - 1`` data qubits plus one ancilla.
The oracle encodes a hidden bit-string ``s``; the algorithm recovers it
with a single query.  The paper evaluates bv-4, bv-9 and bv-16.
"""

from __future__ import annotations

from typing import Optional

from ..circuit import QuantumCircuit


def default_secret(num_data: int) -> str:
    """Deterministic alternating hidden string ``1010...`` of given width."""
    return "".join("1" if i % 2 == 0 else "0" for i in range(num_data))


def bernstein_vazirani(num_qubits: int,
                       secret: Optional[str] = None) -> QuantumCircuit:
    """Build the BV circuit on ``num_qubits`` wires (last wire = ancilla).

    Args:
        num_qubits: Total width (data + 1 ancilla); must be >= 2.
        secret: Hidden bit-string of length ``num_qubits - 1``; defaults
            to the alternating string so every size is deterministic.

    Returns:
        The standard H / oracle(CX) / H circuit.
    """
    if num_qubits < 2:
        raise ValueError("BV needs at least 2 qubits (1 data + ancilla)")
    num_data = num_qubits - 1
    if secret is None:
        secret = default_secret(num_data)
    if len(secret) != num_data or any(c not in "01" for c in secret):
        raise ValueError(f"secret must be a {num_data}-bit string, got {secret!r}")

    qc = QuantumCircuit(num_qubits, name=f"bv-{num_qubits}")
    ancilla = num_qubits - 1
    # Prepare |-> on the ancilla and |+> on the data register.
    qc.x(ancilla)
    qc.h(ancilla)
    for q in range(num_data):
        qc.h(q)
    # Oracle: CX from every secret bit into the ancilla.
    for q, bit in enumerate(secret):
        if bit == "1":
            qc.cx(q, ancilla)
    # Undo the Hadamards on the data register: the secret appears directly.
    for q in range(num_data):
        qc.h(q)
    return qc
