"""Program-fidelity estimation (Eq. 15 of the paper).

``F = prod_q (1 - eps_q) * prod_g (1 - eps_g) * prod_r (1 - eps_r)``

Only *actively engaged* components count (Sec. V-C): the qubits touched
by the mapped circuit and the resonators whose couplers carry two-qubit
gates.  Crosstalk terms apply to spatially violating pairs with at
least one active member; the exposure time is the circuit duration
(worst case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .. import constants
from ..circuits.mapping import MappedCircuit
from ..devices.layout import Layout
from .noise_model import NoiseParams, decoherence_error
from .violations import KIND_QQ, violation_columns


@dataclass
class FidelityBreakdown:
    """Program fidelity with its multiplicative factors.

    Attributes:
        total: Overall program fidelity ``F``.
        gate_factor: Product of (1 - gate error) over all timed gates.
        decoherence_factor: Product over active qubits of exp(-t Gamma).
        qubit_crosstalk_factor: Product over active qq violations.
        resonator_crosstalk_factor: Product over active rr violations.
        active_qubits: Number of active physical qubits.
        active_resonators: Number of active resonators.
        crosstalk_pairs: Number of active violating pairs contributing.
    """

    total: float
    gate_factor: float
    decoherence_factor: float
    qubit_crosstalk_factor: float
    resonator_crosstalk_factor: float
    active_qubits: int
    active_resonators: int
    crosstalk_pairs: int


@dataclass(frozen=True)
class ViolationTable:
    """Columnar view of a layout's spatial violations.

    Scoring many mappings against one layout evaluates the same
    violation list over and over; this table extracts the per-violation
    quantities once so each evaluation reduces to a handful of numpy
    operations instead of a Python loop over (violation, member) pairs.

    Attributes:
        i, j: Instance indices of each violating pair (``i < j``).
        qubit_i, qubit_j: Topology qubit index of each member when it is
            a qubit, else -1.
        res_i, res_j: Resonator index of each member when it is a
            segment, else -1.
        g_ghz: Parasitic coupling strength per violation.
        detuning_ghz: Frequency detuning per violation.
        is_qq: True for qubit-qubit violations.
        res_e0, res_e1: Endpoint columns of the netlist's resonators in
            their stored orientation (empty when the layout carries no
            netlist).
        res_index: Resonator index aligned with ``res_e0``/``res_e1``.
        gather_size: Minimum length of the activity gathers: one past
            every member and resonator index, plus a ``False`` slot that
            the ``-1`` of a non-member reads.
        amplitude, rate: The mapping-independent Eq. (16) terms
            ``4 g^2 / Omega^2`` and ``pi * Omega`` (``Omega^2 =
            Delta^2 + 4 g^2``), derived from ``g_ghz`` and
            ``detuning_ghz`` once, when the table is made.
    """

    i: np.ndarray
    j: np.ndarray
    qubit_i: np.ndarray
    qubit_j: np.ndarray
    res_i: np.ndarray
    res_j: np.ndarray
    g_ghz: np.ndarray
    detuning_ghz: np.ndarray
    is_qq: np.ndarray
    res_e0: np.ndarray
    res_e1: np.ndarray
    res_index: np.ndarray
    gather_size: int
    amplitude: np.ndarray = field(init=False)
    rate: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g, delta = self.g_ghz, self.detuning_ghz
        rabi2 = delta * delta + 4.0 * g * g
        object.__setattr__(self, "amplitude", np.divide(
            4.0 * g * g, rabi2, out=np.zeros_like(g), where=rabi2 > 0))
        object.__setattr__(self, "rate", np.pi * np.sqrt(rabi2))

    @classmethod
    def build(cls, layout: Layout,
              detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ
              ) -> "ViolationTable":
        """Scan ``layout``'s violations (:func:`violation_columns`)."""
        cols = violation_columns(layout, detuning_threshold_ghz)
        pairs = cols.pairs
        resonators = (layout.netlist.resonators
                      if layout.netlist is not None else [])
        res_cols = np.array([(r.endpoints[0], r.endpoints[1], r.index)
                             for r in resonators],
                            dtype=np.int64).reshape(-1, 3)
        top = max(int(pairs.qubit.max(initial=-1)),
                  int(pairs.resonator.max(initial=-1)),
                  int(res_cols[:, 2].max(initial=-1)))
        return cls(
            i=pairs.i, j=pairs.j,
            qubit_i=pairs.qubit[:, 0], qubit_j=pairs.qubit[:, 1],
            res_i=pairs.resonator[:, 0], res_j=pairs.resonator[:, 1],
            g_ghz=cols.g, detuning_ghz=cols.detuning,
            is_qq=cols.kind == KIND_QQ,
            res_e0=res_cols[:, 0], res_e1=res_cols[:, 1],
            res_index=res_cols[:, 2],
            gather_size=top + 2,
        )

    def __len__(self) -> int:
        return int(self.g_ghz.shape[0])

    def activity(self, qubit_mask: np.ndarray,
                 pair_keys: np.ndarray) -> Tuple[np.ndarray, int]:
        """Per-violation activity mask and the active-resonator count.

        ``qubit_mask`` and ``pair_keys`` are a mapping's
        :attr:`~repro.circuits.mapping.MappedCircuit.active_qubit_mask`
        and canonical ``lo * n + hi`` :attr:`~repro.circuits.mapping.
        MappedCircuit.active_pair_keys`, with ``n = len(qubit_mask)``.
        A resonator is active when its stored ``(e0, e1)`` is an active
        coupler: a non-canonical orientation, or an endpoint the
        mapping's ``n`` qubits cannot reach, never is.  A violation is
        active when at least one member is (Sec. V-C): errors in
        inactive elements do not compromise the program, but an active
        component resonantly coupled to an inactive neighbour still
        leaks its excitation into it.

        Both gathers carry a ``False`` slot past every index, so the
        ``-1`` of a non-qubit / non-resonator member and a layout qubit
        beyond the mapping's topology read inactive.
        """
        n = qubit_mask.shape[0]
        keys = np.where((self.res_e0 < n) & (self.res_e1 < n),
                        self.res_e0 * n + self.res_e1, -1)
        # Membership by binary search in the sorted unique pair keys;
        # the -2 slot past the end matches no key, not even the -1.
        at = np.searchsorted(pair_keys, keys)
        member = np.append(pair_keys, -2)[at] == keys
        res_mask = np.zeros(self.gather_size, dtype=bool)
        res_mask[self.res_index[member]] = True
        qm = np.zeros(max(n + 1, self.gather_size), dtype=bool)
        qm[:n] = qubit_mask
        active = (qm[self.qubit_i] | qm[self.qubit_j]
                  | res_mask[self.res_i] | res_mask[self.res_j])
        return active, int(res_mask.sum())

    def crosstalk_errors(self, duration_ns: float,
                         rows: Union[slice, np.ndarray] = slice(None)
                         ) -> np.ndarray:
        """Worst-case swap probability per violation (Eq. 16), vectorized.

        Identical to calling :func:`~repro.crosstalk.noise_model.
        crosstalk_error` per violation with the bare ``g`` and the pair
        detuning: only the exposure ``rate * duration``, the clipped
        sine and the product depend on the mapping.  ``rows`` selects
        the violations (all by default); each element goes through the
        same arithmetic either way.
        """
        phase = self.rate[rows] * duration_ns
        return (self.amplitude[rows]
                * np.sin(np.minimum(phase, np.pi / 2.0)) ** 2)


def estimate_program_fidelity(layout: Layout, mapped: MappedCircuit,
                              params: NoiseParams = NoiseParams(),
                              violations: Optional[ViolationTable] = None
                              ) -> FidelityBreakdown:
    """Evaluate Eq. (15) for one mapped benchmark on one layout.

    Args:
        layout: The physical layout being scored.
        mapped: A benchmark compiled onto the layout's topology.
        params: Noise-model parameters.
        violations: A prebuilt :class:`ViolationTable` of ``layout``,
            when scoring many mappings against one layout (scanned here
            when omitted).
    """
    table = violations
    if table is None:
        table = ViolationTable.build(
            layout, detuning_threshold_ghz=params.detuning_threshold_ghz)

    duration = mapped.duration_ns

    # --- active components ------------------------------------------------
    qubit_mask = mapped.active_qubit_mask
    active, num_active_resonators = table.activity(qubit_mask,
                                                   mapped.active_pair_keys)
    num_active_qubits = int(qubit_mask.sum())

    # --- gate errors -----------------------------------------------------
    n_single, n_two = mapped.timed_gate_totals()
    gate_factor = ((1.0 - params.single_qubit_gate_error) ** n_single
                   * (1.0 - params.two_qubit_gate_error) ** n_two)

    # --- decoherence over the full duration for every active qubit --------
    eps_dec = decoherence_error(duration, params)
    decoherence_factor = (1.0 - eps_dec) ** num_active_qubits

    # --- crosstalk on violating active pairs ------------------------------
    # Errors only for the active violations: the products run over the
    # same compressed sequences, in index order, as masking all of them.
    qq_factor = 1.0
    rr_factor = 1.0
    rows = np.flatnonzero(active)
    pair_count = rows.shape[0]
    if pair_count:
        eps = table.crosstalk_errors(duration, rows)
        qq = table.is_qq[rows]
        qq_factor = float(np.prod(1.0 - eps[qq]))
        rr_factor = float(np.prod(1.0 - eps[~qq]))

    total = gate_factor * decoherence_factor * qq_factor * rr_factor
    return FidelityBreakdown(
        total=total,
        gate_factor=gate_factor,
        decoherence_factor=decoherence_factor,
        qubit_crosstalk_factor=qq_factor,
        resonator_crosstalk_factor=rr_factor,
        active_qubits=num_active_qubits,
        active_resonators=num_active_resonators,
        crosstalk_pairs=pair_count,
    )


def average_program_fidelity(layout: Layout,
                             mappings: Sequence[MappedCircuit],
                             params: NoiseParams = NoiseParams()) -> float:
    """Mean fidelity across an evaluation-mapping set (Fig. 11 bars)."""
    if not mappings:
        raise ValueError("need at least one mapping")
    table = ViolationTable.build(
        layout, detuning_threshold_ghz=params.detuning_threshold_ghz)
    total = 0.0
    for mapped in mappings:
        total += estimate_program_fidelity(
            layout, mapped, params, violations=table).total
    return total / len(mappings)
