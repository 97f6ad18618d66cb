"""Batched transpilation: array-based circuits and vectorized passes.

The legacy transpiler (:mod:`repro.circuits.transpile`) walks Python
``Gate`` objects one at a time — fine for the paper's 16-qubit Table I
circuits, but the dominant cost once condor-class workloads push routed
circuits past 10^5 gates.  This module re-implements the same pipeline
over *column arrays* (gate-code / qubit / parameter vectors):

* :class:`ArrayCircuit` — a columnar circuit representation convertible
  to and from :class:`~repro.circuits.circuit.QuantumCircuit`;
* :class:`FrozenArrayCircuit` — its immutable, hashable variant with a
  cached canonical content digest (the Cirq ``FrozenCircuit`` idiom),
  which is what makes circuits content-addressed artifacts in the
  runner cache and the service store;
* :func:`lower_to_basis_arrays` — one-shot template expansion of every
  IR gate into its full basis decomposition (``np.repeat`` + table
  lookup, no per-gate recursion);
* :func:`merge_rz_arrays` — the rz-merging peephole as a grouped
  segment reduction over per-qubit runs; angles reduce mod 2pi through
  an exact in-range fast path, and only the merged rz rows are sorted
  before being spliced into the kept gates;
* :func:`lower_to_merged_basis_arrays` — lowering fused with the first
  rz merge: merge groups are found on the IR circuit's stream
  incidences through static per-template slot programs, so the lowered
  circuit is never built or sorted;
* :func:`cancel_pairs_arrays` — the self-inverse cancellation pass as a
  vectorized candidate scan plus an exact automaton that reads and
  writes only the (usually tiny) candidate subset;
* :func:`transpile_batched` — drop-in equivalent of
  :func:`repro.circuits.transpile.transpile`.

Equivalence contract: for barrier-free circuits the batched pipeline
produces the **same gate sequence** as the legacy one (pinned by
``tests/properties/test_workload_props.py`` and
``tests/circuits/test_batch.py``), so gate counts, depth, schedules and
therefore every downstream fidelity number are bit-identical.  Circuits
containing barriers are rejected with ``ValueError``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

import numpy as np

from .. import constants, profiling
from .circuit import QuantumCircuit, Schedule
from .gates import Gate

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2

# -- gate codes ----------------------------------------------------------------

#: Integer codes of the array representation (basis gates first).
RZ, SX, X, CZ, H, CX, RX, RY, RZZ, SWAP = range(10)

#: Gate name -> integer code.
CODE_OF: Dict[str, int] = {
    "rz": RZ, "sx": SX, "x": X, "cz": CZ, "h": H,
    "cx": CX, "rx": RX, "ry": RY, "rzz": RZZ, "swap": SWAP,
}

#: Integer code -> gate name.
NAME_OF: Tuple[str, ...] = (
    "rz", "sx", "x", "cz", "h", "cx", "rx", "ry", "rzz", "swap")

#: Codes of gates that act on two qubits.
TWO_QUBIT_CODES = frozenset({CZ, CX, RZZ, SWAP})

#: Codes that carry one rotation parameter.
PARAMETRIC_CODES = frozenset({RZ, RX, RY, RZZ})


@dataclass
class ArrayCircuit:
    """A circuit as parallel column arrays.

    Attributes:
        num_qubits: Number of wires.
        codes: Gate code per gate (:data:`CODE_OF` values), int64.
        q0: First qubit index per gate, int64.
        q1: Second qubit index per gate (``-1`` for one-qubit gates).
        params: Rotation angle per gate (``0.0`` for non-parametric).
        name: Circuit name carried through the passes.
    """

    num_qubits: int
    codes: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    params: np.ndarray
    name: str = "circuit"

    @property
    def size(self) -> int:
        """Total gate count."""
        return int(self.codes.shape[0])

    @classmethod
    def empty(cls, num_qubits: int, name: str = "circuit") -> "ArrayCircuit":
        """A zero-gate circuit (useful as an accumulator seed)."""
        return cls(num_qubits=num_qubits,
                   codes=np.empty(0, dtype=np.int64),
                   q0=np.empty(0, dtype=np.int64),
                   q1=np.empty(0, dtype=np.int64),
                   params=np.empty(0, dtype=np.float64),
                   name=name)

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "ArrayCircuit":
        """Encode a ``QuantumCircuit``.

        Raises:
            ValueError: if the circuit contains barriers (the columnar
                layout has no multi-qubit rows).
        """
        n = len(circuit.gates)
        codes = np.empty(n, dtype=np.int64)
        q0 = np.empty(n, dtype=np.int64)
        q1 = np.full(n, -1, dtype=np.int64)
        params = np.zeros(n, dtype=np.float64)
        for i, gate in enumerate(circuit.gates):
            code = CODE_OF.get(gate.name)
            if code is None:
                raise ValueError(f"gate {gate.name!r} not supported by "
                                 "the batched engine")
            codes[i] = code
            q0[i] = gate.qubits[0]
            if len(gate.qubits) == 2:
                q1[i] = gate.qubits[1]
            if gate.params:
                params[i] = gate.params[0]
        return cls(num_qubits=circuit.num_qubits, codes=codes, q0=q0, q1=q1,
                   params=params, name=circuit.name)

    def to_circuit(self) -> QuantumCircuit:
        """Decode back to a ``QuantumCircuit``.

        Rows are deduplicated first (sort-based ``np.unique``), so one
        ``Gate`` is allocated per distinct (code, qubits, param) triple
        and the gate list is assembled by index lookup — basis circuits
        repeat a small vocabulary of rotations over a bounded qubit
        set.  The assembly bypasses ``QuantumCircuit.append``
        validation: every row came from an already-validated gate.
        """
        out = QuantumCircuit(self.num_qubits, name=self.name)
        n = self.size
        if n == 0:
            return out
        # Collision-free packed key: 4 bits of code, 21 bits per qubit
        # index (quantum devices stay far below 2^21 qubits), with the
        # param bits as a lexsort tie-breaker.
        packed = (self.codes << 42) | ((self.q0 + 1) << 21) | (self.q1 + 1)
        param_bits = self.params.view(np.int64)
        order = np.lexsort((param_bits, packed))
        packed_sorted = packed[order]
        param_sorted = param_bits[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = ((packed_sorted[1:] != packed_sorted[:-1])
                     | (param_sorted[1:] != param_sorted[:-1]))
        uid = np.empty(n, dtype=np.int64)
        uid[order] = np.cumsum(first) - 1
        representatives = order[first]
        vocabulary = []
        for i in representatives.tolist():
            code = int(self.codes[i])
            a, b = int(self.q0[i]), int(self.q1[i])
            qubits = (a,) if b < 0 else (a, b)
            gate_params = ((float(self.params[i]),)
                          if code in PARAMETRIC_CODES else ())
            vocabulary.append(Gate(NAME_OF[code], qubits, gate_params))
        out.gates = [vocabulary[k] for k in uid.tolist()]
        return out

    def asap_schedule(self,
                      single_qubit_ns: float = constants.SINGLE_QUBIT_GATE_NS,
                      two_qubit_ns: float = constants.TWO_QUBIT_GATE_NS
                      ) -> Schedule:
        """ASAP schedule straight from the columns (no ``Gate`` decode).

        Bit-identical to ``self.to_circuit().asap_schedule(...)``: the
        recurrence (start = max of the operands' ready times, ready =
        start + duration) runs in the same gate order with the same
        float additions.  Virtual rz rows are skipped outright — a zero
        duration never changes a ready or busy value — and the
        per-qubit state lives in flat lists instead of dicts, which is
        what makes the mapped pipeline's scheduling step cheap at
        condor scale.
        """
        ready = [0.0] * self.num_qubits
        busy = [0.0] * self.num_qubits
        used = np.zeros(self.num_qubits, dtype=bool)
        used[self.q0] = True
        two = self.q1 >= 0
        used[self.q1[two]] = True
        # Virtual rz rows never move a ready or busy value, so the
        # recurrence loop only visits timed rows (they still mark their
        # qubit used above, like the per-gate scan they replace).
        timed = two | (self.codes != RZ)
        q0 = self.q0[timed].tolist()
        q1 = self.q1[timed].tolist()
        for i in range(len(q0)):
            a = q0[i]
            b = q1[i]
            if b >= 0:
                ra = ready[a]
                rb = ready[b]
                t = (ra if ra >= rb else rb) + two_qubit_ns
                ready[a] = t
                ready[b] = t
                busy[a] += two_qubit_ns
                busy[b] += two_qubit_ns
            else:
                ready[a] += single_qubit_ns
                busy[a] += single_qubit_ns
        total = 0.0
        used_list = used.tolist()
        for q in range(self.num_qubits):
            if used_list[q] and ready[q] > total:
                total = ready[q]
        return Schedule(total_ns=total,
                        busy_ns={q: busy[q] for q in range(self.num_qubits)
                                 if used_list[q]})

    # -- gate statistics (bincount over columns) ----------------------------
    #
    # Column restatements of the ``QuantumCircuit`` per-gate scans, so
    # fidelity-model consumers of a mapped circuit never materialise
    # ``Gate`` lists (ROADMAP open item).  Each is value-identical to
    # the loop version on the decoded circuit (barrier-free by
    # construction), pinned by ``tests/circuits/test_gate_counts.py``.

    def used_qubit_mask(self) -> np.ndarray:
        """Boolean column (length ``num_qubits``): qubit touched by a gate.

        ``mask.nonzero()`` equals :meth:`used_qubits` — fidelity-model
        consumers gather against the mask directly instead of building
        Python sets.
        """
        touched = np.zeros(self.num_qubits, dtype=bool)
        touched[self.q0] = True
        touched[self.q1[self.q1 >= 0]] = True
        return touched

    def used_pair_keys(self) -> np.ndarray:
        """Sorted unique ``lo * num_qubits + hi`` keys of touched pairs.

        The packed-integer form of :meth:`used_pairs`, suitable for
        ``np.isin`` against precomputed edge/resonator key columns.
        """
        two = self.q1 >= 0
        a = self.q0[two]
        b = self.q1[two]
        return np.unique(np.minimum(a, b) * self.num_qubits
                         + np.maximum(a, b))

    def used_qubits(self) -> Set[int]:
        """Qubits touched by at least one gate (= active qubits)."""
        return set(np.nonzero(self.used_qubit_mask())[0].tolist())

    def used_pairs(self) -> Set[Tuple[int, int]]:
        """Canonical ``(lo, hi)`` pairs touched by two-qubit gates."""
        n = self.num_qubits
        return {(int(k) // n, int(k) % n)
                for k in self.used_pair_keys().tolist()}

    def two_qubit_counts(self) -> Dict[Tuple[int, int], int]:
        """Number of two-qubit gates per canonical qubit pair."""
        two = self.q1 >= 0
        a = self.q0[two]
        b = self.q1[two]
        keys, counts = np.unique(np.minimum(a, b) * self.num_qubits
                                 + np.maximum(a, b), return_counts=True)
        n = self.num_qubits
        return {(int(k) // n, int(k) % n): int(c)
                for k, c in zip(keys.tolist(), counts.tolist())}

    def single_qubit_counts(self) -> Dict[int, int]:
        """Timed single-qubit gates (sx/x) per qubit; virtual rz excluded."""
        timed = (self.codes == SX) | (self.codes == X)
        counts = np.bincount(self.q0[timed], minlength=self.num_qubits)
        return {q: int(c) for q, c in enumerate(counts.tolist()) if c}

    def timed_gate_totals(self) -> Tuple[int, int]:
        """``(timed single-qubit gates, two-qubit gates)`` in one pass.

        Exactly ``(sum(single_qubit_counts().values()),
        sum(two_qubit_counts().values()))`` — the quantities the gate
        factor of Eq. 15 needs.
        """
        timed = (self.codes == SX) | (self.codes == X)
        return int(timed.sum()), int((self.q1 >= 0).sum())

    def gate_counts_per_qubit(self) -> Dict[int, Counter]:
        """Per-qubit histogram of gate names (both qubits of 2q gates)."""
        ncodes = len(NAME_OF)
        two = self.q1 >= 0
        keys, counts = np.unique(
            np.concatenate((self.q0 * ncodes + self.codes,
                            self.q1[two] * ncodes + self.codes[two])),
            return_counts=True)
        out: Dict[int, Counter] = {}
        for k, c in zip(keys.tolist(), counts.tolist()):
            out.setdefault(k // ncodes, Counter())[NAME_OF[k % ncodes]] = c
        return out

    def freeze(self) -> "FrozenArrayCircuit":
        """An immutable, content-addressed snapshot of this circuit.

        Columns are copied and locked, so later mutation of this
        (mutable) circuit never leaks into the frozen snapshot.
        """
        if isinstance(self, FrozenArrayCircuit):
            return self
        return FrozenArrayCircuit(self.num_qubits, self.codes, self.q0,
                                  self.q1, self.params, self.name)


def _frozen_column(values: Any, dtype: type) -> np.ndarray:
    """A locked private copy of one column array."""
    column = np.array(values, dtype=dtype, copy=True)
    column.setflags(write=False)
    return column


class FrozenArrayCircuit(ArrayCircuit):
    """An immutable, hashable, content-addressed :class:`ArrayCircuit`.

    The Cirq ``FrozenCircuit`` idiom applied to the columnar layout:

    * the column arrays are private read-only copies and attribute
      assignment raises, so instances are safe dictionary keys and
      cache tokens;
    * ``__hash__`` is computed once and cached;
    * :attr:`content_digest` is a canonical sha256 over the circuit
      *content* (``num_qubits`` plus the four columns, via the
      :func:`repro.io.serialization.circuit_content` canonical-JSON
      document).  The ``name`` is deliberately **excluded** — it is a
      label, not content — and ``__eq__`` matches: two frozen circuits
      with identical columns but different names are equal and share a
      digest, which is exactly what lets differently-named aliases of
      one workload suite share a single compiled artifact fleet-wide.

    All read-only behaviour (stats, scheduling, decode) is inherited
    unchanged; :meth:`thaw` returns a mutable copy.
    """

    def __init__(self, num_qubits: int, codes: Any, q0: Any, q1: Any,
                 params: Any, name: str = "circuit") -> None:
        d = self.__dict__
        d["num_qubits"] = int(num_qubits)
        d["codes"] = _frozen_column(codes, np.int64)
        d["q0"] = _frozen_column(q0, np.int64)
        d["q1"] = _frozen_column(q1, np.int64)
        d["params"] = _frozen_column(params, np.float64)
        d["name"] = str(name)
        d["_digest"] = None
        d["_hash"] = None

    def __setattr__(self, attr: str, value: Any) -> None:
        raise AttributeError(
            f"FrozenArrayCircuit is immutable (cannot set {attr!r}); "
            f"thaw() first")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(
            f"FrozenArrayCircuit is immutable (cannot delete {attr!r}); "
            f"thaw() first")

    def __reduce__(self):
        # Re-run __init__ on unpickle so the columns come back locked.
        return (FrozenArrayCircuit,
                (self.num_qubits, self.codes, self.q0, self.q1,
                 self.params, self.name))

    @property
    def content_digest(self) -> str:
        """Cached canonical sha256 content digest (name excluded)."""
        if self.__dict__["_digest"] is None:
            from ..io.serialization import circuit_content_digest
            self.__dict__["_digest"] = circuit_content_digest(self)
        return self.__dict__["_digest"]

    def __hash__(self) -> int:
        if self.__dict__["_hash"] is None:
            self.__dict__["_hash"] = hash(
                (self.num_qubits, self.content_digest))
        return self.__dict__["_hash"]

    def __eq__(self, other: Any) -> Any:
        if not isinstance(other, ArrayCircuit):
            return NotImplemented
        # Content equality, bit-exact on params (matches the digest
        # granularity: -0.0 != 0.0, NaN == NaN) and name-blind.
        return (self.num_qubits == other.num_qubits
                and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.q0, other.q0)
                and np.array_equal(self.q1, other.q1)
                and self.params.shape == other.params.shape
                and self.params.tobytes() == other.params.tobytes())

    def thaw(self) -> ArrayCircuit:
        """A mutable copy with freshly writable columns."""
        return ArrayCircuit(num_qubits=self.num_qubits,
                            codes=self.codes.copy(), q0=self.q0.copy(),
                            q1=self.q1.copy(), params=self.params.copy(),
                            name=self.name)


# -- lowering templates --------------------------------------------------------
#
# Each IR gate expands into a fixed sequence of basis gates; the tables
# below flatten the recursive decompositions of transpile._lower_gate in
# depth-first order, so template expansion reproduces the legacy stack
# walk gate for gate.  A template entry is
# (code, q0_slot, q1_slot, param_mult, param_const):
# output qubit = source gate's qubit at the slot (slot -1 = absent) and
# output param = param_mult * source_param + param_const.

_Entry = Tuple[int, int, int, float, float]

_H_TMPL: List[_Entry] = [
    (RZ, 0, -1, 0.0, _HALF_PI), (SX, 0, -1, 0.0, 0.0),
    (RZ, 0, -1, 0.0, _HALF_PI),
]
#: rx(t) -> h rz(t) h
_RX_TMPL: List[_Entry] = (
    _H_TMPL + [(RZ, 0, -1, 1.0, 0.0)] + _H_TMPL)
#: ry(t) -> rz(-pi/2) rx(t) rz(pi/2)
_RY_TMPL: List[_Entry] = (
    [(RZ, 0, -1, 0.0, -_HALF_PI)] + _RX_TMPL + [(RZ, 0, -1, 0.0, _HALF_PI)])


def _on_slot(template: List[_Entry], a_slot: int, b_slot: int) -> List[_Entry]:
    """Re-target a template's qubit slots (for cx/swap orientation)."""
    remap = {0: a_slot, 1: b_slot, -1: -1}
    return [(code, remap[qa], remap[qb], mult, const)
            for code, qa, qb, mult, const in template]


#: cx(c=slot0, t=slot1) -> h(t) cz(c,t) h(t)
_CX_TMPL: List[_Entry] = (
    _on_slot(_H_TMPL, 1, -1) + [(CZ, 0, 1, 0.0, 0.0)]
    + _on_slot(_H_TMPL, 1, -1))
#: rzz(a,b,t) -> cx(a,b) rz(b,t) cx(a,b)
_RZZ_TMPL: List[_Entry] = (
    _CX_TMPL + [(RZ, 1, -1, 1.0, 0.0)] + _CX_TMPL)
#: swap(a,b) -> cx(a,b) cx(b,a) cx(a,b)
_SWAP_TMPL: List[_Entry] = (
    _CX_TMPL + _on_slot(_CX_TMPL, 1, 0) + _CX_TMPL)

_TEMPLATES: Dict[int, List[_Entry]] = {
    RZ: [(RZ, 0, -1, 1.0, 0.0)],
    SX: [(SX, 0, -1, 0.0, 0.0)],
    X: [(X, 0, -1, 0.0, 0.0)],
    CZ: [(CZ, 0, 1, 0.0, 0.0)],
    H: _H_TMPL,
    CX: _CX_TMPL,
    RX: _RX_TMPL,
    RY: _RY_TMPL,
    RZZ: _RZZ_TMPL,
    SWAP: _SWAP_TMPL,
}

# Flat template tables: entry ``code * _MAX_TMPL + k`` is step ``k`` of
# gate ``code``'s template.  Qubit slots index a gate's
# ``(q0, q1, -1)`` triple, so slot 2 stands for an absent qubit.
_MAX_TMPL = max(len(t) for t in _TEMPLATES.values())
_T_LEN = np.zeros(len(_TEMPLATES), dtype=np.int64)
_T_CODE = np.zeros(len(_TEMPLATES) * _MAX_TMPL, dtype=np.int64)
_T_ASLOT = np.zeros(len(_TEMPLATES) * _MAX_TMPL, dtype=np.int64)
_T_BSLOT = np.full(len(_TEMPLATES) * _MAX_TMPL, 2, dtype=np.int64)
_T_MULT = np.zeros(len(_TEMPLATES) * _MAX_TMPL, dtype=np.float64)
_T_CONST = np.zeros(len(_TEMPLATES) * _MAX_TMPL, dtype=np.float64)
for _code, _tmpl in _TEMPLATES.items():
    _T_LEN[_code] = len(_tmpl)
    for _k, (_c, _qa, _qb, _mult, _const) in enumerate(_tmpl):
        _e = _code * _MAX_TMPL + _k
        _T_CODE[_e] = _c
        _T_ASLOT[_e] = _qa
        _T_BSLOT[_e] = 2 if _qb < 0 else _qb
        _T_MULT[_e] = _mult
        _T_CONST[_e] = _const


def lower_to_basis_arrays(circuit: ArrayCircuit) -> ArrayCircuit:
    """Expand every gate to the native basis in one vectorized pass.

    Each output row gathers its template entry from the flat tables
    and its qubits from the source gate's ``(q0, q1, -1)`` triple, all
    with 1-D indexing; the param is ``mult * source_param + const`` as
    in the template.
    """
    codes = circuit.codes
    lengths = _T_LEN[codes]
    starts = np.cumsum(lengths) - lengths
    src = np.repeat(np.arange(codes.shape[0]), lengths)
    entry = (np.arange(src.shape[0])
             + np.repeat(codes * _MAX_TMPL - starts, lengths))
    qubits = np.stack((circuit.q0, circuit.q1,
                       np.full(codes.shape[0], -1, dtype=np.int64)),
                      axis=1).ravel()
    triple = 3 * src
    return ArrayCircuit(num_qubits=circuit.num_qubits,
                        codes=_T_CODE[entry],
                        q0=qubits[triple + _T_ASLOT[entry]],
                        q1=qubits[triple + _T_BSLOT[entry]],
                        params=(_T_MULT[entry] * circuit.params[src]
                                + _T_CONST[entry]),
                        name=circuit.name)


# -- rz merging ---------------------------------------------------------------

def _stream_incidence(circuit: ArrayCircuit
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-qubit gate streams as a sorted incidence list.

    One row per (gate, qubit) touch, sorted by (qubit, gate index):
    consecutive rows with equal qubit are stream-adjacent gates.
    Returns ``(gate_index, qubit, slot)`` columns, where slot is the
    qubit's position in the gate's qubit tuple as a bool (True for the
    second qubit of a two-qubit gate).

    One argsort of the packed key ``qubit * n + gate`` gives that
    order: a gate's two qubits differ, so the keys are distinct, and
    the slot-1 touches are the ones listed after the first ``n``.
    """
    n = circuit.codes.shape[0]
    second = np.nonzero(circuit.q1 >= 0)[0]
    inc_gate = np.concatenate((np.arange(n), second))
    inc_qubit = np.concatenate((circuit.q0, circuit.q1[second]))
    order = np.argsort(inc_qubit * n + inc_gate)
    return inc_gate[order], inc_qubit[order], order >= n


def _remainder_2pi(values: np.ndarray) -> np.ndarray:
    """``[math.remainder(v, 2*pi) for v in values]``, byte for byte.

    IEEE remainder returns ``v`` itself whenever ``|v| <= pi`` (the
    nearest multiple of ``2*pi`` is 0, ties going to the even one),
    sign of zero included.  Only the rest (and NaN, which fails the
    test) take the scalar call, which also keeps its ``ValueError`` on
    infinities.
    """
    out = values.copy()
    outside = np.nonzero(~(np.abs(values) <= _TWO_PI / 2))[0]
    if outside.shape[0]:
        out[outside] = [math.remainder(v, _TWO_PI)
                        for v in values[outside].tolist()]
    return out


def merge_rz_arrays(circuit: ArrayCircuit) -> ArrayCircuit:
    """Merge consecutive per-qubit rz rotations; drop angles = 0 (mod 2pi).

    Vectorized restatement of :func:`repro.circuits.transpile.merge_rz`:
    every rz belongs to the group flushed by the next non-rz gate that
    touches its qubit (or the end of the circuit).  Groups are maximal
    runs of rz rows in the qubit-sorted incidence list; the row right
    after a run flushes it when it is on the same qubit.  Angle sums
    fold left-to-right exactly like the legacy accumulation, and the
    mod-2pi reduction is :func:`_remainder_2pi`, so the float results
    are bit-identical.

    Output order: the non-rz gates keep their relative order, each
    merged rz sits just before its flushing gate (slot 0 before slot
    1), and end-of-circuit rz's follow every gate in qubit order.  Only
    the merged rz rows are sorted; they are then spliced into the kept
    gates with ``searchsorted``.
    """
    codes = circuit.codes
    rz_mask = codes == RZ
    if not rz_mask.any():
        return circuit
    n = codes.shape[0]

    g, qb, sl = _stream_incidence(circuit)
    m = g.shape[0]
    rz_pos = np.nonzero(rz_mask[g])[0]
    r = rz_pos.shape[0]
    rz_qubit = qb[rz_pos]
    starts_mask = np.empty(r, dtype=bool)
    starts_mask[0] = True
    starts_mask[1:] = ((rz_pos[1:] != rz_pos[:-1] + 1)
                       | (rz_qubit[1:] != rz_qubit[:-1]))
    starts = np.nonzero(starts_mask)[0]
    bounds = np.append(starts, r)
    # Per-group left-to-right fold (NOT reduceat: pairwise summation
    # would round differently than the legacy accumulation).  One
    # vector step per in-group position keeps it exact and fast.
    rz_params = circuit.params[g[rz_pos]]
    lens = np.diff(bounds)
    sums = rz_params[starts].copy()
    for step in range(1, int(lens.max())):
        sel = lens > step
        sums[sel] = sums[sel] + rz_params[starts[sel] + step]
    angles = _remainder_2pi(sums)
    keep = np.abs(angles) > 1e-12
    grp_qubit = rz_qubit[starts][keep]
    grp_angle = angles[keep]
    after = rz_pos[bounds[1:] - 1][keep] + 1
    after_row = np.minimum(after, m - 1)
    flushed = (after < m) & (qb[after_row] == grp_qubit)
    # Sort keys: before the flushing gate (j, slot); end flushes
    # after every gate (primary n), ordered by qubit.  Both are
    # unique per group, so one packed key orders the new rz rows.
    rz_primary = np.where(flushed, g[after_row], n)
    rz_secondary = np.where(flushed, sl[after_row], grp_qubit)
    span = max(circuit.num_qubits, 2)
    order = np.argsort(rz_primary * span + rz_secondary)
    grp_qubit = grp_qubit[order]
    grp_angle = grp_angle[order]
    rz_primary = rz_primary[order]

    # Splice: kept gates stay in order, and each rz row lands just
    # before its flushing gate (or after every gate for end flushes).
    keep_gates = np.nonzero(~rz_mask)[0]
    size = keep_gates.shape[0] + grp_qubit.shape[0]
    rz_at = (np.searchsorted(keep_gates, rz_primary)
             + np.arange(grp_qubit.shape[0]))
    gate_at = np.ones(size, dtype=bool)
    gate_at[rz_at] = False
    out_codes = np.full(size, RZ, dtype=np.int64)
    out_q0 = np.empty(size, dtype=np.int64)
    out_q1 = np.full(size, -1, dtype=np.int64)
    out_params = np.empty(size, dtype=np.float64)
    out_codes[gate_at] = codes[keep_gates]
    out_q0[gate_at] = circuit.q0[keep_gates]
    out_q0[rz_at] = grp_qubit
    out_q1[gate_at] = circuit.q1[keep_gates]
    out_params[gate_at] = circuit.params[keep_gates]
    out_params[rz_at] = grp_angle
    return ArrayCircuit(num_qubits=circuit.num_qubits, codes=out_codes,
                        q0=out_q0, q1=out_q1, params=out_params,
                        name=circuit.name)


# -- fused lowering + first rz merge -------------------------------------------
#
# Along one of its qubits, an IR gate's template reads as a *slot
# program*: the template steps touching that slot, in order.  Its rz
# steps fall into a leading run (before the first non-rz step),
# internal runs (each flushed by the non-rz step after it) and a
# trailing run; the IR ``rz`` is a slot program made only of rz.
# Every merge group of the lowered circuit is therefore either an
# internal run of one gate, or a *boundary* group: the trailing run of
# a gate, the IR rz's after it on that qubit, and the leading run of
# the next gate, which flushes it (or the end of the circuit does).
#
# Per IR code, the *merged template* lists the output items of one
# gate in order: its non-rz template steps, each preceded by the
# groups it flushes (slot 0 of the flushing row before slot 1).  A
# group item is an internal run or the incoming boundary group of a
# slot.  Non-rz steps carry ``0 * theta + const``, which is ``const``
# for every finite angle; so is a *static* run, one rz of constant
# angle in ``(1e-12, pi]`` that the reduction mod 2pi leaves as it is
# and the keep test keeps.  Items of gates with a non-finite angle, the
# other internal runs and the boundary groups are folded at run time.

_N_PROG = 2 * len(_TEMPLATES) + 1          # (code, slot) pairs + "none"
_NO_PROG = _N_PROG - 1
_P_PURE = np.zeros(_N_PROG, dtype=bool)
_P_ITEM = np.full(_N_PROG, -1, dtype=np.int64)
_P_LEAD: List[List[Tuple[float, float]]] = [[] for _ in range(_N_PROG)]
_P_TRAIL: List[List[Tuple[float, float]]] = [[] for _ in range(_N_PROG)]
_M_ITEMS: Dict[int, List[_Entry]] = {}
#: (code, merged-template offset, fold steps) of the internal runs
#: that are not static.
_RUNS: List[Tuple[int, int, List[Tuple[float, float]]]] = []
for _code, _tmpl in _TEMPLATES.items():
    _slots = (0, 1) if _code in TWO_QUBIT_CODES else (0,)
    _flushes: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for _s in _slots:
        _prog = 2 * _code + _s
        _steps = [k for k, e in enumerate(_tmpl) if _s in e[1:3]]
        _fold = [_tmpl[k][3:] for k in _steps]
        _timed = [i for i, k in enumerate(_steps) if _tmpl[k][0] != RZ]
        if not _timed:
            assert _fold == [(1.0, 0.0)], "a pure slot program is one rz"
            _P_PURE[_prog] = True
            continue
        _P_LEAD[_prog] = _fold[:_timed[0]]
        _P_TRAIL[_prog] = _fold[_timed[-1] + 1:]
        _flushes[(_steps[_timed[0]], _s)] = []
        for _a, _b in zip(_timed, _timed[1:]):
            if _b > _a + 1:
                _flushes[(_steps[_b], _s)] = _fold[_a + 1:_b]
    _items: List[_Entry] = []
    for _k, (_c, _qa, _qb, _mult, _const) in enumerate(_tmpl):
        if _c == RZ:
            continue
        for _s in (_qa, _qb):
            _run = _flushes.get((_k, _s))
            if _run is None:
                continue
            if not _run:
                _P_ITEM[2 * _code + _s] = len(_items)
                _items.append((RZ, _s, -1, 0.0, 0.0))
            elif (len(_run) == 1 and _run[0][0] == 0.0
                  and 1e-12 < abs(_run[0][1]) <= _TWO_PI / 2):
                _items.append((RZ, _s, -1) + _run[0])
            else:
                _RUNS.append((_code, len(_items), _run))
                _items.append((RZ, _s, -1, 0.0, 0.0))
        assert _mult == 0.0, "non-rz steps carry no angle"
        _items.append((_c, _qa, _qb, _mult, _const))
    _M_ITEMS[_code] = _items


def _step_table(runs: List[List[Tuple[float, float]]]
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad per-program rz runs into ``(length, mult, const)`` tables."""
    width = max(1, max(len(r) for r in runs))
    length = np.array([len(r) for r in runs], dtype=np.int64)
    mult = np.zeros((len(runs), width), dtype=np.float64)
    const = np.zeros((len(runs), width), dtype=np.float64)
    for p, run in enumerate(runs):
        for t, (mu, c) in enumerate(run):
            mult[p, t] = mu
            const[p, t] = c
    return length, mult, const


_LEAD_N, _LEAD_MULT, _LEAD_CONST = _step_table(_P_LEAD)
_TRAIL_N, _TRAIL_MULT, _TRAIL_CONST = _step_table(_P_TRAIL)
_PURE_MULT, _PURE_CONST = _T_MULT[RZ * _MAX_TMPL], _T_CONST[RZ * _MAX_TMPL]

_MAX_ITEMS = max(len(t) for t in _M_ITEMS.values())
_M_LEN = np.zeros(len(_TEMPLATES), dtype=np.int64)
_M_CODE = np.zeros(len(_TEMPLATES) * _MAX_ITEMS, dtype=np.int64)
_M_ASLOT = np.zeros(len(_TEMPLATES) * _MAX_ITEMS, dtype=np.int64)
_M_BSLOT = np.full(len(_TEMPLATES) * _MAX_ITEMS, 2, dtype=np.int64)
_M_CONST = np.zeros(len(_TEMPLATES) * _MAX_ITEMS, dtype=np.float64)
_M_GROUP = np.zeros(len(_TEMPLATES) * _MAX_ITEMS, dtype=bool)
_M_TWO = np.zeros(len(_TEMPLATES) * _MAX_ITEMS, dtype=bool)
for _code, _items in _M_ITEMS.items():
    _M_LEN[_code] = len(_items)
    for _k, (_c, _qa, _qb, _mult, _const) in enumerate(_items):
        _e = _code * _MAX_ITEMS + _k
        _M_CODE[_e] = _c
        _M_ASLOT[_e] = _qa
        _M_BSLOT[_e] = 2 if _qb < 0 else _qb
        _M_CONST[_e] = _const
        _M_GROUP[_e] = _c == RZ
        _M_TWO[_e] = _qb >= 0


def _fold_runs(sums: np.ndarray, prog: np.ndarray, theta: np.ndarray,
               length: np.ndarray, mult: np.ndarray, const: np.ndarray
               ) -> None:
    """Add each row's program run (``mult * theta + const`` steps) in order."""
    for t in range(mult.shape[1]):
        sel = np.nonzero(length[prog] > t)[0]
        if not sel.shape[0]:
            break
        p = prog[sel]
        sums[sel] = sums[sel] + (mult[p, t] * theta[sel] + const[p, t])


def _boundary_groups(circuit: ArrayCircuit
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
    """Fold every boundary group from the IR circuit's stream incidences.

    A segment of a qubit stream runs from just after one non-pure
    incidence (its *opener*, whose trailing run comes first) through
    the pure rz's up to the next non-pure incidence (the *closer*,
    whose leading run comes last and whose first non-rz step flushes
    the group), or to the stream's end.  Sums start from ``-0.0``, the
    exact additive identity, so an empty segment folds to ``-0.0`` and
    fails the keep test.

    Returns ``(closer gates, closer programs, incoming sums, end
    qubits, end sums)``; end groups come in qubit order.
    """
    g, qb, sl = _stream_incidence(circuit)
    m = g.shape[0]
    prog = 2 * circuit.codes[g] + sl
    theta = circuit.params[g]
    closers = np.nonzero(~_P_PURE[prog])[0]
    k = closers.shape[0]
    ends = np.nonzero(np.append(qb[1:] != qb[:-1], True))[0]
    # Closer columns with a sentinel at index -1 for "no opener".
    cpos = np.append(closers, -1)
    cqubit = np.append(qb[closers], -1)
    cprog = np.append(prog[closers], _NO_PROG)
    ctheta = np.append(theta[closers], 0.0)
    # Segments: one into each closer, then one to each stream's end.
    # A segment's opener is the closer before it, if on its stream.
    opener = np.concatenate((np.arange(-1, k - 1),
                             np.searchsorted(closers, ends, "right") - 1))
    has_opener = cqubit[opener] == np.append(cqubit[:k], qb[ends])
    opener[~has_opener] = -1
    sums = np.full(opener.shape[0], -0.0)
    _fold_runs(sums, cprog[opener], ctheta[opener],
               _TRAIL_N, _TRAIL_MULT, _TRAIL_CONST)
    if k < m:
        # The pure rz's of a segment lie between its opener (or its
        # stream's head) and its closer (or its stream's end).
        anchor = np.append(closers, ends)
        seg_to = anchor.copy()
        seg_to[k:] += 1
        seg_from = cpos[opener] + 1
        fresh = np.nonzero(~has_opener)[0]
        heads = np.append(0, ends[:-1] + 1)
        seg_from[fresh] = heads[np.searchsorted(ends, anchor[fresh])]
        seg = np.nonzero(seg_to > seg_from)[0]
        at = seg_from[seg]
        count = seg_to[seg] - at
        step = 0
        while seg.shape[0]:
            sums[seg] = sums[seg] + (_PURE_MULT * theta[at + step]
                                     + _PURE_CONST)
            step += 1
            live = count > step
            seg, at, count = seg[live], at[live], count[live]
    _fold_runs(sums[:k], cprog[:k], ctheta[:k],
               _LEAD_N, _LEAD_MULT, _LEAD_CONST)
    return g[closers], cprog[:k], sums[:k], qb[ends], sums[k:]


def lower_to_merged_basis_arrays(circuit: ArrayCircuit) -> ArrayCircuit:
    """``merge_rz_arrays(lower_to_basis_arrays(circuit))`` in one pass.

    Never materialises the lowered circuit: the merge groups are found
    on the IR circuit's own stream incidences (about a ninth of the
    lowered ones) through the static slot programs above, and each
    output row is written once from the merged templates.  Group sums
    fold left to right over the lowering's own ``mult * theta +
    const`` params, then take :func:`_remainder_2pi` and the ``> 1e-12``
    keep test, so every column is bit-identical to the two-call
    composition (pinned by ``tests/circuits/test_fused_lowering.py``).
    Output positions follow from the merged-template lengths by cumsum;
    dropped groups are masked out and the end-of-circuit groups go last
    in qubit order.
    """
    codes = circuit.codes
    n = codes.shape[0]
    if n == 0:
        return lower_to_basis_arrays(circuit)
    closer_gate, closer_prog, incoming, end_qubit, end_sums = \
        _boundary_groups(circuit)
    end_angles = _remainder_2pi(end_sums)
    end_keep = np.abs(end_angles) > 1e-12
    end_qubit = end_qubit[end_keep]
    tail = end_qubit.shape[0]

    params = circuit.params
    lengths = _M_LEN[codes]
    starts = np.cumsum(lengths) - lengths
    size = int(starts[-1] + lengths[-1])
    src = np.repeat(np.arange(n), lengths)
    entry = np.arange(size) + np.repeat(codes * _MAX_ITEMS - starts, lengths)
    out_params = np.empty(size + tail, dtype=np.float64)
    body = np.take(_M_CONST, entry, out=out_params[:size])
    checked = [starts[closer_gate] + _P_ITEM[closer_prog]]
    bad = np.nonzero(~np.isfinite(params))[0]
    if bad.shape[0]:
        # 0 * inf and 0 * nan: every item of these gates takes the
        # lowering's own param (every merged-template mult is 0), and
        # their static runs become NaN.
        span = lengths[bad]
        at = (np.repeat(starts[bad] - (np.cumsum(span) - span), span)
              + np.arange(int(span.sum())))
        e = entry[at]
        body[at] = 0.0 * params[np.repeat(bad, span)] + _M_CONST[e]
        checked.append(at[_M_GROUP[e]])
    for code, offset, run in _RUNS:
        gates = np.nonzero(codes == code)[0]
        if not gates.shape[0]:
            continue
        theta = params[gates]
        total = np.full(gates.shape[0], -0.0)
        for mult, const in run:
            total = total + (mult * theta + const)
        at = starts[gates] + offset
        body[at] = total
        checked.append(at)
    body[checked[0]] = incoming
    groups = np.concatenate(checked)
    angles = _remainder_2pi(body[groups])
    body[groups] = angles
    dropped = groups[~(np.abs(angles) > 1e-12)]
    if dropped.shape[0]:
        live = np.ones(size, dtype=bool)
        live[dropped] = False
        entry, src = entry[live], src[live]
        size = entry.shape[0]
        out_params = np.empty(size + tail, dtype=np.float64)
        np.compress(live, body, out=out_params[:size])
    out_params[size:] = end_angles[end_keep]

    # Each column is gathered once into its final buffer; the end
    # groups fill the tail.
    qubits = np.stack((circuit.q0, circuit.q1), axis=1).ravel()
    out_codes = np.full(size + tail, RZ, dtype=np.int64)
    np.take(_M_CODE, entry, out=out_codes[:size])
    out_q0 = np.empty(size + tail, dtype=np.int64)
    pair = np.multiply(src, 2, out=src)
    slot = _M_ASLOT[entry]
    slot += pair
    np.take(qubits, slot, out=out_q0[:size])
    out_q0[size:] = end_qubit
    out_q1 = np.full(size + tail, -1, dtype=np.int64)
    two = np.nonzero(_M_TWO[entry])[0]
    out_q1[two] = qubits[pair[two] + _M_BSLOT[entry[two]]]
    return ArrayCircuit(num_qubits=circuit.num_qubits, codes=out_codes,
                        q0=out_q0, q1=out_q1, params=out_params,
                        name=circuit.name)


# -- pair cancellation ---------------------------------------------------------

def cancel_pairs_arrays(circuit: ArrayCircuit) -> ArrayCircuit:
    """Cancel adjacent self-inverse pairs and fuse sx.sx -> x.

    Output-identical to :func:`repro.circuits.transpile.cancel_pairs`
    (pinned by the property tests), but the sequential automaton now
    runs only over *candidate* gates found by a vectorized scan.

    A gate is a candidate when it has a stream-adjacent neighbour it
    could ever interact with: both codes in {x, sx} on a shared qubit
    (fusion turns sx into x, so mixed pairs chain), or two cz touching
    the same oriented qubit pair.  Everything else provably survives
    untouched: the automaton's ``last`` pointer only ever reaches the
    previous *appended* gate of a stream, cancellation deletes the
    pointer outright (links never re-form across a removed pair), and
    fusion keeps codes inside {x, sx} — so a gate without a compatible
    original neighbour can never match.  Non-candidates still shape the
    automaton as stream barriers, which is what the per-candidate
    barrier flags encode.

    The automaton works on candidate-local indices: only the
    candidates' codes, qubits and barrier flags become Python lists.
    Fused codes and removals are scattered back into the full columns
    with array ops, and the surviving gates keep their original order.
    """
    codes = circuit.codes
    n = codes.shape[0]
    if n < 2:
        return circuit
    g, qb, sl = _stream_incidence(circuit)
    same = qb[1:] == qb[:-1]
    cg = codes[g]
    ca = cg[:-1]
    cb = cg[1:]
    xsx = (ca == X) | (ca == SX)
    cz_pair = same & (ca == CZ) & (cb == CZ)
    both = np.nonzero(cz_pair)[0]
    ga = g[both]
    gb = g[both + 1]
    cz_pair[both] = ((circuit.q0[ga] == circuit.q0[gb])
                     & (circuit.q1[ga] == circuit.q1[gb]))
    # Early exit: every cascade starts from two same-name adjacent
    # gates, so their absence proves the pass is the identity.
    if not ((same & xsx & (cb == ca)) | cz_pair).any():
        return circuit
    edge = np.nonzero((same & xsx & ((cb == X) | (cb == SX))) | cz_pair)[0]
    is_cand = np.zeros(n, dtype=bool)
    is_cand[g[edge]] = True
    is_cand[g[edge + 1]] = True

    # Per-(gate, qubit) barrier flag: the stream predecessor is absent
    # or a non-candidate, i.e. an appended gate that invalidates
    # ``last`` for that stream exactly like it would in the full scan.
    rows = np.nonzero(is_cand[g])[0]
    barrier = np.ones(rows.shape[0], dtype=bool)
    inner = rows > 0
    pred = rows[inner] - 1
    barrier[inner] = ~(same[pred] & is_cand[g[pred]])
    second = sl[rows]
    bar0 = np.zeros(n, dtype=bool)
    bar1 = np.zeros(n, dtype=bool)
    bar0[g[rows[~second]]] = barrier[~second]
    bar1[g[rows[second]]] = barrier[second]
    # The automaton runs on candidate-local indices: short lists of the
    # candidates' columns and barrier flags, never the whole circuit.
    cand = np.nonzero(is_cand)[0]
    cur = codes[cand].tolist()
    q0 = circuit.q0[cand].tolist()
    q1 = circuit.q1[cand].tolist()
    bar0_l = bar0[cand].tolist()
    bar1_l = bar1[cand].tolist()
    removed = [False] * len(cur)
    last: Dict[int, int] = {}
    for i in range(len(cur)):
        a = q0[i]
        if bar0_l[i] and a in last:
            del last[a]
        code = cur[i]
        if code == SX or code == X:
            prev = last.get(a)
            if prev is not None and cur[prev] == code and q0[prev] == a:
                if code == SX:
                    cur[prev] = X
                else:
                    removed[prev] = True
                    del last[a]
                removed[i] = True
                continue
            last[a] = i
        else:  # CZ -- candidate codes are only ever x, sx or cz
            b = q1[i]
            if bar1_l[i] and b in last:
                del last[b]
            prev = last.get(a)
            if (prev is not None and cur[prev] == CZ and q0[prev] == a
                    and q1[prev] == b and last.get(b) == prev):
                removed[prev] = True
                removed[i] = True
                del last[a]
                del last[b]
                continue
            last[a] = i
            last[b] = i

    cur_codes = np.array(cur, dtype=np.int64)
    if not np.array_equal(cur_codes, codes[cand]):  # sx.sx fusions
        codes = codes.copy()
        codes[cand] = cur_codes
    keep = np.ones(n, dtype=bool)
    keep[cand] = ~np.array(removed, dtype=bool)
    return ArrayCircuit(num_qubits=circuit.num_qubits,
                        codes=codes[keep],
                        q0=circuit.q0[keep],
                        q1=circuit.q1[keep],
                        params=circuit.params[keep],
                        name=circuit.name)


# -- pipeline ------------------------------------------------------------------

def transpile_arrays(circuit: ArrayCircuit, optimization_level: int = 3,
                     max_passes: int = 8) -> ArrayCircuit:
    """The legacy transpile pipeline over array circuits.

    Output-identical to the legacy pass sequence, with two shortcuts.
    Lowering and the first rz merge run fused
    (:func:`lower_to_merged_basis_arrays`).  And both passes only ever
    shrink the gate list (cancellation removes two gates, fusion one,
    merging at least one), so a size-unchanged ``cancel_pairs`` is
    exactly the identity — and ``merge_rz`` is idempotent — which lets
    provably no-op passes be skipped.

    The passes book to :func:`repro.profiling.phase` timers ``lower``,
    ``cancel`` and ``merge``, free without an active profiler.
    """
    if optimization_level not in (0, 1, 2, 3):
        raise ValueError("optimization_level must be 0..3")
    with profiling.phase("lower"):
        if optimization_level == 0:
            return lower_to_basis_arrays(circuit)
        out = lower_to_merged_basis_arrays(circuit)
    if optimization_level == 1:
        return out
    rounds = 1 if optimization_level == 2 else 1 + max(max_passes, 0)
    for _ in range(rounds):
        with profiling.phase("cancel"):
            cancelled = cancel_pairs_arrays(out)
        if cancelled.size == out.size:
            break
        with profiling.phase("merge"):
            out = merge_rz_arrays(cancelled)
    return out


def transpile_batched(circuit: QuantumCircuit, optimization_level: int = 3,
                      max_passes: int = 8) -> QuantumCircuit:
    """Batched drop-in for :func:`repro.circuits.transpile.transpile`.

    Produces the identical gate sequence on barrier-free circuits.

    Raises:
        ValueError: if the circuit contains barriers (or any gate
            outside the array codes).
    """
    return transpile_arrays(ArrayCircuit.from_circuit(circuit),
                            optimization_level=optimization_level,
                            max_passes=max_passes).to_circuit()
