"""Layout and frequency-plan JSON round-trips, plus canonical JSON.

Layouts are stored with their topology name, segment size, strategy,
frequency plan, instance positions and origin offset; loading rebuilds
the netlist and placement problem deterministically and re-attaches the
positions.

This module also owns the repo's **canonical JSON** encoding
(:func:`canonicalize` / :func:`canonical_json`): the single
deterministic serialisation that every content-addressed cache key is
computed over — the parallel runner's job tokens
(:func:`repro.analysis.runner.job_token`) and the service artifact
store's request digests (:mod:`repro.service.store`).  Two values
canonicalise identically iff they describe the same work, so equal
digests may safely share one cached result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from ..core.config import PlacerConfig
from ..core.preprocess import build_problem
from ..devices.frequency import FrequencyPlan
from ..devices.layout import Layout
from ..devices.netlist import build_netlist
from ..devices.topology import get_topology

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# Canonical JSON — the shared digest encoding
# ---------------------------------------------------------------------------

def canonicalize(obj: Any) -> Any:
    """JSON-serialisable canonical form of a cache-key field.

    Rules (the request-canonicalisation contract of ``docs/service.md``):

    * :class:`~repro.core.config.PlacerConfig` values are tagged
      ``{"__config__": <fields>}`` so a config can never collide with a
      plain dict of the same shape;
    * other dataclasses are tagged with their type name and recursively
      canonicalised field dicts;
    * dict keys are stringified and sorted, tuples become lists;
    * only JSON scalars survive unchanged.

    Raises:
        TypeError: for values with no canonical form (ndarray, set, ...)
            — cache keys must be built from primitives on purpose.
    """
    if isinstance(obj, PlacerConfig):
        return {"__config__": canonicalize(dataclasses.asdict(obj))}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__,
                "fields": canonicalize(dataclasses.asdict(obj))}
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for cache key")


def canonical_json(obj: Any) -> str:
    """Deterministic compact JSON of :func:`canonicalize` output."""
    return json.dumps(canonicalize(obj), sort_keys=True,
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# Circuit content documents — what a circuit digest is computed over
# ---------------------------------------------------------------------------

#: Format tag of the columnar circuit content document.
CIRCUIT_CONTENT_FORMAT = "repro.array-circuit-content.v1"
#: Format tag of the gate-list fallback (circuits the columnar layout
#: cannot encode, i.e. ones containing barriers).
GATE_CONTENT_FORMAT = "repro.gate-circuit-content.v1"


def circuit_content(circuit: Any) -> Dict:
    """Canonical-JSON-able content document of a circuit.

    Accepts an :class:`~repro.circuits.batch.ArrayCircuit` or a
    :class:`~repro.circuits.circuit.QuantumCircuit`.  The
    document covers the circuit *content* only — width plus the gate
    columns — and deliberately excludes the circuit ``name``, so
    differently-named aliases of the same workload share one digest.

    ``QuantumCircuit`` inputs are encoded to columns first whenever the
    columnar layout supports them, so the digest of a circuit equals
    the digest of its array encoding; barrier-carrying circuits fall
    back to a tagged gate-tuple document.  Column floats survive the
    JSON round-trip bit-exactly (Python float repr is lossless), which
    is what makes the digest stable across processes.
    """
    from ..circuits.batch import ArrayCircuit
    if not isinstance(circuit, ArrayCircuit):
        try:
            circuit = ArrayCircuit.from_circuit(circuit)
        except ValueError:
            return {"format": GATE_CONTENT_FORMAT,
                    "num_qubits": int(circuit.num_qubits),
                    "gates": [[gate.name, list(gate.qubits),
                               list(gate.params)]
                              for gate in circuit.gates]}
    return {"format": CIRCUIT_CONTENT_FORMAT,
            "num_qubits": int(circuit.num_qubits),
            "codes": circuit.codes.tolist(),
            "q0": circuit.q0.tolist(),
            "q1": circuit.q1.tolist(),
            "params": circuit.params.tolist()}


def circuit_content_digest(circuit: Any) -> str:
    """sha256 over the canonical JSON of :func:`circuit_content`.

    The circuit-level analogue of the runner's job tokens and the
    service's request digests: equal digests mean identical compile
    input, so a suite digest is a licence to reuse a compiled artifact
    (the ``circuit_digest`` keying of
    :class:`repro.analysis.runner.MappingJob`).  Takes a plain
    ``QuantumCircuit`` or ``ArrayCircuit``; see :func:`circuit_content`
    for what the digest covers.
    """
    payload = canonical_json(circuit_content(circuit))
    return hashlib.sha256(payload.encode()).hexdigest()


def plan_to_dict(plan: FrequencyPlan) -> Dict:
    """Serialise a frequency plan (edge keys become ``"u-v"`` strings)."""
    return {
        "qubit_freq_ghz": {str(q): f for q, f in plan.qubit_freq_ghz.items()},
        "resonator_freq_ghz": {f"{u}-{v}": f
                               for (u, v), f in plan.resonator_freq_ghz.items()},
        "qubit_levels": list(plan.qubit_levels),
        "resonator_levels": list(plan.resonator_levels),
        "unresolved_qubit_pairs": [list(p) for p in plan.unresolved_qubit_pairs],
        "unresolved_resonator_pairs": [
            [list(a), list(b)] for a, b in plan.unresolved_resonator_pairs],
    }


def plan_from_dict(data: Dict) -> FrequencyPlan:
    """Inverse of :func:`plan_to_dict`."""
    return FrequencyPlan(
        qubit_freq_ghz={int(q): f for q, f in data["qubit_freq_ghz"].items()},
        resonator_freq_ghz={
            tuple(int(x) for x in key.split("-")): f
            for key, f in data["resonator_freq_ghz"].items()
        },
        qubit_levels=list(data["qubit_levels"]),
        resonator_levels=list(data["resonator_levels"]),
        unresolved_qubit_pairs=[tuple(p) for p in data["unresolved_qubit_pairs"]],
        unresolved_resonator_pairs=[
            (tuple(a), tuple(b)) for a, b in data["unresolved_resonator_pairs"]],
    )


def layout_to_dict(layout: Layout, segment_size_mm: float) -> Dict:
    """Serialise a layout produced from a registered topology.

    Raises:
        ValueError: when the layout has no netlist back-reference.
    """
    if layout.netlist is None:
        raise ValueError("layout must carry its netlist to be serialised")
    return {
        "format": "repro.layout.v1",
        "topology": layout.netlist.topology.name,
        "segment_size_mm": segment_size_mm,
        "strategy": layout.strategy,
        "plan": plan_to_dict(layout.netlist.plan),
        "instances": [inst.name for inst in layout.instances],
        "positions": [[float(x), float(y)] for x, y in layout.positions],
        "origin_offset": [float(v) for v in layout.origin_offset],
    }


def layout_from_dict(data: Dict) -> Layout:
    """Rebuild a layout from :func:`layout_to_dict` output.

    A document without ``origin_offset`` loads with a zero offset.
    """
    if data.get("format") != "repro.layout.v1":
        raise ValueError(f"unsupported layout format {data.get('format')!r}")
    topology = get_topology(data["topology"])
    plan = plan_from_dict(data["plan"])
    netlist = build_netlist(topology, plan=plan)
    config = PlacerConfig(segment_size_mm=float(data["segment_size_mm"]))
    problem = build_problem(netlist, config)
    names = [inst.name for inst in problem.instances]
    if names != list(data["instances"]):
        raise ValueError("serialised instance list does not match rebuild; "
                         "was the layout produced with different parameters?")
    positions = np.array(data["positions"], dtype=float)
    x, y = data.get("origin_offset", (0.0, 0.0))
    return Layout(instances=problem.instances, positions=positions,
                  netlist=netlist, strategy=data["strategy"],
                  origin_offset=(float(x), float(y)))


def save_layout(layout: Layout, path: PathLike, segment_size_mm: float) -> None:
    """Write a layout as JSON."""
    Path(path).write_text(json.dumps(layout_to_dict(layout, segment_size_mm),
                                     indent=1))


def load_layout(path: PathLike) -> Layout:
    """Read a layout JSON written by :func:`save_layout`."""
    return layout_from_dict(json.loads(Path(path).read_text()))
