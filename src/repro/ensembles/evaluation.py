"""Batched frozen-layout scoring across a disorder ensemble.

The placement is frozen — a fabricated chip cannot be re-placed — so
across an ensemble only the component *frequencies* move.  Everything
positional is therefore sample-invariant and computed once:

* the violating pair set (bare gaps vs padding sums, the
  intended-adjacency exclusions) — purely geometric, from
  :func:`repro.crosstalk.violations.violating_pairs`, the same kernel
  :func:`~repro.crosstalk.violations.violation_columns` runs;
* each violating pair's parasitic capacitance ``cp`` (a function of the
  bare gap and facing length only);
* each pair's Eq. (18) hotspot weight ``facing(padded) * dc`` and the
  pair → impacted-qubit incidence matrix (from the scan's member
  columns, :meth:`~repro.crosstalk.violations.ViolatingPairs.
  impacted_qubits`);
* the normalising polygon area ``Apoly``.

Per sample, only the frequency-dependent tail runs, vectorized over the
whole ``(samples, pairs)`` grid at once: detunings, coupling strengths
``g`` (the ``0.5 sqrt(f1 f2) cp / sqrt((c1+cp)(c2+cp))`` formula is
symmetric, so one fused evaluation with per-member capacitance arrays
reproduces the qq/rr/qr branches exactly), resonance indicators, the
hotspot proportion, and the Eq. (16) crosstalk-error fidelity proxy.
:meth:`FrozenLayoutScorer.score_batch` on a one-row batch matches
``hotspot_report(disordered_layout(...))`` — the counts exactly, ``Ph``
to rounding (the weights are formed differently) — the property the
ensemble tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .. import constants
from ..crosstalk.violations import violating_pairs
from ..devices.layout import Layout

#: Default crosstalk exposure window of the fidelity proxy: one
#: two-qubit gate, the longest timed operation a hotspot can corrupt.
DEFAULT_EXPOSURE_NS = constants.TWO_QUBIT_GATE_NS


@dataclass(frozen=True)
class EnsembleScores:
    """Per-sample scores of one ensemble batch (arrays of length N).

    Attributes:
        ph_percent: Eq. (18) hotspot proportion, percent.
        num_hotspots: Resonant violating pair count.
        impacted_qubits: Impacted-qubit count (Fig. 12 middle).
        fidelity_proxy: ``prod(1 - eps)`` over violating pairs with the
            Eq. (16) crosstalk error at the scorer's exposure window.
    """

    ph_percent: np.ndarray
    num_hotspots: np.ndarray
    impacted_qubits: np.ndarray
    fidelity_proxy: np.ndarray

    def passed(self, max_ph_percent: float) -> np.ndarray:
        """Boolean pass mask: sample yields iff ``Ph`` stays bounded."""
        return self.ph_percent <= max_ph_percent + 1e-12


class FrozenLayoutScorer:
    """Precomputed positional state for re-scoring one frozen layout."""

    def __init__(self, layout: Layout,
                 detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ,
                 duration_ns: float = DEFAULT_EXPOSURE_NS) -> None:
        if layout.netlist is None:
            raise ValueError("layout must carry its netlist")
        self.layout = layout
        self.detuning_threshold_ghz = float(detuning_threshold_ghz)
        self.duration_ns = float(duration_ns)
        netlist = layout.netlist
        self.num_qubits = len(netlist.qubits)
        self.num_resonators = len(netlist.resonators)
        self._precompute()

    # -- positional precompute (the violation scan's geometric half) ---

    def _precompute(self) -> None:
        layout = self.layout
        netlist = layout.netlist
        pairs = violating_pairs(layout)
        pos, half_w, half_h, pads, is_q = (pairs.pos, pairs.half_w,
                                           pairs.half_h, pairs.pads,
                                           pairs.is_q)
        iu, ju, cp = pairs.i, pairs.j, pairs.cp
        self.apoly = layout.apoly()

        self.pair_i, self.pair_j = iu, ju
        self.num_pairs = int(iu.size)
        caps = np.where(is_q, constants.QUBIT_CAPACITANCE_FF,
                        constants.RESONATOR_CAPACITANCE_FF)
        # g = 0.5 sqrt(f_i f_j) cp / sqrt((c_i+cp)(c_j+cp)); everything
        # but sqrt(f_i f_j) is sample-invariant.
        self._g_coeff = 0.5 * cp / np.sqrt(
            (caps[iu] + cp) * (caps[ju] + cp))

        # Eq. (18) weight: *padded* facing length x centroid distance.
        # Violating pairs always have touching padded footprints (their
        # bare gap is below the padding sum), so the adjacency guard of
        # the scalar path is identically true here.
        hw_pad, hh_pad = half_w + pads, half_h + pads
        pox = np.maximum(0.0,
                         np.minimum(pos[iu, 0] + hw_pad[iu],
                                    pos[ju, 0] + hw_pad[ju])
                         - np.maximum(pos[iu, 0] - hw_pad[iu],
                                      pos[ju, 0] - hw_pad[ju]))
        poy = np.maximum(0.0,
                         np.minimum(pos[iu, 1] + hh_pad[iu],
                                    pos[ju, 1] + hh_pad[ju])
                         - np.maximum(pos[iu, 1] - hh_pad[iu],
                                      pos[ju, 1] - hh_pad[ju]))
        self._hotspot_weight = np.maximum(pox, poy) * np.hypot(pairs.dx,
                                                               pairs.dy)

        # Column of each pair member in the hstacked (qubit, resonator)
        # frequency matrix.
        def columns(items, first: int) -> np.ndarray:
            table = np.zeros(max((it.index for it in items), default=0) + 1,
                             dtype=np.int64)
            table[[it.index for it in items]] = first + np.arange(len(items))
            return table

        cols = np.where(is_q[np.stack([iu, ju], axis=1)],
                        columns(netlist.qubits, 0)[pairs.qubit],
                        columns(netlist.resonators,
                                self.num_qubits)[pairs.resonator])
        self._freq_col_i, self._freq_col_j = cols[:, 0], cols[:, 1]

        # Pair -> impacted-qubit incidence; the -1 padding lands in a
        # spare last column.
        impact = np.zeros((self.num_pairs, netlist.topology.num_qubits + 1),
                          dtype=bool)
        impact[np.arange(self.num_pairs)[:, None],
               pairs.impacted_qubits()] = True
        self._impact = impact[:, :-1]

    # -- per-sample scoring ---------------------------------------------

    def score_batch(self, qubit_freqs: np.ndarray,
                    resonator_freqs: np.ndarray) -> EnsembleScores:
        """Score ``N`` realisations given as ``(N, nq)`` / ``(N, nr)``.

        Columns must follow ``netlist.qubits`` / ``netlist.resonators``
        order (the batch sampler's layout).
        """
        qf = np.atleast_2d(np.asarray(qubit_freqs, dtype=float))
        rf = np.atleast_2d(np.asarray(resonator_freqs, dtype=float))
        if qf.shape[1] != self.num_qubits or rf.shape[1] != self.num_resonators:
            raise ValueError(
                f"expected ({self.num_qubits}) qubit / "
                f"({self.num_resonators}) resonator columns, got "
                f"{qf.shape[1]} / {rf.shape[1]}")
        n = qf.shape[0]
        freqs = np.hstack([qf, rf])                      # (N, nq+nr)
        fi = freqs[:, self._freq_col_i]                  # (N, P)
        fj = freqs[:, self._freq_col_j]
        detuning = np.abs(fi - fj)
        g = self._g_coeff * np.sqrt(fi * fj)
        resonant = detuning <= self.detuning_threshold_ghz

        ph = (resonant @ self._hotspot_weight) / self.apoly \
            if self.apoly > 0 else np.zeros(n)
        impacted = ((resonant.astype(np.float64) @ self._impact) > 0
                    ).sum(axis=1)

        # Eq. (16) worst-case swap probability per violating pair.
        rabi2 = detuning * detuning + 4.0 * g * g
        amplitude = np.divide(4.0 * g * g, rabi2,
                              out=np.zeros_like(g), where=rabi2 > 0)
        eps = amplitude * np.sin(
            np.minimum(np.pi * np.sqrt(rabi2) * self.duration_ns,
                       np.pi / 2.0)) ** 2
        fidelity = np.prod(1.0 - eps, axis=1)

        return EnsembleScores(
            ph_percent=100.0 * ph,
            num_hotspots=resonant.sum(axis=1).astype(np.int64),
            impacted_qubits=impacted.astype(np.int64),
            fidelity_proxy=fidelity)


def bootstrap_ci(values: np.ndarray, num_resamples: int = 200,
                 seed: int = 0,
                 confidence: float = 0.95) -> Tuple[float, float]:
    """Seeded percentile-bootstrap interval of the mean of ``values``."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return (float("nan"), float("nan"))
    if num_resamples < 1 or values.size == 1:
        m = float(values.mean())
        return (m, m)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0xB007,)))
    idx = rng.integers(0, values.size, size=(num_resamples, values.size))
    means = values[idx].mean(axis=1)
    alpha = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(means, [alpha, 100.0 - alpha])
    return (float(lo), float(hi))


def summarize_scores(scores: EnsembleScores, max_ph_percent: float,
                     bootstrap: int = 200,
                     seed: int = 0) -> Dict[str, object]:
    """JSON-able summary of one ensemble point (one sigma setting)."""
    passed = scores.passed(max_ph_percent)
    yield_ci = bootstrap_ci(passed.astype(float), bootstrap, seed)
    fidelity_ci = bootstrap_ci(scores.fidelity_proxy, bootstrap, seed)
    return {
        "samples": int(passed.size),
        "yield": float(passed.mean()) if passed.size else float("nan"),
        "yield_ci": [yield_ci[0], yield_ci[1]],
        "mean_ph_percent": float(scores.ph_percent.mean()),
        "max_ph_percent_observed": float(scores.ph_percent.max(initial=0.0)),
        "mean_hotspots": float(scores.num_hotspots.mean()),
        "mean_impacted_qubits": float(scores.impacted_qubits.mean()),
        "fidelity_mean": float(scores.fidelity_proxy.mean()),
        "fidelity_ci": [fidelity_ci[0], fidelity_ci[1]],
    }
