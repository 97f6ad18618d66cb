"""Fabrication frequency disorder (Sec. V-C: "realistic variation in
fabrication").

Fixed-frequency transmons cannot be tuned after fabrication, and junction
variability scatters the realised frequency around its design target by
tens of MHz.  The paper motivates its aggressive padding with exactly
this variation; this module makes it explicit:

* :func:`sample_disorder_frequencies` draws one realisation as plain
  arrays from a :class:`~numpy.random.SeedSequence` — the primitive the
  Monte-Carlo ensemble engine (:mod:`repro.ensembles`) batches;
* :func:`apply_frequency_disorder` perturbs every component frequency of
  a netlist with seeded Gaussian scatter (clipped to the allowed band);
* :func:`netlist_with_frequencies` materialises an already-drawn
  realisation into component objects;
* :func:`disordered_layout` re-evaluates an *existing* layout under a
  disorder realisation — the placement is frozen (a fab chip cannot be
  re-placed), only the frequencies move, so hotspots can appear where
  the design had margin.

The robustness experiment in :mod:`repro.analysis.ablation` sweeps the
scatter amplitude and reports how fast each placement strategy's hotspot
proportion degrades.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .. import constants
from .components import Qubit, Resonator
from .frequency import FrequencyPlan
from .layout import Layout
from .netlist import QuantumNetlist

DISORDER_STRATEGY_SUFFIX = "+disorder"


def scatter_frequencies(values: np.ndarray, sigma_ghz: float,
                        band: Tuple[float, float],
                        rng: np.random.Generator) -> np.ndarray:
    """Gaussian scatter clipped into the allowed band."""
    if sigma_ghz < 0:
        raise ValueError("scatter amplitude must be non-negative")
    noisy = values + rng.normal(0.0, sigma_ghz, size=values.shape)
    return np.clip(noisy, band[0], band[1])


def sample_disorder_frequencies(qubit_targets: np.ndarray,
                                resonator_targets: np.ndarray,
                                sigma_qubit_ghz: float,
                                sigma_resonator_ghz: float,
                                seed_sequence: np.random.SeedSequence,
                                qubit_band: Tuple[float, float] = constants.QUBIT_FREQ_BAND_GHZ,
                                resonator_band: Tuple[float, float] = constants.RESONATOR_FREQ_BAND_GHZ
                                ) -> Tuple[np.ndarray, np.ndarray]:
    """One disorder realisation from one :class:`~numpy.random.SeedSequence`.

    The sequence spawns two children — one per component family — so the
    qubit and resonator draws are *independent* streams: changing the
    qubit count can never shift a resonator's realisation.  This is the
    primitive both :func:`apply_frequency_disorder` and the ensemble
    batch sampler (:mod:`repro.ensembles.sampling`) draw through, which
    is what makes "batch row i == single sample i" an exact identity
    rather than a statistical statement.
    """
    qubit_ss, resonator_ss = seed_sequence.spawn(2)
    qubit_real = scatter_frequencies(
        np.asarray(qubit_targets, dtype=float), sigma_qubit_ghz,
        qubit_band, np.random.default_rng(qubit_ss))
    resonator_real = scatter_frequencies(
        np.asarray(resonator_targets, dtype=float), sigma_resonator_ghz,
        resonator_band, np.random.default_rng(resonator_ss))
    return qubit_real, resonator_real


def netlist_with_frequencies(netlist: QuantumNetlist,
                             qubit_freqs: np.ndarray,
                             resonator_freqs: np.ndarray) -> QuantumNetlist:
    """A copy of ``netlist`` with every component at a given frequency.

    Geometry (sizes, paddings) and the topology are shared unchanged —
    only the frequencies (and the plan mirroring them) move.  This is
    the materialisation step of the ensemble engine: realisations live
    as plain arrays until a single sample needs real component objects
    (e.g. for incremental re-place repair).
    """
    if len(qubit_freqs) != len(netlist.qubits):
        raise ValueError(
            f"expected {len(netlist.qubits)} qubit frequencies, "
            f"got {len(qubit_freqs)}")
    if len(resonator_freqs) != len(netlist.resonators):
        raise ValueError(
            f"expected {len(netlist.resonators)} resonator frequencies, "
            f"got {len(resonator_freqs)}")
    qubits = [
        Qubit(name=q.name, width=q.width, height=q.height, padding=q.padding,
              frequency=float(f), index=q.index, capacitance=q.capacitance,
              anharmonicity=q.anharmonicity)
        for q, f in zip(netlist.qubits, qubit_freqs)
    ]
    resonators = [
        Resonator(name=r.name, index=r.index, endpoints=r.endpoints,
                  frequency=float(f), pitch=r.pitch,
                  capacitance=r.capacitance)
        for r, f in zip(netlist.resonators, resonator_freqs)
    ]
    plan = FrequencyPlan(
        qubit_freq_ghz={q.index: q.frequency for q in qubits},
        resonator_freq_ghz={r.endpoints: r.frequency for r in resonators},
        qubit_levels=netlist.plan.qubit_levels,
        resonator_levels=netlist.plan.resonator_levels,
        unresolved_qubit_pairs=list(netlist.plan.unresolved_qubit_pairs),
        unresolved_resonator_pairs=list(netlist.plan.unresolved_resonator_pairs),
    )
    return QuantumNetlist(topology=netlist.topology, plan=plan,
                          qubits=qubits, resonators=resonators)


def apply_frequency_disorder(netlist: QuantumNetlist,
                             sigma_qubit_ghz: float = 0.02,
                             sigma_resonator_ghz: float = 0.01,
                             seed: int = 0,
                             qubit_band: Tuple[float, float] = constants.QUBIT_FREQ_BAND_GHZ,
                             resonator_band: Tuple[float, float] = constants.RESONATOR_FREQ_BAND_GHZ
                             ) -> QuantumNetlist:
    """A new netlist whose component frequencies carry fab scatter.

    The original netlist is untouched; the returned one shares the
    topology but owns perturbed component objects and plan.

    The qubit and resonator families draw from independent
    ``SeedSequence`` child streams, so the realisation of one family is
    insensitive to the size of the other.
    """
    qubit_targets = np.array([q.frequency for q in netlist.qubits])
    resonator_targets = np.array([r.frequency for r in netlist.resonators])
    qubit_real, resonator_real = sample_disorder_frequencies(
        qubit_targets, resonator_targets,
        sigma_qubit_ghz, sigma_resonator_ghz,
        np.random.SeedSequence(seed), qubit_band, resonator_band)
    return netlist_with_frequencies(netlist, qubit_real, resonator_real)


def disorder_strategy_tag(strategy: str) -> str:
    """``strategy`` tagged with the disorder suffix, idempotently."""
    if strategy.endswith(DISORDER_STRATEGY_SUFFIX):
        return strategy
    return f"{strategy}{DISORDER_STRATEGY_SUFFIX}"


def disordered_layout(layout: Layout, sigma_qubit_ghz: float = 0.02,
                      sigma_resonator_ghz: float = 0.01,
                      seed: int = 0) -> Layout:
    """Re-evaluate a frozen layout under one disorder realisation.

    Positions are kept; every instance is replaced by a copy at its
    resonator's / qubit's perturbed frequency, so the crosstalk metrics
    can be recomputed on the as-fabricated chip.
    """
    if layout.netlist is None:
        raise ValueError("layout must carry its netlist")
    noisy_netlist = apply_frequency_disorder(
        layout.netlist, sigma_qubit_ghz, sigma_resonator_ghz, seed)
    return layout_with_netlist_frequencies(layout, noisy_netlist)


def layout_with_netlist_frequencies(layout: Layout,
                                    noisy_netlist: QuantumNetlist) -> Layout:
    """``layout`` frozen in place but re-tuned to ``noisy_netlist``.

    Shared by :func:`disordered_layout` (which draws the realisation
    itself) and the ensemble engine (which supplies one drawn from a
    batch row).
    """
    qubit_freq = {q.index: q.frequency for q in noisy_netlist.qubits}
    resonator_freq = {r.index: r.frequency for r in noisy_netlist.resonators}

    from dataclasses import replace
    instances = []
    for inst in layout.instances:
        if isinstance(inst, Qubit):
            instances.append(replace(inst, frequency=qubit_freq[inst.index]))
        else:
            instances.append(replace(
                inst, frequency=resonator_freq[inst.resonator_index]))
    return Layout(instances=instances,
                  positions=layout.positions.copy(),
                  netlist=noisy_netlist,
                  strategy=disorder_strategy_tag(layout.strategy))
