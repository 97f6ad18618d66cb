"""Physical constants and architectural default parameters.

All defaults follow Section V-C ("Experiment setup / Architectural
Features") of the Qplacer paper.  Unit conventions used throughout the
library:

* lengths in **millimetres** (mm)
* frequencies in **GHz** (plain frequencies ``f``; angular frequencies
  carry an explicit ``2*pi`` where they appear)
* capacitances in **femtofarads** (fF)
* times in **nanoseconds** (ns)

Keeping a single consistent unit system avoids the classic failure mode of
mixing SI prefixes inside formulas; converting helpers live next to the
constants they serve.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Fundamental constants
# ---------------------------------------------------------------------------

#: Speed of light in vacuum, in mm/ns (= 2.998e8 m/s).
SPEED_OF_LIGHT_MM_PER_NS = 299.792458

#: Phase velocity of light in the coplanar-waveguide resonator, mm/ns.
#: The paper uses v0 ~ 1.3e8 m/s (Sec. V-C) which is 130 mm/ns.
CPW_PHASE_VELOCITY_MM_PER_NS = 130.0

#: Relative permittivity of the silicon substrate (used for the TM110
#: box-mode estimate; reproduces the paper's 12.41 GHz @ 5x5 mm^2).
SILICON_RELATIVE_PERMITTIVITY = 11.7

#: Reduced Planck constant in (GHz * fF * mV^2 * ns) style units is never
#: needed explicitly; all energy scales are expressed directly as
#: frequencies (E/h in GHz).

# ---------------------------------------------------------------------------
# Component geometry (Sec. V-C, "Architectural Features")
# ---------------------------------------------------------------------------

#: Side length of the square transmon-qubit pocket, mm (400 x 400 um^2).
QUBIT_SIZE_MM = 0.4

#: Padding distance added around every qubit, mm (dq = 400 um).
QUBIT_PADDING_MM = 0.4

#: Padding distance added around every resonator segment, mm (dr = 100 um).
RESONATOR_PADDING_MM = 0.1

#: Effective pitch (width footprint) of the meandered CPW resonator trace,
#: mm.  Reserved resonator area = L * pitch; with the 9.2--10.8 mm lengths
#: of Sec. V-C this reproduces the paper's Table II instance counts.
RESONATOR_PITCH_MM = 0.1

#: Default resonator-segment block size lb, mm (Sec. VI-D finds 0.3 optimal).
DEFAULT_SEGMENT_SIZE_MM = 0.3

#: Segment sizes swept in Fig. 15 / Table II.
SEGMENT_SIZE_SWEEP_MM = (0.2, 0.3, 0.4)

# ---------------------------------------------------------------------------
# Frequency plan (Sec. V-C)
# ---------------------------------------------------------------------------

#: Allowed qubit frequency band, GHz.
QUBIT_FREQ_BAND_GHZ = (4.8, 5.2)

#: Allowed resonator frequency band, GHz.
RESONATOR_FREQ_BAND_GHZ = (6.0, 7.0)

#: Detuning threshold Delta_c below which two components are considered
#: resonant (GHz).
DETUNING_THRESHOLD_GHZ = 0.1

#: Transmon anharmonicity alpha/2pi = (w12 - w01)/2pi, GHz (~ -310 MHz).
TRANSMON_ANHARMONICITY_GHZ = -0.310

# ---------------------------------------------------------------------------
# Circuit-element electrical parameters
# ---------------------------------------------------------------------------

#: Transmon shunt capacitance, fF.  65 fF gives EC/h ~ 300 MHz, matching
#: the ~310 MHz anharmonicity quoted in the paper.
QUBIT_CAPACITANCE_FF = 65.0

#: Effective lumped capacitance of a lambda/2 CPW resonator, fF.
RESONATOR_CAPACITANCE_FF = 400.0

#: Parasitic capacitance between two adjacent qubit pockets at contact
#: (d -> 0), fF.  Calibrated so Eq. (6) yields g/2pi in the paper's
#: 20--30 MHz band at near-contact distances (Fig. 5-b).
PARASITIC_CP0_FF = 1.4

#: Exponential decay length of the parasitic capacitance with distance,
#: mm.  The sharp 50 um screening length reproduces the paper's regime
#: split: resonant pairs closer than the padding sums suffer order-unity
#: crosstalk errors, while pairs at (or beyond) the legal padded spacing
#: couple negligibly (Fig. 5-b / Sec. V-C).
PARASITIC_DECAY_MM = 0.05

#: Per-length parasitic capacitance between parallel resonator traces at
#: contact, fF/mm (Fig. 6-c behaviour).
RESONATOR_PARASITIC_CP0_FF_PER_MM = 4.0

#: Decay length for resonator-resonator parasitic capacitance, mm.
RESONATOR_PARASITIC_DECAY_MM = 0.05

#: Intended (designed) qubit-resonator coupling g/2pi, GHz (~70 MHz is a
#: typical circuit-QED value for RIP-gate devices).
QUBIT_RESONATOR_COUPLING_GHZ = 0.070

# ---------------------------------------------------------------------------
# Noise-model parameters (Sec. V-C "Metrics"; representative IBM values)
# ---------------------------------------------------------------------------

#: Relaxation time T1, ns (100 us).
T1_NS = 100_000.0

#: Dephasing time T2, ns (100 us).
T2_NS = 100_000.0

#: Single-qubit gate duration, ns.
SINGLE_QUBIT_GATE_NS = 35.0

#: Two-qubit (RIP CZ) gate duration, ns.
TWO_QUBIT_GATE_NS = 300.0

#: Readout duration, ns (not used by default: the paper's 3D packaging
#: evaluation omits readout resonators).
READOUT_NS = 700.0

#: Single-qubit gate error (depolarising magnitude).
SINGLE_QUBIT_GATE_ERROR = 3.0e-4

#: Two-qubit gate error.
TWO_QUBIT_GATE_ERROR = 7.0e-3

# ---------------------------------------------------------------------------
# Evaluation protocol (Sec. VI-A)
# ---------------------------------------------------------------------------

#: Number of physical-qubit subsets evaluated per (benchmark, topology).
DEFAULT_NUM_MAPPINGS = 50

#: Target density used by the electrostatic placement region sizing.
DEFAULT_TARGET_DENSITY = 1.0
