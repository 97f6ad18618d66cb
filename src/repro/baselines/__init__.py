"""Evaluation baselines: the Human manual design.

The Classic baseline is no separate placer: it is :class:`~repro.core.
placer.QPlacer` run with :meth:`~repro.core.config.PlacerConfig.classic`
of the design config.
"""

from .human import human_layout, human_qubit_pitch_mm, human_strip_length_mm

__all__ = [
    "human_layout",
    "human_qubit_pitch_mm",
    "human_strip_length_mm",
]
