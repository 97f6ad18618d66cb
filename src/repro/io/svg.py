"""SVG rendering of placed layouts (the Fig. 14-b visualisation).

Instances are colour-coded by frequency (matching the paper's colour
convention: similar frequency = similar colour); qubits draw with a dark
border, resonator segments borderless.  Pure-string SVG generation — no
plotting dependency required.
"""

from __future__ import annotations

import colorsys
from pathlib import Path
from typing import List, Union

from ..devices.components import Qubit
from ..devices.layout import Layout

PathLike = Union[str, Path]


def frequency_color(freq_ghz: float, band: tuple) -> str:
    """Map a frequency inside ``band`` to an ``#rrggbb`` hue."""
    lo, hi = band
    t = 0.0 if hi <= lo else (freq_ghz - lo) / (hi - lo)
    t = min(max(t, 0.0), 1.0)
    r, g, b = colorsys.hsv_to_rgb(0.66 * (1.0 - t), 0.75, 0.92)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def layout_to_svg(layout: Layout, scale: float = 40.0,
                  margin_mm: float = 0.5,
                  show_padding: bool = False) -> str:
    """Render a layout to an SVG string.

    Args:
        layout: The placed layout.
        scale: Pixels per millimetre.
        margin_mm: White margin around the enclosing rectangle.
        show_padding: Draw dashed padded outlines as well.
    """
    mer = layout.enclosing_rect().inflated(margin_mm)
    width = mer.w * scale
    height = mer.h * scale

    def sx(x: float) -> float:
        return (x - mer.x) * scale

    def sy(y: float) -> float:
        # SVG y grows downward; flip so the layout reads like the paper.
        return (mer.y2 - y) * scale

    qubit_freqs = [inst.frequency for inst in layout.instances
                   if isinstance(inst, Qubit)]
    seg_freqs = [inst.frequency for inst in layout.instances
                 if not isinstance(inst, Qubit)]
    q_band = (min(qubit_freqs), max(qubit_freqs)) if qubit_freqs else (0, 1)
    r_band = (min(seg_freqs), max(seg_freqs)) if seg_freqs else (0, 1)

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="white"/>',
    ]
    for i, inst in enumerate(layout.instances):
        rect = layout.rect(i)
        is_qubit = isinstance(inst, Qubit)
        band = q_band if is_qubit else r_band
        fill = frequency_color(inst.frequency, band)
        stroke = 'stroke="#222" stroke-width="1.5"' if is_qubit else 'stroke="none"'
        parts.append(
            f'<rect x="{sx(rect.x):.1f}" y="{sy(rect.y2):.1f}" '
            f'width="{rect.w * scale:.1f}" height="{rect.h * scale:.1f}" '
            f'fill="{fill}" {stroke}>'
            f'<title>{inst.name} @ {inst.frequency:.3f} GHz</title></rect>')
        if show_padding:
            padded = layout.padded_rect(i)
            parts.append(
                f'<rect x="{sx(padded.x):.1f}" y="{sy(padded.y2):.1f}" '
                f'width="{padded.w * scale:.1f}" height="{padded.h * scale:.1f}" '
                f'fill="none" stroke="#999" stroke-width="0.5" '
                f'stroke-dasharray="3,3"/>')
    parts.append(
        f'<text x="6" y="{height - 6:.0f}" font-family="monospace" '
        f'font-size="12" fill="#333">{layout.strategy} — '
        f'{layout.netlist.topology.name if layout.netlist else "layout"} — '
        f'Amer {layout.amer():.1f} mm²</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(layout: Layout, path: PathLike, **kwargs) -> None:
    """Render and write a layout SVG to disk."""
    Path(path).write_text(layout_to_svg(layout, **kwargs))
