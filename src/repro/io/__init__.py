"""Layout serialisation and export (JSON, SVG, GDSII), atomic writes,
and the content-addressed store (:mod:`repro.io.store`)."""

from .atomic import atomic_write_bytes, atomic_write_text
from .gds import layout_to_gds_bytes, parse_gds_records, save_gds
from .serialization import (
    canonical_json,
    canonicalize,
    layout_from_dict,
    layout_to_dict,
    load_layout,
    plan_from_dict,
    plan_to_dict,
    save_layout,
)
from .svg import frequency_color, layout_to_svg, save_svg

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json",
    "canonicalize",
    "frequency_color",
    "layout_from_dict",
    "layout_to_dict",
    "layout_to_gds_bytes",
    "layout_to_svg",
    "load_layout",
    "parse_gds_records",
    "plan_from_dict",
    "plan_to_dict",
    "save_gds",
    "save_layout",
    "save_svg",
]
