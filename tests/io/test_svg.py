"""Unit tests for the SVG layout renderer."""

import re

from repro.io.svg import frequency_color, layout_to_svg, save_svg


class TestFrequencyColor:
    def test_format(self):
        color = frequency_color(5.0, (4.8, 5.2))
        assert re.fullmatch(r"#[0-9a-f]{6}", color)

    def test_band_extremes_differ(self):
        low = frequency_color(4.8, (4.8, 5.2))
        high = frequency_color(5.2, (4.8, 5.2))
        assert low != high

    def test_out_of_band_clamped(self):
        inside = frequency_color(4.8, (4.8, 5.2))
        below = frequency_color(4.0, (4.8, 5.2))
        assert inside == below

    def test_degenerate_band(self):
        assert re.fullmatch(r"#[0-9a-f]{6}", frequency_color(5.0, (5.0, 5.0)))


class TestLayoutSvg:
    def test_structure(self, grid9_placed):
        svg = layout_to_svg(grid9_placed.layout)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")

    def test_one_rect_per_instance(self, grid9_placed):
        svg = layout_to_svg(grid9_placed.layout)
        # background + instances
        count = svg.count("<rect")
        assert count == grid9_placed.num_cells + 1

    def test_padding_outlines_optional(self, grid9_placed):
        plain = layout_to_svg(grid9_placed.layout)
        padded = layout_to_svg(grid9_placed.layout, show_padding=True)
        assert padded.count("<rect") == 2 * grid9_placed.num_cells + 1
        assert "stroke-dasharray" in padded
        assert "stroke-dasharray" not in plain

    def test_tooltips_name_instances(self, grid9_placed):
        svg = layout_to_svg(grid9_placed.layout)
        assert "<title>q0 @" in svg

    def test_footer_mentions_strategy(self, grid9_placed):
        svg = layout_to_svg(grid9_placed.layout)
        assert "qplacer" in svg

    def test_save(self, grid9_placed, tmp_path):
        path = tmp_path / "layout.svg"
        save_svg(grid9_placed.layout, path)
        assert path.read_text().startswith("<svg")

    def test_scale_changes_canvas(self, grid9_placed):
        small = layout_to_svg(grid9_placed.layout, scale=10)
        large = layout_to_svg(grid9_placed.layout, scale=100)
        w_small = float(re.search(r'width="(\d+)"', small).group(1))
        w_large = float(re.search(r'width="(\d+)"', large).group(1))
        assert w_large > 5 * w_small
