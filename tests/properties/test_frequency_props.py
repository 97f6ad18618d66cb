"""Property-based tests for frequency combs and conflict colouring."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.frequency import (
    _limited_palette_coloring,
    frequency_levels,
)

bands = st.tuples(
    st.floats(min_value=1.0, max_value=9.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
).map(lambda t: (t[0], t[0] + t[1]))

thresholds = st.floats(min_value=0.01, max_value=0.5, allow_nan=False)


class TestFrequencyLevelProperties:
    @given(bands, thresholds)
    def test_levels_inside_band(self, band, threshold):
        levels = frequency_levels(band, threshold)
        assert all(band[0] - 1e-9 <= f <= band[1] + 1e-9 for f in levels)

    @given(bands, thresholds)
    def test_adjacent_spacing_exceeds_threshold(self, band, threshold):
        levels = frequency_levels(band, threshold)
        for a, b in zip(levels, levels[1:]):
            assert b - a > threshold

    @given(bands, thresholds)
    def test_maximality(self, band, threshold):
        """Adding one more level would violate the spacing rule."""
        levels = frequency_levels(band, threshold)
        if len(levels) < 2:
            return
        span = band[1] - band[0]
        denser = span / len(levels)  # spacing with one extra level
        assert denser <= threshold + 1e-6

    @given(bands, thresholds)
    def test_sorted_and_unique(self, band, threshold):
        levels = frequency_levels(band, threshold)
        assert levels == sorted(levels)
        assert len(set(levels)) == len(levels)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    p = draw(st.floats(min_value=0.05, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return nx.gnp_random_graph(n, p, seed=seed)


class TestColoringProperties:
    @given(random_graphs())
    @settings(max_examples=60)
    def test_large_palette_always_proper(self, graph):
        max_degree = max((d for _, d in graph.degree), default=0)
        colors, unresolved = _limited_palette_coloring(graph, max_degree + 1)
        assert unresolved == []
        for u, v in graph.edges:
            assert colors[u] != colors[v]

    @given(random_graphs())
    @settings(max_examples=60)
    def test_all_nodes_colored_within_palette(self, graph):
        palette = 3
        colors, _ = _limited_palette_coloring(graph, palette)
        assert set(colors) == set(graph.nodes)
        assert all(0 <= c < palette for c in colors.values())

    @given(random_graphs())
    @settings(max_examples=60)
    def test_unresolved_edges_are_real_conflicts(self, graph):
        colors, unresolved = _limited_palette_coloring(graph, 2)
        for u, v in unresolved:
            assert graph.has_edge(u, v)
            assert colors[u] == colors[v]

    @given(random_graphs())
    @settings(max_examples=30)
    def test_deterministic(self, graph):
        a = _limited_palette_coloring(graph, 3)
        b = _limited_palette_coloring(graph, 3)
        assert a == b
