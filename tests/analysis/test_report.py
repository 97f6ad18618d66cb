"""Unit tests for report-table formatting."""

from repro.analysis.experiments import ParetoPoint, SummaryRow, SweepRow
from repro.analysis.report import (
    area_table,
    fidelity_table,
    format_fidelity,
    format_table,
    pareto_table,
    summary_table,
    sweep_table,
)


class TestFormatFidelity:
    def test_floor_notation(self):
        assert format_fidelity(5e-5) == "<1e-4"
        assert format_fidelity(1e-4) == "<1e-4"

    def test_regular_value(self):
        assert format_fidelity(0.8389) == "0.8389"


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbbb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("a     bbbb")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["a"], [["1"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_wide_cells_stretch_columns(self):
        text = format_table(["h"], [["wide-cell-content"]])
        assert "wide-cell-content" in text


class TestDomainTables:
    def test_fidelity_table(self):
        table = fidelity_table(
            {"bv-4": {"qplacer": 0.9, "classic": 1e-5}}, "grid-25")
        assert "bv-4" in table
        assert "<1e-4" in table
        assert "0.9000" in table

    def test_summary_table(self):
        rows = [SummaryRow("grid-25", "qplacer", 0.4259, 5, 0.81)]
        table = summary_table(rows)
        assert "grid-25" in table and "0.4259" in table and "0.81" in table

    def test_area_table(self):
        table = area_table({"grid-25": {"qplacer": 1.0, "human": 1.806}})
        assert "1.806" in table

    def test_sweep_table(self):
        rows = [SweepRow("grid-25", 0.3, 490, 0.843, 0.0, 4.6, 0.017)]
        table = sweep_table(rows)
        assert "490" in table and "0.843" in table

    def test_pareto_table(self):
        points = [ParetoPoint("grid-25", "human", 87.1, 0.55)]
        table = pareto_table(points)
        assert "87.1" in table and "0.5500" in table
