"""Smoke tests: every example script runs cleanly end to end."""

import subprocess
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    """Run one example in a subprocess; returns its stdout."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "grid-25")
        assert "Layout comparison" in out
        assert "qplacer" in out and "classic" in out and "human" in out

    def test_falcon_layout(self, tmp_path):
        out = run_example("falcon_layout.py", str(tmp_path))
        assert "TM110" in out
        assert (tmp_path / "falcon_layout.svg").exists()
        assert (tmp_path / "falcon_layout.gds").exists()
        assert (tmp_path / "falcon_layout.json").exists()

    def test_segment_size_sweep(self):
        out = run_example("segment_size_sweep.py", "grid-25")
        assert "lb (mm)" in out
        assert "Mean across topologies" in out

    def test_crosstalk_study(self):
        out = run_example("crosstalk_study.py")
        assert "Fig.4" in out
        assert "TM110" in out

    def test_custom_topology(self):
        out = run_example("custom_topology.py")
        assert "braced" in out.lower() or "Custom topology" in out
        assert "fidelity" in out

    def test_robustness_study(self):
        out = run_example("robustness_study.py", "grid-25")
        assert "disorder" in out.lower()
        assert "sabre" in out

    def test_full_evaluation_reduced(self, tmp_path):
        out_file = tmp_path / "eval.txt"
        run_example("full_evaluation.py", "--mappings", "2",
                    "--out", str(out_file), "--skip-sweep", timeout=500)
        text = out_file.read_text()
        assert "Fig.11" in text and "Fig.12" in text and "Fig.13" in text
        assert "Headline numbers" in text
