"""The perf-trajectory recorder: quartiles, top layers, ledger rows."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (Path(__file__).resolve().parent.parent / "benchmarks"
          / "record_trajectory.py")


@pytest.fixture(scope="module")
def rt():
    spec = importlib.util.spec_from_file_location("record_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, rss, failed=0):
    return {"correct": failed == 0, "attempted": 4, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _output(result):
    return "compile wall_s 1.0 s\nop a x1 median 0.1 s\n" + json.dumps(result)


class TestSummary:
    def test_median_and_iqr(self, rt):
        stats = rt.summarise([_result(w, 100.0) for w in (4, 1, 3, 2, 5)])
        assert stats["wall_s"] == {"unit": "s", "median": 3, "q1": 2,
                                   "q3": 4, "iqr": 2}
        assert stats["peak_rss_mb"]["iqr"] == 0

    def test_single_run_is_its_own_spread(self, rt):
        stats = rt.summarise([_result(2.5, 100.0)])
        assert stats["wall_s"]["median"] == stats["wall_s"]["q1"] == 2.5
        assert stats["wall_s"]["iqr"] == 0

    def test_top_layers_by_self_time(self, rt):
        traced = {"metrics": {
            f"l{i}.self_s": {"value": float(i), "unit": "s"}
            for i in range(8)}}
        traced["metrics"]["l7.calls"] = {"value": 99.0, "unit": "count"}
        top = rt.top_layers(traced)
        assert [t["layer"] for t in top] == ["l7", "l6", "l5", "l4", "l3"]
        assert top[0]["self_s"] == 7.0


class TestLedger:
    def test_results_files_append_rows(self, rt, tmp_path):
        files = []
        for i, wall in enumerate((3.0, 4.0, 5.0)):
            path = tmp_path / f"run{i}.txt"
            path.write_text(_output(_result(wall, 200.0, failed=i == 2)))
            files.append(str(path))
        out = tmp_path / "BENCH_compile.json"
        args = ["--workload", "compile", "--seed", "2", "--label", "change",
                "--out", str(out), "--results", *files]
        assert rt.main(args) == 0
        assert rt.main(args) == 0
        ledger = json.loads(out.read_text())
        assert ledger["workload"] == "compile"
        assert len(ledger["rows"]) == 2
        row = ledger["rows"][0]
        assert row["label"] == "change" and row["seed"] == 2
        assert row["runs"] == 3
        assert not row["correct"] and row["failed_ops"] == 1
        assert row["metrics"]["wall_s"]["median"] == 4.0
        assert row["sha"] is None or len(row["sha"]) == 40
        assert row["host"]["cpus"] >= 1
        assert "top_layers" not in row
