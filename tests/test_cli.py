"""Unit tests for the command-line interface."""

import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.core.config import PlacerConfig
from repro.io.serialization import canonicalize


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_place_defaults(self):
        args = build_parser().parse_args(["place", "grid-25"])
        assert args.topology == "grid-25"
        assert args.segment_size == 0.3
        assert not args.classic

    def test_evaluate_options(self):
        args = build_parser().parse_args(
            ["evaluate", "falcon-27", "--mappings", "7",
             "--benchmarks", "bv-4,qgan-4"])
        assert args.mappings == 7
        assert args.benchmarks == "bv-4,qgan-4"


    def test_refine_command_removed(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["refine", "ab" * 32])
        assert err.value.code == 2
        assert "refine" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["place", "profile"])
    def test_placer_flag_removed(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([command, "grid-25",
                                       "--placer", "force"])
        assert err.value.code == 2
        assert "--placer" in capsys.readouterr().err

class TestEngineArgValidation:
    """Parse-time validation of the engine switches.

    Bad values must die in argparse with the valid choices listed —
    never reach (and crash inside) the placement engine.  The
    interaction backend is picked from problem size, so its override
    and the sparse tuning flags are argparse errors.
    """

    def _error_of(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--interaction-backend", "sparse"),
        ("--density-flush-interval", "4"),
        ("--density-move-threshold", "0.02"),
    ])
    @pytest.mark.parametrize("argv", [
        ["place", "grid-25"],
        ["evaluate", "grid-25"],
        ["evaluate-all"],
        ["workloads", "evaluate", "--topology", "grid-25",
         "--workloads", "bv-9"],
    ], ids=["place", "evaluate", "evaluate-all", "workloads-evaluate"])
    def test_removed_backend_flags_rejected(self, capsys, argv, flag,
                                           value):
        err = self._error_of(capsys, argv + [flag, value])
        assert "unrecognized arguments" in err
        assert flag in err

    def test_evaluate_all_passes_the_parsed_config(self, monkeypatch):
        import repro.cli as cli

        captured = {}

        def fake_run_full_evaluation(**kwargs):
            captured.update(kwargs)
            return {}

        monkeypatch.setattr(cli, "run_full_evaluation",
                            fake_run_full_evaluation)
        assert main(["evaluate-all", "--topologies", "grid-25",
                     "--seed", "5", "--segment-size", "0.4",
                     "--detailed-passes", "2", "--jobs", "1"]) == 0
        assert captured["config"] == PlacerConfig(
            segment_size_mm=0.4, seed=5, detailed_passes=2)
        assert captured["topology_names"] == ("grid-25",)

    def test_detailed_passes_accepts_auto_and_counts(self):
        parse = build_parser().parse_args
        assert parse(["place", "grid-25",
                      "--detailed-passes", "auto"]).detailed_passes is None
        assert parse(["place", "grid-25",
                      "--detailed-passes", "0"]).detailed_passes == 0
        assert parse(["place", "grid-25",
                      "--detailed-passes", "3"]).detailed_passes == 3

    def test_detailed_passes_rejects_bad_values(self, capsys):
        for bad in ("-1", "two", "1.5"):
            err = self._error_of(capsys, ["place", "grid-25",
                                          "--detailed-passes", bad])
            assert "'auto' or a non-negative integer" in err

    def test_legalizer_switches_reach_the_config(self):
        from repro.cli import _config_from

        args = build_parser().parse_args(
            ["place", "grid-25", "--detailed-passes", "2"])
        config = _config_from(args)
        assert config.detailed_passes == 2

    @pytest.mark.parametrize("command", ["place", "profile"])
    def test_classic_builds_the_classic_config(self, command):
        from repro.cli import _config_from

        args = build_parser().parse_args(
            [command, "grid-25", "--classic", "--seed", "3",
             "--segment-size", "0.4"])
        assert _config_from(args) == PlacerConfig.classic(
            seed=3, segment_size_mm=0.4)


class TestCommands:
    def test_topologies(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "falcon-27" in out and "eagle-127" in out

    def test_physics(self, capsys):
        assert main(["physics"]) == 0
        out = capsys.readouterr().out
        assert "Fig.4" in out and "TM110" in out

    def test_place_with_exports(self, capsys, tmp_path):
        svg = tmp_path / "chip.svg"
        gds = tmp_path / "chip.gds"
        code = main(["place", "grid-25",
                     "--svg", str(svg), "--gds", str(gds)])
        assert code == 0
        assert svg.exists() and gds.exists()
        out = capsys.readouterr().out
        assert "Ph (%)" in out

    def test_place_classic(self, capsys):
        assert main(["place", "grid-25", "--classic"]) == 0
        assert "classic" in capsys.readouterr().out

    def test_evaluate_small(self, capsys):
        code = main(["evaluate", "grid-25", "--mappings", "3",
                     "--benchmarks", "bv-4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig.11" in out and "Fig.12" in out and "Fig.13" in out

    def test_unknown_topology_errors(self):
        with pytest.raises(KeyError):
            main(["place", "not-a-chip"])

    def test_profile_round_trip(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "phases.json"
        assert main(["profile", "grid-25", "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "Placement phases" in out
        assert "legalize" in out and "(wall clock)" in out
        doc = json.loads(out_json.read_text())
        assert doc["topology"] == "grid-25"
        assert doc["runtime_s"] > 0
        phases = doc["phases"]
        assert {"preprocess", "global", "legalize"} <= set(phases)
        top = sum(s for path, s in phases.items() if "/" not in path)
        assert 0.5 * doc["runtime_s"] <= top <= 1.05 * doc["runtime_s"]

    def test_profile_map_pipeline(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "phases.json"
        assert main(["profile", "grid-25", "--pipeline", "map",
                     "--benchmark", "bv-4", "--mappings", "4",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "Compile phases" in out and "(wall clock)" in out
        doc = json.loads(out_json.read_text())
        assert (doc["pipeline"], doc["benchmark"], doc["mappings"]) == (
            "map", "bv-4", 4)
        phases = doc["phases"]
        top = {path for path in phases if "/" not in path}
        assert top == {"subsets", "placement", "route", "transpile",
                       "schedule"}
        assert {"transpile/lower", "transpile/cancel"} <= set(phases)
        for path in phases:
            assert path in out
        covered = sum(phases[path] for path in top)
        assert 0.95 * doc["runtime_s"] <= covered <= doc["runtime_s"]

    def test_profile_forced_detailed_pass(self, capsys):
        # grid-25 resolves dense (0 passes by default); forcing one
        # must surface the "detailed" phase in the table.
        assert main(["profile", "grid-25", "--detailed-passes", "1"]) == 0
        assert "detailed" in capsys.readouterr().out


class TestWorkloadCommands:
    def test_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        assert "clifford" in out and "condor-1121" in out

    def test_build_with_transpile(self, capsys):
        code = main(["workloads", "build", "ghz-16", "qv-8-d3-s1",
                     "--transpile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ghz-16" in out and "basis gates" in out

    def test_build_suite_name(self, capsys):
        assert main(["workloads", "build", "paper-8"]) == 0
        assert "qgan-9" in capsys.readouterr().out

    def test_evaluate_fans_local_shards(self, capsys):
        code = main(["workloads", "evaluate", "--topology", "grid-25",
                     "--workloads", "bv-9,ghz-9", "--mappings", "2",
                     "--strategies", "qplacer", "--shard-count", "2",
                     "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bv-9" in out and "ghz-9" in out

    def test_shard_and_merge_round_trip(self, capsys, tmp_path):
        common = ["workloads", "evaluate", "--topology", "grid-25",
                  "--workloads", "bv-9,ghz-9,qaoa-9", "--mappings", "2",
                  "--strategies", "qplacer", "--shard-count", "2",
                  "--jobs", "1"]
        shard0 = tmp_path / "s0.json"
        shard1 = tmp_path / "s1.json"
        assert main(common + ["--shard-index", "0",
                              "--json", str(shard0)]) == 0
        assert main(common + ["--shard-index", "1",
                              "--json", str(shard1)]) == 0
        capsys.readouterr()
        merged = tmp_path / "merged.json"
        assert main(["workloads", "merge", str(shard0), str(shard1),
                     "--json", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "bv-9" in out and "qaoa-9" in out

        import json
        payload = json.loads(merged.read_text())
        assert list(payload["fidelity"]) == ["bv-9", "ghz-9", "qaoa-9"]

    def test_merge_refuses_shards_with_other_detailed_passes(
            self, capsys, tmp_path):
        """Every placer-config field is shard context, including the
        detailed-pass count that changes legalized layouts."""
        common = ["workloads", "evaluate", "--topology", "grid-25",
                  "--workloads", "bv-9,ghz-9", "--mappings", "2",
                  "--strategies", "qplacer", "--shard-count", "2",
                  "--jobs", "1"]
        shard0 = tmp_path / "s0.json"
        shard1 = tmp_path / "s1.json"
        assert main(common + ["--shard-index", "0",
                              "--json", str(shard0)]) == 0
        assert main(common + ["--shard-index", "1",
                              "--detailed-passes", "1",
                              "--json", str(shard1)]) == 0
        with pytest.raises(SystemExit, match="detailed_passes"):
            main(["workloads", "merge", str(shard0), str(shard1)])

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8754
        assert args.workers == 2
        assert args.store_dir == "repro-service-data"

    @pytest.mark.parametrize("mismatch", [
        {"topology": "falcon-27"},
        {"config": canonicalize(PlacerConfig(seed=7))},
        {"config": canonicalize(PlacerConfig(segment_size_mm=0.5))},
        {"strategies": ["qplacer", "classic"]},
    ])
    def test_merge_rejects_mismatched_shards(self, tmp_path, mismatch):
        import json
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = {"kind": "workload-shard", "topology": "grid-25",
                "workloads": ["bv-9"], "shard_count": 2,
                "num_mappings": 2, "base_seed": 0, "shard_index": 0,
                "strategies": ["qplacer"],
                "config": canonicalize(PlacerConfig()), "fidelity": {}}
        a.write_text(json.dumps(base))
        b.write_text(json.dumps({**base, **mismatch, "shard_index": 1}))
        with pytest.raises(SystemExit):
            main(["workloads", "merge", str(a), str(b)])


class TestServeCommand:
    def test_serve_round_trip_subprocess(self, tmp_path):
        """`repro serve` boots, serves a job over HTTP, stops cleanly.

        The same choreography as the CI service smoke step, on an
        ephemeral port with a stub-fast map request.
        """
        from repro.service import ServiceClient

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--jobs", "1",
             "--store-dir", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(tmp_path))
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match, f"no address in banner: {banner!r}"
            client = ServiceClient(f"http://127.0.0.1:{match.group(1)}",
                                   timeout=30.0)
            assert client.healthz()["status"] == "ok"
            result = client.run(
                "map", {"benchmark": "bv-4", "topology": "grid-25",
                        "num_mappings": 2}, timeout=120)
            assert len(result["mappings"]) == 2
            client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
