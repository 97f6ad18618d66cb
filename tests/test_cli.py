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

    def test_cache_dir_defaults_to_the_environment(self, tmp_path,
                                                   monkeypatch):
        from repro.cli import _runner_from

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert build_parser().parse_args(["evaluate-all"]).cache_dir is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        args = build_parser().parse_args(["evaluate-all"])
        assert _runner_from(args).store.root == tmp_path
        flag = build_parser().parse_args(
            ["evaluate-all", "--cache-dir", str(tmp_path / "flag")])
        assert _runner_from(flag).store.root == tmp_path / "flag"

    def test_serve_cache_dir_flag_removed(self, capsys):
        """The service caches runner entries in its own store."""
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["serve", "--cache-dir", "x"])
        assert err.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err


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

    def test_profile_evaluate_pipeline(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "phases.json"
        assert main(["profile", "grid-25", "--pipeline", "evaluate",
                     "--benchmark", "bv-4", "--mappings", "4",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "Evaluate phases" in out and "(wall clock)" in out
        doc = json.loads(out_json.read_text())
        assert (doc["pipeline"], doc["benchmark"], doc["mappings"]) == (
            "evaluate", "bv-4", 4)
        phases = doc["phases"]
        top = {path for path in phases if "/" not in path}
        # Placement and the violation table are built before the
        # profiler opens, so no placer phase shows up.
        assert top == {"subsets", "placement", "route", "transpile",
                       "schedule", "score"}
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


class TestMappingsValidation:
    """``--mappings 0`` used to place the whole suite first and then die
    with ZeroDivisionError; it is a usage error now."""

    @pytest.mark.parametrize("argv", [
        ["evaluate", "grid-25", "--mappings", "0", "--benchmarks", "bv-4"],
        ["evaluate-all", "--topologies", "grid-25", "--mappings", "0",
         "--benchmarks", "bv-4"],
        ["workloads", "evaluate", "--topology", "grid-25", "--workloads",
         "bv-4", "--mappings", "0"],
    ])
    def test_zero_mappings_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestSeedAndJobsValidation:
    """A negative seed used to reach ``np.random.SeedSequence`` and die
    with a numpy traceback, and ``--jobs 0`` with ParallelRunner's
    ValueError; both are usage errors now, raised before any work."""

    @pytest.mark.parametrize("argv", [
        ["place", "grid-25", "--seed", "-1"],
        ["profile", "grid-25", "--seed", "-1"],
        ["evaluate", "grid-25", "--seed", "-1", "--benchmarks", "bv-4"],
        ["evaluate-all", "--topologies", "grid-25", "--seed", "-1",
         "--jobs", "1"],
        ["sweep", "grid-25", "--seed", "-1", "--jobs", "1"],
        ["ablation", "grid-25", "--seed", "-1", "--jobs", "1"],
        ["workloads", "evaluate", "--topology", "grid-25", "--workloads",
         "bv-4", "--seed", "-1", "--jobs", "1"],
        ["workloads", "evaluate", "--topology", "grid-25", "--workloads",
         "bv-4", "--base-seed", "-1", "--jobs", "1"],
    ], ids=["place", "profile", "evaluate", "evaluate-all", "sweep",
            "ablation", "workloads-evaluate", "workloads-evaluate-base-seed"])
    def test_negative_seed_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["evaluate-all", "--topologies", "grid-25"],
        ["sweep", "grid-25"],
        ["ablation", "grid-25"],
        ["workloads", "evaluate", "--topology", "grid-25", "--workloads",
         "bv-4"],
        ["ensemble", "grid-25", "--samples", "2"],
    ], ids=["evaluate-all", "sweep", "ablation", "workloads-evaluate",
            "ensemble"])
    def test_zero_jobs_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--jobs", "0"])
        assert err.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestEnsembleCommand:
    """``repro ensemble`` reads its flags through the service's request
    parser: the same inputs, defaults and messages as POST /jobs."""

    def test_json_points_match_the_direct_pipeline(self, capsys, tmp_path):
        import json

        from repro.analysis.runner import ParallelRunner
        from repro.ensembles import run_ensemble_request
        from repro.service.requests import parse_request

        out = tmp_path / "ens.json"
        assert main(["ensemble", "grid-25", "--samples", "4", "--sigma",
                     "0.05", "--jobs", "1", "--json", str(out)]) == 0
        assert "yield curve" in capsys.readouterr().out
        request = parse_request("ensemble", {"topology": "grid-25",
                                             "sigmas": [0.05],
                                             "samples": 4})
        direct = run_ensemble_request(request, ParallelRunner(max_workers=1))
        assert json.loads(out.read_text())["points"] == \
            json.loads(json.dumps(direct["points"]))

    def test_omitted_flags_take_the_request_defaults(self, monkeypatch,
                                                     capsys):
        import repro.ensembles
        from repro.service.requests import EnsembleRequest

        seen = []

        def fake(request, runner, chunk_size=None, on_point=None):
            seen.append(request)
            return {"points": []}

        monkeypatch.setattr(repro.ensembles, "run_ensemble_request", fake)
        assert main(["ensemble", "grid-25", "--jobs", "1"]) == 0
        assert seen == [EnsembleRequest(topology="grid-25")]

    @pytest.mark.parametrize("flags,payload", [
        (["--bootstrap", "-5"], {"bootstrap": -5}),
        (["--repair", "10", "--samples", "4"],
         {"repair_samples": 10, "samples": 4}),
        (["--seed", "-1"], {"seed": -1}),
        (["--sigma", "2"], {"sigmas": "2"}),
        (["--strategy", "greedy"], {"strategy": "greedy"}),
    ])
    def test_service_rejections_exit_2_with_its_message(self, flags,
                                                        payload, capsys):
        from repro.service.requests import RequestError, parse_request

        with pytest.raises(RequestError) as service:
            parse_request("ensemble", {"topology": "grid-25", **payload})
        with pytest.raises(SystemExit) as err:
            main(["ensemble", "grid-25", *flags])
        assert err.value.code == 2
        assert str(service.value) in capsys.readouterr().err

    #: ``repro ensemble`` flag dest -> the ``EnsembleRequest`` field.
    FLAG_FIELDS = {"segment_size": "segment_size_mm", "seed": "seed",
                   "sigma": "sigmas", "samples": "samples",
                   "resonator_sigma_scale": "resonator_sigma_scale",
                   "base_seed": "base_seed", "strategy": "strategy",
                   "repair": "repair_samples",
                   "max_ph_percent": "max_ph_percent",
                   "bootstrap": "bootstrap"}

    def test_help_defaults_are_the_request_defaults(self):
        """The help text restates the request defaults; every one it
        states must equal the dataclass field it stands for."""
        import argparse
        import dataclasses

        from repro.service.requests import EnsembleRequest

        defaults = {f.name: f.default
                    for f in dataclasses.fields(EnsembleRequest)}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        stated = {}
        for action in sub.choices["ensemble"]._actions:
            match = re.search(r"[(;] ?default ([^;=)\s]+)",
                              action.help or "")
            if match and action.dest in self.FLAG_FIELDS:
                field = self.FLAG_FIELDS[action.dest]
                default = defaults[field]
                text = match.group(1)
                stated[field] = (tuple(float(v) for v in text.split(","))
                                 if isinstance(default, tuple)
                                 else type(default)(text))
        assert set(stated) == set(self.FLAG_FIELDS.values())
        assert stated == {name: defaults[name] for name in stated}

    def test_parser_does_not_import_the_service(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        code = ("import sys; from repro.cli import build_parser; "
                "build_parser(); "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('repro.service')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_warm_start_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["ensemble", "grid-25",
                                       "--warm-start"])
        assert err.value.code == 2
        assert "--warm-start" in capsys.readouterr().err


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
