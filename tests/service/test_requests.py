"""Request parsing, normalisation, and validation rules."""

from __future__ import annotations

import pytest

from dataclasses import fields

from repro.core import PlacerConfig
from repro.service.requests import (FIELDS, REQUEST_TYPES, EvaluateRequest,
                                    FidelityRequest, MapRequest,
                                    PlaceRequest, RequestError,
                                    check_options, parse_request)

#: The smallest valid payload of each kind.
MINIMAL = {
    "place": {"topology": "grid-25"},
    "fidelity": {"topology": "grid-25", "workloads": ["bv-4"]},
    "map": {"benchmark": "bv-4", "topology": "grid-25"},
    "evaluate": {"topologies": ["grid-25"], "benchmarks": ["bv-4"]},
    "ensemble": {"topology": "grid-25"},
}


def _kinds_with(field):
    return [kind for kind, cls in sorted(REQUEST_TYPES.items())
            if field in {f.name for f in fields(cls)}]


class TestParsePlace:
    def test_minimal(self):
        req = parse_request("place", {"topology": "grid-25"})
        assert isinstance(req, PlaceRequest)
        assert req.strategies == ("qplacer", "classic", "human")
        assert req.include_layouts

    @pytest.mark.parametrize("key,value", [("seed", 5),
                                           ("segment_size_mm", 0.4)])
    def test_request_level_fields_rejected_inside_config(self, key, value):
        """Executors overwrite config-embedded seed/lb with the
        request-level fields, so accepting them would compute one thing
        and digest another."""
        with pytest.raises(RequestError) as err:
            parse_request("place", {"topology": "grid-25",
                                    "config": {key: value}})
        assert "request level" in str(err.value)

    def test_config_dict_becomes_placer_config(self):
        req = parse_request("place", {"topology": "grid-25",
                                      "config": {"num_bins": 32}})
        assert isinstance(req.config, PlacerConfig)
        assert req.config.num_bins == 32

    def test_strategies_list_and_csv(self):
        a = parse_request("place", {"topology": "grid-25",
                                    "strategies": ["qplacer"]})
        b = parse_request("place", {"topology": "grid-25",
                                    "strategies": "qplacer"})
        assert a.strategies == b.strategies == ("qplacer",)

    @pytest.mark.parametrize("payload,fragment", [
        ({"topology": "nowhere-9"}, "unknown topology"),
        ({"topology": "grid-25", "strategies": ["telepathy"]},
         "strategies"),
        ({"topology": "grid-25", "strategies": []}, "strategies"),
        ({"topology": "grid-25", "bogus_field": 1}, "bogus_field"),
        ({"topology": "grid-25", "config": {"bogus": 1}}, "config"),
        ({"topology": "grid-25", "config": {"num_bins": 2}}, "config"),
        ({"topology": "grid-25", "config": {"legalizer_screening": "hash"}},
         "config"),
    ])
    def test_rejections(self, payload, fragment):
        with pytest.raises(RequestError) as err:
            parse_request("place", payload)
        assert fragment in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(RequestError):
            parse_request("divine", {"topology": "grid-25"})

    def test_non_string_kind(self):
        with pytest.raises(RequestError):
            parse_request(["map"], {"topology": "grid-25"})

    def test_non_mapping_payload(self):
        with pytest.raises(RequestError):
            parse_request("place", [1, 2, 3])

    @pytest.mark.parametrize("field,value", [
        ("seed", "7"),
        ("segment_size_mm", "0.3"),
        ("include_layouts", 1),
        ("topology", 25),
    ])
    def test_wrong_typed_fields_are_request_errors(self, field, value):
        """Type confusion must be a 400, never an escaping TypeError."""
        with pytest.raises(RequestError):
            parse_request("place", {"topology": "grid-25", field: value})


class TestParseFidelity:
    def test_suite_name_expands(self):
        req = parse_request("fidelity", {"topology": "grid-25",
                                         "workloads": "paper-8"})
        assert isinstance(req, FidelityRequest)
        assert len(req.workloads) == 8

    def test_empty_workloads_rejected(self):
        with pytest.raises(RequestError):
            parse_request("fidelity", {"topology": "grid-25"})

    def test_bad_workload_rejected(self):
        with pytest.raises(RequestError):
            parse_request("fidelity", {"topology": "grid-25",
                                       "workloads": ["astrology-7"]})


class TestParseMap:
    def test_minimal(self):
        req = parse_request("map", {"benchmark": "bv-4",
                                    "topology": "grid-25"})
        assert isinstance(req, MapRequest)
        assert req.router == "basic"

    def test_bad_router(self):
        with pytest.raises(RequestError):
            parse_request("map", {"benchmark": "bv-4",
                                  "topology": "grid-25",
                                  "router": "teleport"})

    def test_bad_num_mappings(self):
        with pytest.raises(RequestError):
            parse_request("map", {"benchmark": "bv-4",
                                  "topology": "grid-25",
                                  "num_mappings": 0})

    def test_string_num_mappings_is_request_error(self):
        with pytest.raises(RequestError):
            parse_request("map", {"benchmark": "bv-4",
                                  "topology": "grid-25",
                                  "num_mappings": "5"})

    def test_unknown_benchmark_rejected_at_parse_time(self):
        with pytest.raises(RequestError) as err:
            parse_request("map", {"benchmark": "astrology-7",
                                  "topology": "grid-25"})
        assert "benchmark" in str(err.value)

    def test_bad_optimization_level(self):
        with pytest.raises(RequestError):
            parse_request("map", {"benchmark": "bv-4",
                                  "topology": "grid-25",
                                  "optimization_level": 7})


class TestCheckOptions:
    def test_valid_options_pass_through(self):
        assert check_options("map", {"chunk_size": 4}) == {"chunk_size": 4}
        assert check_options("fidelity", {"shard_count": 2}) == \
            {"shard_count": 2}
        assert check_options("place", {}) == {}

    @pytest.mark.parametrize("kind,options", [
        ("map", {"shard_count": 2}),      # wrong kind's option
        ("place", {"chunk_size": 2}),     # place takes none
        ("map", {"chunk_size": 0}),       # non-positive
        ("map", {"chunk_size": "2"}),     # wrong type
        ("map", {"chunk_size": True}),    # bool is not an int here
        ("fidelity", {"shard_count": -1}),
    ])
    def test_invalid_options_rejected(self, kind, options):
        """Options never enter the digest, so a bad one would poison
        every identical request coalescing onto the job — reject at
        submit time instead."""
        with pytest.raises(RequestError):
            check_options(kind, options)


class TestParseEvaluate:
    def test_paper_defaults_materialise(self):
        req = parse_request("evaluate", {})
        assert isinstance(req, EvaluateRequest)
        assert len(req.topologies) == 6
        assert len(req.benchmarks) == 8

    def test_explicit_defaults_coalesce(self):
        from repro.circuits.library import PAPER_BENCHMARKS
        from repro.devices.topology import PAPER_TOPOLOGY_ORDER
        from repro.service.store import request_digest

        a = parse_request("evaluate", {})
        b = parse_request("evaluate",
                          {"topologies": list(PAPER_TOPOLOGY_ORDER),
                           "benchmarks": list(PAPER_BENCHMARKS)})
        assert request_digest("evaluate", a) == request_digest("evaluate", b)

    def test_bad_topology_in_list(self):
        with pytest.raises(RequestError):
            parse_request("evaluate", {"topologies": ["grid-25", "oops"]})

    def test_bad_benchmark_in_list(self):
        with pytest.raises(RequestError):
            parse_request("evaluate", {"topologies": ["grid-25"],
                                       "benchmarks": ["bv-4", "vibes-3"]})


class TestRemovedSurface:
    """The retired refine kind, placer-portfolio config fields and
    interaction-backend knobs are clean 400s, never a queued job that
    fails."""

    def test_request_types_are_the_five_kinds(self):
        assert sorted(REQUEST_TYPES) == ["ensemble", "evaluate", "fidelity",
                                         "map", "place"]

    def test_refine_kind_rejected(self):
        with pytest.raises(RequestError) as err:
            parse_request("refine", {"source_digest": "ab" * 32})
        assert "unknown request kind" in str(err.value)

    @pytest.mark.parametrize("key,value", [("placer", "force"),
                                           ("sa_rounds", 6),
                                           ("portfolio_members", ["force"]),
                                           ("interaction_backend", "sparse"),
                                           ("density_flush_interval", 4)])
    @pytest.mark.parametrize("kind,payload", [
        ("place", {"topology": "grid-25"}),
        ("fidelity", {"topology": "grid-25", "workloads": ["bv-4"]}),
        ("evaluate", {"topologies": ["grid-25"]}),
        ("ensemble", {"topology": "grid-25"}),
    ])
    def test_retired_config_fields_rejected(self, kind, payload, key, value):
        with pytest.raises(RequestError) as err:
            parse_request(kind, {**payload, "config": {key: value}})
        assert "invalid placer config" in str(err.value)
        assert key in str(err.value)


class TestFieldTable:
    """One rule per field name, shared by every kind that has it."""

    def test_every_request_field_has_one_entry(self):
        names = {f.name for cls in REQUEST_TYPES.values()
                 for f in fields(cls)}
        assert names == set(FIELDS)

    @pytest.mark.parametrize("kind,field", [
        (kind, field) for field in ("seed", "base_seed")
        for kind in _kinds_with(field)])
    def test_negative_seed_is_a_request_error(self, kind, field):
        """A negative seed used to queue a job that then failed inside
        ``np.random.SeedSequence``."""
        with pytest.raises(RequestError) as err:
            parse_request(kind, {**MINIMAL[kind], field: -1})
        assert str(err.value) == f"{field} must be non-negative"
        assert getattr(parse_request(kind, {**MINIMAL[kind], field: 0}),
                       field) == 0

    def test_seed_fields_cover_the_expected_kinds(self):
        assert _kinds_with("seed") == ["ensemble", "evaluate", "fidelity",
                                       "place"]
        assert _kinds_with("base_seed") == ["ensemble", "fidelity", "map"]

    @pytest.mark.parametrize("kind", _kinds_with("num_mappings"))
    def test_num_mappings_rule_is_shared(self, kind):
        with pytest.raises(RequestError) as err:
            parse_request(kind, {**MINIMAL[kind], "num_mappings": 0})
        assert str(err.value) == "num_mappings must be >= 1"

    @pytest.mark.parametrize("payload", [{"strategies": [["qplacer"]]},
                                         {"workloads": 5},
                                         {"workloads": [5]},
                                         {"workloads": {"bv-4": 1}}])
    def test_malformed_lists_are_request_errors(self, payload):
        """The lists used to escape as TypeError or AttributeError (HTTP
        500), and a JSON object passed as its list of keys."""
        kind = "fidelity"
        with pytest.raises(RequestError):
            parse_request(kind, {**MINIMAL[kind], **payload})
