"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``place``     — place a topology and print/export the layout
* ``profile``   — place a topology and print the per-phase runtime
  breakdown (preprocess / global / legalize / detailed); with
  ``--pipeline map``, compile one benchmark's mapping suite instead
  (subsets / placement / route / transpile / schedule); with
  ``--pipeline evaluate``, compile it and score every mapping's Eq. 15
  fidelity on the placed layout (the same stages, then score)
* ``evaluate``  — Fig. 11/12/13 evaluation on one topology
* ``evaluate-all`` — the whole paper evaluation across topologies,
  fanned over a process pool (``--jobs``) with an optional on-disk
  result cache (``--cache-dir`` / ``$REPRO_CACHE_DIR``)
* ``sweep``     — Fig. 15 / Table II segment-size sweep
* ``ablation``  — design-choice ablation table
* ``physics``   — the Fig. 4/5/6 physics curves and TM110 table
* ``topologies`` — list the registered device topologies
* ``workloads list``  — workload families and named suites
* ``workloads build`` — build workload circuits, print their stats
* ``workloads evaluate`` — sharded fidelity study over a workload
  suite (``--shard-index/--shard-count`` is the cross-machine
  contract; omit the index to fan every shard over the local pool)
* ``workloads merge`` — merge per-shard JSON results
* ``serve``     — placement-as-a-service: HTTP API + job queue +
  content-addressed artifact store over the whole pipeline
  (``docs/service.md``)
* ``ensemble``  — Monte-Carlo disorder-ensemble sweep: yield and
  fidelity curves over fabrication sigma, with optional incremental
  re-place repair of failing samples (``docs/ensembles.md``)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Optional

from . import constants
from .analysis import (
    area_experiment,
    build_suite,
    compute_layout_metrics,
    fidelity_experiment,
    fidelity_table,
    format_table,
    resonator_integrity,
    segment_sweep,
    summary_experiment,
    summary_table,
    sweep_table,
)
from .analysis.ablation import ablation_experiment
from .analysis.experiments import STRATEGIES, run_full_evaluation
from .analysis.runner import ParallelRunner
from .core import PlacerConfig, QPlacer

#: Default benchmark subset for the evaluate commands (5 of the 8).
DEFAULT_CLI_BENCHMARKS = ("bv-4", "bv-16", "qaoa-9", "ising-4", "qgan-4")
from .devices import (PAPER_TOPOLOGY_ORDER, SCALE_TOPOLOGY_ORDER,
                      build_netlist, get_topology)
from .io import save_gds, save_layout, save_svg
from .io.serialization import canonicalize
from .io.store import Store


def _int_at_least(text: str, low: int, expected: str) -> int:
    """Parse an integer ``>= low`` as a parse-time argparse error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {expected}, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: integer >= 1."""
    return _int_at_least(text, 1, "a positive integer (>= 1)")


def _nonnegative_int(text: str) -> int:
    """argparse type: integer >= 0 (seeds)."""
    return _int_at_least(text, 0, "a non-negative integer")


def _detailed_passes(text: str) -> Optional[int]:
    """argparse type: ``auto`` or an integer >= 0."""
    if text == "auto":
        return None
    return _int_at_least(text, 0, "'auto' or a non-negative integer")


def _add_common_placer_args(parser: argparse.ArgumentParser,
                            seed_type: Callable[[str], int] = _nonnegative_int
                            ) -> None:
    parser.add_argument("topology", help="topology name, e.g. falcon-27")
    parser.add_argument("--segment-size", type=float,
                        default=constants.DEFAULT_SEGMENT_SIZE_MM,
                        help="resonator segment size lb in mm (default 0.3)")
    parser.add_argument("--seed", type=seed_type, default=0,
                        help="placement seed (default 0)")
    _add_detailed_passes_arg(parser)


def _add_detailed_passes_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--detailed-passes", type=_detailed_passes,
                        default=None, metavar="N|auto",
                        help="detailed-placement sweeps after "
                             "legalization: a count, 0 to disable, or "
                             "auto = 1 on condor-scale topologies and 0 "
                             "on the paper tiers (default auto)")


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=_positive_int, default=None,
                        help="worker processes (default: CPU count)")


def _add_runner_args(parser: argparse.ArgumentParser,
                     cache_dir: Optional[str]) -> None:
    _add_jobs_arg(parser)
    parser.add_argument("--cache-dir", default=cache_dir,
                        help="on-disk result cache directory "
                             "(default: $REPRO_CACHE_DIR, unset = off)")


def _runner_from(args: argparse.Namespace) -> ParallelRunner:
    store = Store(args.cache_dir) if args.cache_dir else None
    return ParallelRunner(max_workers=args.jobs, store=store)


def _print_cache_line(runner: ParallelRunner) -> None:
    if runner.store is not None:
        print(f"cache: {runner.cache_hits} hits, {runner.cache_misses} "
              f"misses under {runner.store.root}")


def _config_from(args: argparse.Namespace) -> PlacerConfig:
    """The placer config a command's arguments describe.

    ``--classic`` (``place`` / ``profile``) selects the Classic baseline
    with the same overrides.
    """
    config = PlacerConfig(segment_size_mm=args.segment_size, seed=args.seed,
                          detailed_passes=getattr(args, "detailed_passes",
                                                  None))
    if getattr(args, "classic", False):
        return PlacerConfig.classic(config)
    return config


def cmd_topologies(_args: argparse.Namespace) -> int:
    rows = []
    for name in PAPER_TOPOLOGY_ORDER:
        topo = get_topology(name)
        rows.append([name, topo.num_qubits, topo.num_couplers,
                     topo.description])
    print(format_table(["name", "qubits", "couplers", "description"], rows,
                       title="Registered topologies (Table I)"))
    rows = []
    for name in SCALE_TOPOLOGY_ORDER:
        topo = get_topology(name)
        rows.append([name, topo.num_qubits, topo.num_couplers,
                     topo.description])
    print()
    print(format_table(["name", "qubits", "couplers", "description"], rows,
                       title="Scale tiers (pruned frequency pairs, incremental density)"))
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    config = _config_from(args)
    netlist = build_netlist(get_topology(args.topology))
    result = QPlacer(config).place(netlist)
    metrics = compute_layout_metrics(result.layout)
    rows = [
        ["strategy", result.layout.strategy],
        ["cells", result.num_cells],
        ["iterations", result.iterations],
        ["runtime (s)", f"{result.runtime_s:.1f}"],
        ["Amer (mm^2)", f"{metrics.amer_mm2:.1f}"],
        ["utilization", f"{metrics.utilization:.3f}"],
        ["Ph (%)", f"{metrics.ph_percent:.3f}"],
        ["impacted qubits", metrics.impacted_qubits],
        ["resonator integrity", f"{resonator_integrity(result.layout):.2f}"],
    ]
    print(format_table(["quantity", "value"], rows,
                       title=f"Placement — {args.topology}"))
    if args.svg:
        save_svg(result.layout, args.svg)
        print(f"wrote {args.svg}")
    if args.gds:
        save_gds(result.layout, args.gds)
        print(f"wrote {args.gds}")
    if args.json:
        save_layout(result.layout, args.json,
                    segment_size_mm=args.segment_size)
        print(f"wrote {args.json}")
    return 0


def _phase_rows(phases, wall_s: float) -> List[List[str]]:
    """Phase table rows, top-level shares of their sum, then the wall."""
    top_total = sum(s for path, s in phases.items() if "/" not in path)
    rows = []
    for path in sorted(phases, key=lambda p: (p.split("/")[0], p)):
        seconds = phases[path]
        share = (f"{100.0 * seconds / top_total:.1f}%"
                 if "/" not in path and top_total > 0 else "")
        rows.append([path, f"{seconds:.3f}", share])
    rows.append(["(wall clock)", f"{wall_s:.3f}", "100.0%"])
    return rows


def cmd_profile(args: argparse.Namespace) -> int:
    """Print one pipeline's per-phase runtime breakdown.

    ``--pipeline place`` places the topology; ``--pipeline map``
    compiles ``--benchmark`` onto it at ``--mappings`` subsets (base
    seed ``--seed``) with :func:`repro.circuits.mapping.map_suite_arrays`.
    ``--pipeline evaluate`` places the topology (QPlacer, or Classic
    with ``--classic``) and builds its violation table first,
    unprofiled, then profiles the same compile followed by the Eq. 15
    fidelity of every mapping on that layout (the ``score`` phase).
    """
    import json
    import time

    if args.pipeline in ("map", "evaluate"):
        from . import profiling
        from .circuits.mapping import map_suite_arrays
        from .crosstalk.fidelity import (ViolationTable,
                                         estimate_program_fidelity)
        from .workloads import get_workload

        circuit = get_workload(args.benchmark)
        topology = get_topology(args.topology)
        if args.pipeline == "evaluate":
            layout = QPlacer(_config_from(args)).place(
                build_netlist(topology)).layout
            table = ViolationTable.build(layout)
        with profiling.PhaseProfiler() as prof:
            start = time.perf_counter()
            maps = map_suite_arrays(circuit, topology,
                                    num_mappings=args.mappings,
                                    base_seed=args.seed)
            if args.pipeline == "evaluate":
                with profiling.phase("score"):
                    for mapped in maps:
                        estimate_program_fidelity(layout, mapped,
                                                  violations=table)
            wall = time.perf_counter() - start
        phases = prof.flat_seconds()
        stage = "Compile" if args.pipeline == "map" else "Evaluate"
        title = (f"{stage} phases — {args.benchmark} on {args.topology} "
                 f"({args.mappings} mappings)")
        doc = {"pipeline": args.pipeline, "topology": args.topology,
               "benchmark": args.benchmark, "mappings": args.mappings,
               "runtime_s": wall}
    else:
        result = QPlacer(_config_from(args)).place(
            build_netlist(get_topology(args.topology)))
        phases, wall = result.phase_profile, result.runtime_s
        title = (f"Placement phases — {args.topology} "
                 f"({result.num_cells} cells)")
        doc = {"topology": args.topology, "num_cells": result.num_cells,
               "runtime_s": wall}
    print(format_table(["phase", "seconds", "share"],
                       _phase_rows(phases, wall), title=title))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({**doc, "phases": phases}, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from(args)
    suite = build_suite(args.topology, segment_size_mm=args.segment_size,
                        config=config)
    benchmarks = tuple(args.benchmarks.split(",")) if args.benchmarks else \
        DEFAULT_CLI_BENCHMARKS
    fidelity = fidelity_experiment(suite, benchmarks=benchmarks,
                                   num_mappings=args.mappings)
    print(fidelity_table(fidelity, args.topology))
    print()
    print(summary_table(summary_experiment(
        suite, benchmarks=benchmarks, num_mappings=args.mappings,
        fidelity=fidelity)))
    print()
    ratios = area_experiment(suite)
    rows = [[s, f"{r:.3f}"] for s, r in sorted(ratios.items())]
    print(format_table(["strategy", "Amer ratio"], rows,
                       title="Fig.13 area ratios (vs Qplacer)"))
    return 0


def cmd_evaluate_all(args: argparse.Namespace) -> int:
    topologies = (tuple(args.topologies.split(","))
                  if args.topologies else PAPER_TOPOLOGY_ORDER)
    benchmarks = (tuple(args.benchmarks.split(",")) if args.benchmarks else
                  DEFAULT_CLI_BENCHMARKS)
    runner = _runner_from(args)
    results = run_full_evaluation(
        topology_names=topologies, benchmarks=benchmarks,
        num_mappings=args.mappings,
        segment_size_mm=args.segment_size,
        config=_config_from(args),
        runner=runner)
    for name, entry in results.items():
        print(fidelity_table(entry["fidelity"], name))
        print()
        print(summary_table(entry["summary"]))
        print()
        rows = [[s, f"{r:.3f}"] for s, r in sorted(entry["area_ratio"].items())]
        print(format_table(["strategy", "Amer ratio"], rows,
                           title=f"Fig.13 area ratios — {name}"))
        print()
    _print_cache_line(runner)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = segment_sweep(args.topology,
                         config=PlacerConfig(seed=args.seed),
                         runner=_runner_from(args))
    print(sweep_table(rows))
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    rows = ablation_experiment(args.topology,
                               config=_config_from(args),
                               runner=_runner_from(args))
    body = [[r.variant, f"{r.ph_percent:.3f}", r.impacted_qubits,
             f"{r.amer_mm2:.1f}", f"{r.integrity:.2f}",
             f"{r.runtime_s:.1f}"]
            for r in rows]
    print(format_table(
        ["variant", "Ph (%)", "impacted", "Amer (mm^2)", "integrity",
         "RT (s)"],
        body, title=f"Ablation — {args.topology}"))
    return 0


def cmd_physics(_args: argparse.Namespace) -> int:
    from .analysis import coupling_vs_detuning, coupling_vs_distance
    from .physics import tm110_frequency_ghz

    fig4 = coupling_vs_detuning(num_points=17)
    rows = [[f"{f:.2f}", f"{1e3 * g:.3f}"]
            for f, g in zip(fig4["freq2_ghz"],
                            fig4["effective_coupling_ghz"])]
    print(format_table(["w2 (GHz)", "g_eff (MHz)"], rows,
                       title="Fig.4 coupling vs detuning"))
    print()
    fig5 = coupling_vs_distance(num_points=9)
    rows = [[f"{d:.2f}", f"{c:.4f}", f"{1e3 * g:.3f}"]
            for d, c, g in zip(fig5["distance_mm"], fig5["cp_ff"],
                               fig5["g_ghz"])]
    print(format_table(["d (mm)", "Cp (fF)", "g (MHz)"], rows,
                       title="Fig.5-b coupling vs distance"))
    print()
    rows = [[f"{s:.0f}x{s:.0f}", f"{tm110_frequency_ghz(s, s):.2f}"]
            for s in (5.0, 7.5, 10.0)]
    print(format_table(["substrate (mm)", "TM110 (GHz)"], rows,
                       title="Sec.III-C box modes"))
    return 0


def cmd_workloads_list(_args: argparse.Namespace) -> int:
    from .workloads import SUITES, WORKLOAD_FAMILIES

    rows = []
    for name in sorted(WORKLOAD_FAMILIES):
        family = WORKLOAD_FAMILIES[name]
        rows.append([name, family.min_width,
                     "yes" if family.supports_depth else "-",
                     "yes" if family.randomized else "-",
                     family.description])
    print(format_table(
        ["family", "min width", "depth", "seeded", "description"], rows,
        title="Workload families"))
    print()
    rows = [[name, " ".join(spec.name for spec in specs)]
            for name, specs in SUITES.items()]
    print(format_table(["suite", "workloads"], rows, title="Named suites"))
    return 0


def cmd_workloads_build(args: argparse.Namespace) -> int:
    import time

    from .circuits.batch import ArrayCircuit, transpile_arrays
    from .io.serialization import circuit_content_digest
    from .workloads import resolve_workload_names, get_workload

    names = []
    for item in args.names:
        names.extend(resolve_workload_names(item))
    headers = ["workload", "qubits", "gates", "2q gates", "depth"]
    if args.digest:
        headers += ["content digest"]
    if args.transpile:
        headers += ["basis gates", "basis depth", "transpile (s)"]
    rows = []
    for name in names:
        circuit = get_workload(name)
        row = [name, circuit.num_qubits, circuit.size,
               circuit.two_qubit_gate_count, circuit.depth()]
        if args.digest:
            row += [circuit_content_digest(circuit)[:16]]
        if args.transpile:
            start = time.perf_counter()
            basis = transpile_arrays(
                ArrayCircuit.from_circuit(circuit)).to_circuit()
            elapsed = time.perf_counter() - start
            row += [basis.size, basis.depth(), f"{elapsed:.3f}"]
        rows.append(row)
    print(format_table(headers, rows, title="Workload circuits"))
    return 0


#: Shard-payload keys that must agree across every shard of a merge —
#: the protocol context plus the canonical placer config, so shards
#: produced with different settings cannot silently combine into a
#: table that matches no single-process run.
SHARD_CONTEXT_KEYS = (
    "topology", "workloads", "shard_count", "num_mappings", "base_seed",
    "strategies", "config",
)


def _shard_payload(args: argparse.Namespace, names: tuple,
                   config: PlacerConfig, fidelity: dict) -> dict:
    return {
        "kind": "workload-shard",
        "topology": args.topology,
        "workloads": list(names),
        "shard_index": args.shard_index,
        "shard_count": args.shard_count,
        "num_mappings": args.mappings,
        "base_seed": args.base_seed,
        "strategies": args.strategies.split(","),
        "config": canonicalize(config),
        "fidelity": fidelity,
    }


def cmd_workloads_evaluate(args: argparse.Namespace) -> int:
    import json

    from .analysis.experiments import sharded_fidelity_experiment
    from .workloads import resolve_workload_names

    names = resolve_workload_names(args.suite or
                                   tuple(args.workloads.split(",")))
    strategies = tuple(args.strategies.split(","))
    config = _config_from(args)
    runner = _runner_from(args)
    if args.shard_index is not None:
        if args.shard_count is None:
            raise SystemExit("--shard-index requires --shard-count")
        if not 0 <= args.shard_index < args.shard_count:
            # Catch the off-by-one before the (condor-scale) placement.
            raise SystemExit(
                f"--shard-index must be in 0..{args.shard_count - 1}, "
                f"got {args.shard_index}")
        suite = build_suite(args.topology,
                            segment_size_mm=args.segment_size,
                            strategies=strategies, config=config)
        fidelity = fidelity_experiment(
            suite, benchmarks=names, num_mappings=args.mappings,
            base_seed=args.base_seed, runner=runner,
            shard_index=args.shard_index, shard_count=args.shard_count)
        payload = _shard_payload(args, names, config, fidelity)
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"wrote shard {args.shard_index}/{args.shard_count} "
                  f"({len(fidelity)} benchmarks) to {args.json}")
        else:
            print(json.dumps(payload, indent=2))
        return 0
    fidelity = sharded_fidelity_experiment(
        args.topology, workloads=names, shard_count=args.shard_count,
        num_mappings=args.mappings, base_seed=args.base_seed,
        segment_size_mm=args.segment_size, strategies=strategies,
        config=config, runner=runner)
    print(fidelity_table(fidelity, args.topology))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"topology": args.topology, "workloads": list(names),
                       "fidelity": fidelity}, fh, indent=2)
        print(f"wrote {args.json}")
    _print_cache_line(runner)
    return 0


def cmd_workloads_merge(args: argparse.Namespace) -> int:
    import json

    from .workloads import merge_fidelity_shards

    shards = []
    for path in args.shards:
        with open(path) as fh:
            shards.append(json.load(fh))
    first = shards[0]
    for shard in shards[1:]:
        for key in SHARD_CONTEXT_KEYS:
            a, b = shard.get(key), first.get(key)
            if a == b:
                continue
            if key == "config" and isinstance(a, dict) \
                    and isinstance(b, dict):
                a, b = a.get("__config__", {}), b.get("__config__", {})
                fields = sorted(k for k in set(a) | set(b)
                                if a.get(k) != b.get(k))
                raise SystemExit(
                    f"shard files disagree on placer config fields "
                    f"{fields}")
            raise SystemExit(
                f"shard files disagree on {key!r}: {a!r} vs {b!r}")
    indices = [shard.get("shard_index") for shard in shards]
    if len(set(indices)) != len(indices):
        raise SystemExit(f"duplicate shard indices: {sorted(indices)}")
    missing = set(range(first.get("shard_count", 0))) - set(indices)
    if missing:
        raise SystemExit(f"missing shard indices: {sorted(missing)}")
    merged = merge_fidelity_shards([s["fidelity"] for s in shards],
                                   order=first["workloads"])
    print(fidelity_table(merged, first["topology"]))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"topology": first["topology"],
                       "workloads": first["workloads"],
                       "fidelity": merged}, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import PlacementService

    token = args.shutdown_token \
        or os.environ.get("REPRO_SHUTDOWN_TOKEN") or None
    service = PlacementService(
        store_dir=args.store_dir, host=args.host, port=args.port,
        workers=args.workers, runner_workers=args.jobs,
        verbose=args.verbose, shutdown_token=token,
        store_max_bytes=args.store_max_bytes)
    service.start()
    print(f"repro service listening on {service.base_url} "
          f"(store: {service.store.root}, workers: {args.workers})",
          flush=True)
    try:
        service.wait()
    except KeyboardInterrupt:
        pass
    service.stop()
    print("repro service stopped", flush=True)
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    """Run a disorder-ensemble sweep locally and print the yield curve.

    The flags are read through the service's request parser, so the
    command accepts exactly what a POST /jobs ``ensemble`` payload
    does, with the same messages; an omitted flag takes the request
    default.
    """
    from .ensembles import run_ensemble_request
    from .service.requests import RequestError, parse_request

    fields = {"topology": args.topology,
              "segment_size_mm": args.segment_size, "seed": args.seed,
              "sigmas": args.sigma, "samples": args.samples,
              "resonator_sigma_scale": args.resonator_sigma_scale,
              "base_seed": args.base_seed, "strategy": args.strategy,
              "repair_samples": args.repair,
              "max_ph_percent": args.max_ph_percent,
              "bootstrap": args.bootstrap,
              "config": None if args.detailed_passes is None
              else {"detailed_passes": args.detailed_passes}}
    try:
        request = parse_request("ensemble", {
            name: value for name, value in fields.items()
            if value is not None})
    except RequestError as exc:
        args.error(str(exc))

    def on_point(index: int, point) -> None:
        repair = point.get("repair")
        suffix = ""
        if repair is not None:
            suffix = (f", after repair "
                      f"{point['yield_after_repair'] * 100:.1f}%")
        print(f"  sigma {point['sigma_qubit_ghz']:g} GHz: yield "
              f"{point['yield'] * 100:.1f}%{suffix} "
              f"[{index + 1}/{len(request.sigmas)}]", flush=True)

    payload = run_ensemble_request(request, _runner_from(args),
                                   chunk_size=args.chunk_size,
                                   on_point=on_point)

    rows = []
    for point in payload["points"]:
        lo, hi = point["yield_ci"]
        flo, fhi = point["fidelity_ci"]
        repair = point.get("repair")
        after = (f"{point['yield_after_repair'] * 100:.1f}%"
                 if repair is not None else "-")
        rows.append([
            f"{point['sigma_qubit_ghz']:g}",
            f"{point['sigma_resonator_ghz']:g}",
            f"{point['yield'] * 100:.1f}%",
            f"[{lo * 100:.1f}, {hi * 100:.1f}]%",
            after,
            f"{point['mean_ph_percent']:.3f}",
            f"{point['mean_hotspots']:.2f}",
            f"{point['fidelity_mean']:.6f}",
            f"[{flo:.6f}, {fhi:.6f}]",
        ])
    print(format_table(
        ["sigma_q", "sigma_r", "yield", "yield 95% CI", "after repair",
         "mean Ph%", "hotspots", "fidelity", "fidelity 95% CI"],
        rows,
        title=f"{request.topology}: disorder-ensemble yield curve "
              f"({request.samples} samples/point, strategy "
              f"{request.strategy})"))
    if args.json:
        import json as _json
        from pathlib import Path

        Path(args.json).write_text(_json.dumps(payload, indent=2,
                                               sort_keys=True))
        print(f"wrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # The one place the cache directory comes from the environment.
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Qplacer reproduction: frequency-aware quantum-chip "
                    "placement (ISCA 2025)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topologies", help="list registered topologies")
    p.set_defaults(func=cmd_topologies)

    p = sub.add_parser("place", help="place one topology")
    _add_common_placer_args(p)
    p.add_argument("--classic", action="store_true",
                   help="use the frequency-oblivious Classic baseline")
    p.add_argument("--svg", help="write an SVG rendering to this path")
    p.add_argument("--gds", help="write a GDSII export to this path")
    p.add_argument("--json", help="write a JSON serialisation to this path")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("profile",
                       help="place one topology (or compile a benchmark "
                            "onto it) and print the per-phase runtime "
                            "breakdown")
    _add_common_placer_args(p)
    p.add_argument("--pipeline", choices=("place", "map", "evaluate"),
                   default="place",
                   help="place the topology (default), compile "
                        "--benchmark onto it at --mappings subsets with "
                        "--seed as the base subset seed (map), or compile "
                        "it and score every mapping on the topology's "
                        "layout (evaluate; QPlacer, or Classic with "
                        "--classic)")
    p.add_argument("--benchmark", default="bv-16",
                   help="workload to compile with --pipeline map or "
                        "evaluate (default bv-16)")
    p.add_argument("--mappings", type=_positive_int, default=50,
                   help="mapping subsets for --pipeline map or evaluate "
                        "(paper: 50)")
    p.add_argument("--classic", action="store_true",
                   help="profile the frequency-oblivious Classic baseline")
    p.add_argument("--json", help="write the phase breakdown to this path")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("evaluate",
                       help="Fig. 11/12/13 evaluation on one topology")
    _add_common_placer_args(p)
    p.add_argument("--mappings", type=_positive_int, default=12,
                   help="mapping subsets per benchmark (paper: 50)")
    p.add_argument("--benchmarks",
                   help="comma-separated benchmark list (default: 5 of 8)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("evaluate-all",
                       help="whole-paper evaluation, parallel across "
                            "topologies")
    p.add_argument("--topologies",
                   help="comma-separated topology list (default: all six)")
    p.add_argument("--segment-size", type=float,
                   default=constants.DEFAULT_SEGMENT_SIZE_MM)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--mappings", type=_positive_int, default=12,
                   help="mapping subsets per benchmark (paper: 50)")
    p.add_argument("--benchmarks",
                   help="comma-separated benchmark list (default: 5 of 8)")
    _add_detailed_passes_arg(p)
    _add_runner_args(p, cache_dir)
    p.set_defaults(func=cmd_evaluate_all)

    p = sub.add_parser("sweep", help="Fig. 15 / Table II segment-size sweep")
    p.add_argument("topology")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    _add_runner_args(p, cache_dir)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablation", help="design-choice ablation table")
    _add_common_placer_args(p)
    _add_runner_args(p, cache_dir)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("physics", help="Fig. 4/5/6 physics tables")
    p.set_defaults(func=cmd_physics)

    p = sub.add_parser("workloads",
                       help="scalable workload registry and sharded "
                            "fidelity evaluation")
    wsub = p.add_subparsers(dest="workloads_command", required=True)

    w = wsub.add_parser("list", help="workload families and named suites")
    w.set_defaults(func=cmd_workloads_list)

    w = wsub.add_parser("build",
                        help="build workload circuits and print stats")
    w.add_argument("names", nargs="+",
                   help="workload names (e.g. qaoa-433, qv-128-d6) or "
                        "suite names (e.g. condor-433)")
    w.add_argument("--transpile", action="store_true",
                   help="also transpile to the native basis (batched "
                        "engine) and report basis gate counts + time")
    w.add_argument("--digest", action="store_true",
                   help="also print each circuit's content digest "
                        "(the cache identity; truncated to 16 hex chars)")
    w.set_defaults(func=cmd_workloads_build)

    w = wsub.add_parser("evaluate",
                        help="(sharded) fidelity study over a workload "
                             "suite")
    w.add_argument("--topology", required=True,
                   help="topology name, e.g. condor-sm-433")
    group = w.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", help="named suite, e.g. condor-433")
    group.add_argument("--workloads",
                       help="comma-separated workload names")
    w.add_argument("--mappings", type=_positive_int, default=12,
                   help="mapping subsets per benchmark (paper: 50)")
    w.add_argument("--base-seed", type=_nonnegative_int, default=0,
                   help="first mapping-subset seed (default 0)")
    w.add_argument("--segment-size", type=float,
                   default=constants.DEFAULT_SEGMENT_SIZE_MM)
    w.add_argument("--seed", type=_nonnegative_int, default=0,
                   help="placement seed (default 0)")
    w.add_argument("--strategies", default=",".join(STRATEGIES),
                   help="comma-separated strategies to score")
    w.add_argument("--shard-index", type=int, default=None,
                   help="run only this shard (cross-machine contract; "
                        "write the partial result with --json and "
                        "combine with 'workloads merge')")
    w.add_argument("--shard-count", type=int, default=None,
                   help="total shards (with --shard-index: the "
                        "cross-machine split; alone: local pool fan-out)")
    w.add_argument("--json", help="write results to this JSON path")
    _add_detailed_passes_arg(w)
    _add_runner_args(w, cache_dir)
    w.set_defaults(func=cmd_workloads_evaluate)

    w = wsub.add_parser("merge",
                        help="merge per-shard JSON results into one table")
    w.add_argument("shards", nargs="+", help="shard JSON files")
    w.add_argument("--json", help="write the merged table to this path")
    w.set_defaults(func=cmd_workloads_merge)

    p = sub.add_parser("serve",
                       help="run the placement service (HTTP API + job "
                            "queue + artifact store)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8754,
                   help="bind port (default 8754; 0 picks a free port)")
    p.add_argument("--workers", type=int, default=2,
                   help="scheduler worker threads — concurrent distinct "
                        "jobs (default 2)")
    p.add_argument("--store-dir", default="repro-service-data",
                   help="artifact store directory "
                        "(default ./repro-service-data)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.add_argument("--shutdown-token", default=None,
                   help="bearer token required by POST /shutdown "
                        "(default $REPRO_SHUTDOWN_TOKEN; unset leaves "
                        "the route open)")
    p.add_argument("--store-max-bytes", type=_positive_int, default=None,
                   metavar="BYTES",
                   help="store size cap over artifacts and runner "
                        "entries, with oldest-first eviction on write "
                        "(default unbounded)")
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("ensemble",
                       help="Monte-Carlo disorder-ensemble sweep: "
                            "yield/fidelity curves over fabrication "
                            "sigma, with optional incremental re-place "
                            "repair of failing samples")
    # Plain ints: the service's request parser range-checks them.
    _add_common_placer_args(p, seed_type=int)
    p.add_argument("--sigma", metavar="S1,S2,...",
                   help="comma-separated qubit-frequency sigmas in GHz "
                        "(default 0.01,0.02,0.05)")
    p.add_argument("--samples", type=int,
                   help="disorder realisations per sigma point "
                        "(default 64)")
    p.add_argument("--resonator-sigma-scale", type=float, metavar="SCALE",
                   help="resonator sigma = qubit sigma x this scale "
                        "(default 0.5)")
    p.add_argument("--base-seed", type=int,
                   help="ensemble entropy root; sample i draws from "
                        "SeedSequence(base_seed, spawn_key=(i,)) "
                        "(default 0)")
    p.add_argument("--strategy",
                   help="which placement to freeze and score: "
                        f"{', '.join(STRATEGIES)} (default qplacer)")
    p.add_argument("--repair", type=int, metavar="N",
                   help="incrementally re-place up to N failing samples "
                        "per sigma point (legalize + detailed repair on "
                        "the cached positions; default 0 = frozen only)")
    p.add_argument("--max-ph-percent", type=float,
                   help="pass threshold on the hotspot poly share Ph "
                        "(default 0.0 = zero hotspots)")
    p.add_argument("--bootstrap", type=int,
                   help="bootstrap resamples for the yield/fidelity "
                        "confidence intervals (default 200; 0 disables)")
    p.add_argument("--chunk-size", type=_positive_int, default=None,
                   metavar="N",
                   help="samples per runner chunk (default: samples / "
                        "workers, rounded up)")
    p.add_argument("--json", help="write the full payload to this path")
    _add_runner_args(p, cache_dir)
    p.set_defaults(func=cmd_ensemble, error=p.error)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
