"""The benchmark's three closed-loop workloads.

Each workload is one caller issuing a fixed op list: the next op starts
when the previous one returns.  ``setup()`` builds the inputs (it may
run several times; each call starts from scratch), ``op_list()`` gives
the timed ops, ``check()`` inspects one op's output outside the timing,
and ``finish()`` runs the checks that need every op.  The op list is a
pure function of ``(seed, seconds, tiny)``.
"""

from __future__ import annotations

import math
import random
import shutil
from pathlib import Path
from statistics import mean, median
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from repro import PlacerConfig, QPlacer, build_netlist, get_topology
from repro.circuits import mapping
from repro.core.preprocess import build_problem
from repro.core.wirelength import hpwl
from repro.crosstalk import fidelity
from repro.crosstalk.hotspots import hotspot_report
from repro.devices.topology import PAPER_TOPOLOGY_ORDER
from repro.ensembles import check_layout_legal
from repro.io.serialization import layout_from_dict
from repro.workloads.registry import SUITES, build_workload

from .checks import count_overlaps, off_coupling_gates
from .service_proc import ServiceProcess

#: Checkout root: holds ``src/`` and ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent

Op = Tuple[str, Callable[[], Any]]


def _passes(seconds: float, pass_s: float) -> int:
    """Op-list repetitions that fill a run of ``seconds``."""
    return max(1, round(seconds / pass_s))


class PlaceWorkload:
    """``QPlacer.place`` on prebuilt netlists: the paper's Table II flow.

    QPlacer on the six paper tiers plus ``grid-121`` (2695 cells, the
    only tier above the 2048-instance sparse-path threshold), Classic on
    the six paper tiers.  Placements run at placer seed 0, where the
    paper's Ph claims were verified; the workload seed shuffles the op
    order of every pass.
    """

    name = "place"
    #: Seconds one pass of the op list takes on a 2-core x86 box.
    PASS_S = 12.5
    #: Set-ups per end-to-end run (``setup_s`` is their median); set-up
    #: is ~0.6 s here, so a few more repeats keep one burst out of it.
    SETUP_REPEATS = 5
    SCALE_TIER = "grid-121"
    #: Warm-up tier: the smallest paper tier, placed by both strategies
    #: in every set-up so the set-up window holds real placement work.
    WARM_TIER = "grid-25"

    def __init__(self, seed: int, seconds: float, tiny: bool = False,
                 workdir: Optional[Path] = None) -> None:
        self.seed = seed
        self.tiers = ("grid-25",) if tiny else PAPER_TOPOLOGY_ORDER
        self.scale = () if tiny else (self.SCALE_TIER,)
        self.passes = 1 if tiny else _passes(seconds, self.PASS_S)
        self.netlists: Dict[str, Any] = {}

    def setup(self) -> None:
        self.netlists = {t: build_netlist(get_topology(t))
                         for t in self.tiers + self.scale}
        self.areas: List[float] = []
        self.wirelengths: List[float] = []
        warm = build_netlist(get_topology(self.WARM_TIER))
        for config in (PlacerConfig(), PlacerConfig.classic()):
            result = QPlacer(config).place(warm)
            hotspot_report(result.layout)
            check_layout_legal(result.problem, result.layout.positions)

    def op_list(self) -> List[Op]:
        base = [("qplacer", t) for t in self.tiers + self.scale] \
            + [("classic", t) for t in self.tiers]
        rng = random.Random(self.seed)
        ops: List[Op] = []
        for _ in range(self.passes):
            order = list(base)
            rng.shuffle(order)
            for strategy, tier in order:
                config = (PlacerConfig() if strategy == "qplacer"
                          else PlacerConfig.classic())
                netlist = self.netlists[tier]
                ops.append((f"{strategy}/{tier}",
                            lambda c=config, n=netlist: QPlacer(c).place(n)))
        return ops

    def check(self, label: str, result) -> List[str]:
        strategy, tier = label.split("/")
        layout, problem = result.layout, result.problem
        self.areas.append(layout.amer())
        self.wirelengths.append(hpwl(layout.positions, problem.nets))
        problems = []
        if strategy == "qplacer" and tier in self.tiers:
            if not check_layout_legal(problem, layout.positions):
                problems.append("layout fails check_layout_legal")
        else:
            overlaps = count_overlaps(layout.positions, problem.sizes)
            if overlaps:
                problems.append(f"{overlaps} overlapping footprints")
        if tier in self.tiers:
            ph = hotspot_report(layout).ph_percent
            if strategy == "qplacer" and ph > 0.0:
                problems.append(f"QPlacer Ph% = {ph} (expected 0)")
            if strategy == "classic" and not ph > 0.0:
                problems.append("Classic Ph% = 0 (expected > 0)")
        return problems

    def finish(self, ops) -> Dict[str, List[str]]:
        return {}

    def quality(self) -> Dict[str, float]:
        return {"area_mm2": math.fsum(self.areas) / self.passes,
                "hpwl_mm": math.fsum(self.wirelengths) / self.passes}

    def close(self) -> None:
        self.netlists = {}


class CompileWorkload:
    """The Sec. VI-A fidelity protocol on fixed eagle-127 layouts.

    One op per circuit of the ``eagle-127`` and ``paper-8`` suites:
    ``evaluation_mappings`` at 50 subsets, then the program fidelity of
    every mapping on the QPlacer and the Classic layout.  The layouts
    are placed in setup; the workload seed picks the subset seeds.
    """

    name = "compile"
    PASS_S = 11.0
    SETUP_REPEATS = 3
    MAPPINGS = 50

    def __init__(self, seed: int, seconds: float, tiny: bool = False,
                 workdir: Optional[Path] = None) -> None:
        self.seed = seed
        self.topology_name = "grid-25" if tiny else "eagle-127"
        self.suites = ("paper-8",) if tiny else ("eagle-127", "paper-8")
        self.mappings = 4 if tiny else self.MAPPINGS
        self.passes = 1 if tiny else _passes(seconds, self.PASS_S)

    def setup(self) -> None:
        self.topology = get_topology(self.topology_name)
        netlist = build_netlist(self.topology)
        self.layouts = {
            "qplacer": QPlacer(PlacerConfig()).place(netlist),
            "classic": QPlacer(PlacerConfig.classic()).place(netlist),
        }
        self.tables = {s: fidelity.ViolationTable.build(r.layout)
                       for s, r in self.layouts.items()}
        self.circuits = [(f"{suite}/{spec.name}", build_workload(spec))
                         for suite in self.suites
                         for spec in SUITES[suite]]
        self.edges = self.topology.coupling_map
        self.swaps = 0
        self.fidelities: Dict[str, Dict[str, List[float]]] = {
            "qplacer": {}, "classic": {}}
        warm = build_workload(SUITES["paper-8"][0])
        for mapped in mapping.evaluation_mappings(warm, self.topology,
                                                  num_mappings=2,
                                                  base_seed=10 ** 6):
            fidelity.estimate_program_fidelity(
                self.layouts["qplacer"].layout, mapped,
                violations=self.tables["qplacer"])

    def _op(self, circuit, base_seed: int):
        maps = mapping.evaluation_mappings(
            circuit, self.topology, num_mappings=self.mappings,
            base_seed=base_seed)
        fids = {s: mean(fidelity.estimate_program_fidelity(
                    r.layout, m, violations=self.tables[s]).total
                    for m in maps)
                for s, r in self.layouts.items()}
        return maps, fids

    def op_list(self) -> List[Op]:
        ops: List[Op] = []
        for p in range(self.passes):
            base_seed = 1000 * self.seed + self.mappings * p
            for label, circuit in self.circuits:
                ops.append((label, lambda c=circuit, b=base_seed:
                            self._op(c, b)))
        return ops

    def check(self, label: str, output) -> List[str]:
        maps, fids = output
        problems = []
        off = sum(off_coupling_gates(m.physical_arrays.q0,
                                     m.physical_arrays.q1, self.edges,
                                     self.topology.num_qubits)
                  for m in maps)
        if off:
            problems.append(f"{off} two-qubit gates off the coupling map")
        if len(maps) != self.mappings:
            problems.append(f"{len(maps)} mappings, expected "
                            f"{self.mappings}")
        self.swaps += sum(m.swap_count for m in maps)
        for strategy, value in fids.items():
            self.fidelities[strategy].setdefault(label, []).append(value)
        return problems

    def _paper_fidelity(self, strategy: str) -> float:
        return mean(mean(values) for label, values
                    in self.fidelities[strategy].items()
                    if label.startswith("paper-8/"))

    def finish(self, ops) -> Dict[str, List[str]]:
        q, c = self._paper_fidelity("qplacer"), self._paper_fidelity("classic")
        if q > c:
            return {}
        problem = f"mean paper-8 fidelity QPlacer {q} <= Classic {c}"
        return {label: [problem] for label, _ in ops
                if label.startswith("paper-8/")}

    def quality(self) -> Dict[str, float]:
        return {
            "area_mm2": sum(r.layout.amer() for r in self.layouts.values()),
            "hpwl_mm": sum(hpwl(r.layout.positions, r.problem.nets)
                           for r in self.layouts.values()),
            "swaps": self.swaps / self.passes,
            "fidelity": self._paper_fidelity("qplacer"),
        }

    def close(self) -> None:
        self.layouts = self.tables = {}
        self.circuits = []


class EnsembleWorkload:
    """Disorder ensembles through a ``repro serve`` child process.

    Cold requests are eagle-127 ensembles, each with its own
    ``base_seed`` from the workload seed.  After each one the benchmark
    re-submits requests it already computed, which the service answers
    from its artifact store.  Setup boots the service and places the
    eagle-127 layout, so it sits in the runner cache before timing.
    """

    name = "ensemble"
    COLD_S = 5.0
    SETUP_REPEATS = 3
    MIN_HITS = 100
    SIGMAS = (0.002, 0.005, 0.01)

    def __init__(self, seed: int, seconds: float, tiny: bool = False,
                 workdir: Optional[Path] = None) -> None:
        self.seed = seed
        self.topology = "grid-25" if tiny else "eagle-127"
        self.samples = 16 if tiny else 256
        self.cold = 2 if tiny else max(2, round(seconds / self.COLD_S))
        self.hits_per_cold = 2 if tiny else -(-self.MIN_HITS // self.cold)
        self.workdir = Path(workdir)
        self.trace_out: Optional[Path] = None
        self.service = None
        self.boots = 0
        self.peak_rss_mb: Optional[float] = None
        self.passes = 1

    def request(self, base_seed: int) -> Dict[str, Any]:
        return {"topology": self.topology, "sigmas": list(self.SIGMAS),
                "samples": self.samples, "repair_samples": 1,
                "max_ph_percent": 0.0, "base_seed": base_seed}

    def setup(self) -> None:
        self.boots += 1
        store = self.workdir / f"store-{self.boots}"
        shutil.rmtree(store, ignore_errors=True)
        self.service = ServiceProcess(ROOT, store, trace_out=self.trace_out)
        client = self.service.client
        place = client.run("place", {"topology": self.topology,
                                     "strategies": ["qplacer"]})
        self.layout_doc = place["strategies"]["qplacer"]["layout"]
        self.cold_artifacts: Dict[int, Dict[str, Any]] = {}
        self.cold_records: List[Dict[str, Any]] = []

    def _cold(self, k: int):
        client = self.service.client
        job = client.submit("ensemble", self.request(1000 * self.seed + k))
        record = client.wait(job["job_id"], timeout=170.0)
        return k, job, record, client.artifact(record["artifact"])

    def _hit(self, k: int):
        client = self.service.client
        job = client.submit("ensemble", self.request(1000 * self.seed + k))
        return k, job, client.artifact(job["artifact"])

    def op_list(self) -> List[Op]:
        ops: List[Op] = []
        hit = 0
        for k in range(self.cold):
            ops.append(("cold", lambda k=k: self._cold(k)))
            for _ in range(self.hits_per_cold):
                j = hit % (k + 1)
                ops.append(("hit", lambda j=j: self._hit(j)))
                hit += 1
        return ops

    def check(self, label: str, output) -> List[str]:
        problems = []
        if label == "cold":
            k, job, record, artifact = output
            if job["disposition"] != "queued":
                problems.append(f"cold request answered "
                                f"{job['disposition']}")
            self.cold_records.append(record)
            self.cold_artifacts[k] = artifact
            for point in artifact["result"]["points"]:
                if not all(r["legal"] for r in point["repair"]["samples"]):
                    problems.append("illegal repaired layout at sigma "
                                    f"{point['sigma_qubit_ghz']}")
                if point["yield_after_repair"] < point["yield"]:
                    problems.append("repair lowered yield at sigma "
                                    f"{point['sigma_qubit_ghz']}")
        else:
            j, job, artifact = output
            if job["disposition"] != "cache_hit":
                problems.append(f"re-submission answered "
                                f"{job['disposition']}")
            if artifact["result"] != \
                    self.cold_artifacts[j]["result"]:
                problems.append("cache-hit artifact differs from the "
                                "cold artifact")
        return problems

    def finish(self, ops) -> Dict[str, List[str]]:
        return {}

    def _points(self):
        return [p for a in self.cold_artifacts.values()
                for p in a["result"]["points"]]

    def quality(self) -> Dict[str, float]:
        layout = layout_from_dict(self.layout_doc)
        problem = build_problem(layout.netlist, PlacerConfig())
        return {"area_mm2": layout.amer(),
                "hpwl_mm": hpwl(layout.positions, problem.nets),
                "yield": mean(p["yield_after_repair"]
                              for p in self._points())}

    def latencies(self, ops) -> Dict[str, float]:
        cold = [op.seconds for op in ops if op.label == "cold"]
        hits = [op.seconds for op in ops if op.label == "hit"]
        p50, p90 = np.percentile(hits, (50, 90))
        return {"op_p50_s": median(cold), "hit_p50_s": float(p50),
                "hit_p90_s": float(p90)}

    def layer_extras(self) -> Dict[str, float]:
        """Driver-measured per-layer numbers of the traced run."""
        repairs = [p["repair"] for p in self._points()]
        attempted = sum(r["attempted"] for r in repairs)
        return {
            "ensembles.repair.pass_ratio":
                sum(r["passed"] for r in repairs) / attempted
                if attempted else 0.0,
            "service.scheduler.queue_wait_s":
                sum(r["started_at"] - r["submitted_at"]
                    for r in self.cold_records),
        }

    def close(self) -> None:
        if self.service is not None:
            service, self.service = self.service, None
            self.peak_rss_mb = service.stop()


WORKLOADS = {w.name: w for w in (PlaceWorkload, CompileWorkload,
                                 EnsembleWorkload)}
