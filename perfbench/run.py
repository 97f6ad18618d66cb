"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload place|compile|ensemble \\
        --seed N --seconds S --trace 0|1

``--trace 0`` sets the workload up several times (reporting the median
set-up time), runs its fixed op list once with no wrappers installed,
checks every output outside the timing, and prints the end-to-end
metrics; its times are in reference seconds, corrected for the host's
speed (:mod:`perfbench.hostspeed`).  ``--trace 1`` runs the op list
once untraced and once with the layer wrappers of
:mod:`perfbench.tracing` installed, and prints the per-layer metrics.
Every line but the last is a human-readable report; the last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.hostspeed import HostClock  # noqa: E402
from perfbench.stats import ratio  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: The end-to-end metrics of every workload: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("area_mm2", "mm2", "lower"),
    ("hpwl_mm", "mm", "lower"),
)

#: Report-only metrics, printed where a workload has them.  Latencies
#: are as measured, not in reference seconds.
REPORT_UNITS = {
    "fail_ratio": "ratio", "op_p50_s": "s", "hit_p50_s": "s",
    "hit_p90_s": "s", "swaps": "count", "fidelity": "ratio",
    "yield": "ratio", "measured_setup_s": "s", "measured_wall_s": "s",
    "host_scale": "ratio",
}

#: Host-speed marks before each set-up and after the last.  Set-ups are
#: few and some last seconds, so several marks keep their scale steady.
SETUP_MARKS = 3

WORK_DIR = ROOT / ".perfbench-work"


@dataclass
class OpRun:
    """One timed op: its window on the monotonic clock and problems."""

    label: str
    start: float
    end: float
    problems: List[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def measure(workload, clock: HostClock, tracer=None) -> List[OpRun]:
    """Run the op list; each output is checked right after its op.

    Checks run outside the op's window and, in a traced run, with
    recording paused.  ``clock`` times the host-speed kernel before
    each op and after its check, so the samples come from twice as many
    moments of the run as there are ops.
    """
    runs: List[OpRun] = []
    for label, fn in workload.op_list():
        clock.mark()
        start = time.monotonic()
        try:
            output, problems = fn(), []
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            output, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        end = time.monotonic()
        if tracer is not None:
            tracer.enabled = False
        if not problems:
            try:
                problems = workload.check(label, output)
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        del output
        clock.mark()
        if tracer is not None:
            tracer.enabled = True
        runs.append(OpRun(label, start, end, problems))
    if tracer is not None:
        tracer.enabled = False
    extra = workload.finish([(r.label, r) for r in runs])
    for run in runs:
        run.problems.extend(extra.get(run.label, []))
    return runs


def op_list_seconds(runs: List[OpRun], passes: int) -> float:
    """One pass of the op list, each op kind at the median of its times.

    Ops sharing a label are repeats of one kind of work (the same
    placement in every pass, one homogeneous request type); a kind that
    occurs ``n`` times per pass contributes ``n * median(times)``.
    """
    by_label: Dict[str, List[float]] = {}
    for run in runs:
        by_label.setdefault(run.label, []).append(run.seconds)
    return sum(len(times) / passes * statistics.median(times)
               for times in by_label.values())


def _own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(workload, setups: int) -> tuple:
    """Set up ``setups`` times, measure once.

    Returns ``(runs, metrics, report)``: the timed ops, the end-to-end
    metrics, and those plus the workload's report-only metrics.  The
    time metrics are in reference seconds (:mod:`perfbench.hostspeed`);
    the report also gives them as measured.
    """
    setup_s = []
    setup_clock, op_clock = HostClock(), HostClock()
    try:
        for k in range(setups):
            if k:
                workload.close()
            for _ in range(SETUP_MARKS):
                setup_clock.mark()
            start = time.monotonic()
            workload.setup()
            setup_s.append(time.monotonic() - start)
        for _ in range(SETUP_MARKS):
            setup_clock.mark()
        runs = measure(workload, op_clock)
        quality = workload.quality()
        latencies = (workload.latencies(runs)
                     if hasattr(workload, "latencies") else {})
    finally:
        workload.close()
    failed = sum(1 for r in runs if r.problems)
    measured_wall_s = op_list_seconds(runs, workload.passes)
    metrics = {
        "setup_s": statistics.median(setup_s) * setup_clock.scale(),
        "wall_s": measured_wall_s * op_clock.scale(),
        "peak_rss_mb": getattr(workload, "peak_rss_mb", None)
        or _own_rss_mb(),
        "area_mm2": quality["area_mm2"],
        "hpwl_mm": quality["hpwl_mm"],
    }
    report = dict(metrics, **quality, **latencies,
                  fail_ratio=ratio(failed, len(runs)),
                  measured_setup_s=statistics.median(setup_s),
                  measured_wall_s=measured_wall_s,
                  host_scale=op_clock.scale())
    return runs, metrics, report


def run_traced(make) -> tuple:
    """Untraced pass, then a traced pass; returns (runs, layer metrics)."""
    from perfbench.tracing import Tracer, covered_share, layer_metrics

    reference, untraced_clock = make(), HostClock()
    try:
        reference.setup()
        untraced_wall = op_list_seconds(
            measure(reference, untraced_clock),
            reference.passes) * untraced_clock.scale()
    finally:
        reference.close()

    tracer = Tracer()
    tracer.install()
    workload, traced_clock = make(), HostClock()
    spans_file = None
    if hasattr(workload, "trace_out"):
        spans_file = workload.workdir / "service-spans.json"
        workload.trace_out = spans_file
    try:
        tracer.enabled = True
        workload.setup()
        runs = measure(workload, traced_clock, tracer)
    finally:
        tracer.enabled = False
        workload.close()
        tracer.uninstall()
    if spans_file is not None:
        tracer.merge_file(str(spans_file))
    metrics = layer_metrics(tracer)
    metrics["ensembles.repair.pass_ratio"] = 0.0
    metrics["service.scheduler.queue_wait_s"] = 0.0
    if hasattr(workload, "layer_extras"):
        metrics.update(workload.layer_extras())
    windows = [(r.start, r.end) for r in runs]
    metrics["trace.coverage"] = covered_share(
        windows, [(s[1], s[2]) for s in tracer.spans if s[4]])
    metrics["trace.overhead"] = ratio(
        op_list_seconds(runs, workload.passes) * traced_clock.scale(),
        untraced_wall)
    for line in tracer.unavailable:
        print(f"unavailable layer hook: {line}")
    return runs, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="grid-25 only, for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def make():
        return WORKLOADS[args.workload](args.seed, args.seconds,
                                        tiny=args.tiny, workdir=workdir)

    try:
        if args.trace:
            from perfbench.tracing import per_layer_specs

            runs, values = run_traced(make)
            specs = per_layer_specs()
        else:
            workload = make()
            runs, values, report = run_end_to_end(
                workload, 2 if args.tiny else workload.SETUP_REPEATS)
            specs = list(END_TO_END)
            units = {n: u for n, u, _ in END_TO_END}
            units.update(REPORT_UNITS)
            for name, value in report.items():
                print(f"{args.workload:9s} {name:12s} {value:14.6g} "
                      f"{units[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still has its directory there
    by_label: Dict[str, List[float]] = {}
    for run in runs:
        by_label.setdefault(run.label, []).append(run.seconds)
        for problem in run.problems:
            print(f"FAILED {run.label}: {problem}")
    for label, seconds in by_label.items():
        print(f"op {label:28s} x{len(seconds):<3d} median "
              f"{statistics.median(seconds):9.4f} s")
    failed = sum(1 for r in runs if r.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
