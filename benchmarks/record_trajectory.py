"""Append one perf-trajectory row to ``BENCH_<workload>.json``.

Runs ``perfbench/run.py`` several times for one workload and records
the median and interquartile range of every end-to-end metric, so perf
claims become before/after rows in a committed ledger::

    python3 benchmarks/record_trajectory.py --workload compile \\
        --seed 1 --seconds 20 --runs 5 --trace 1 --label change

``--checkout DIR`` measures another checkout of the repository (for
example the parent commit) with its own ``perfbench/run.py``; the row
still goes to this repository's ledger.  ``--results FILE...`` skips
the runs and aggregates perfbench outputs captured earlier (each file
ends with perfbench's JSON result line), which is how alternating
parent/change pairs are recorded.  ``--trace 1`` adds one traced run
and records its five largest per-layer ``self_s``.

Each row holds the measured checkout's HEAD sha (``dirty`` when its
tracked files differ from HEAD, as for a change not yet committed), the
host (platform, CPU count, python), the run count, the seed and run
length (with ``--results``, pass the ones the captured runs used),
whether every op was correct, and
``{metric: {unit, median, q1, q3, iqr}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Layers recorded from a traced run, by descending ``self_s``.
TOP_LAYERS = 5


def _perfbench(checkout: Path, workload: str, seed: int, seconds: float,
               trace: int) -> Dict[str, object]:
    """One perfbench run in ``checkout``; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return _last_json(proc.stdout)


def _last_json(text: str) -> Dict[str, object]:
    """perfbench's result: the last line of its output."""
    return json.loads(text.strip().splitlines()[-1])


def _git_state(checkout: Path) -> Dict[str, object]:
    """HEAD sha, and whether tracked files differ from it.

    Both are ``None`` for a tree exported without its git metadata.
    """
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    if head.returncode != 0:
        return {"sha": None, "dirty": None}
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"],
                           cwd=checkout).returncode != 0
    return {"sha": head.stdout.strip(), "dirty": dirty}


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and inclusive quartiles (a lone value is its own IQR)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(results: Sequence[Dict[str, object]]
              ) -> Dict[str, Dict[str, object]]:
    """``{metric: {unit, median, q1, q3, iqr}}`` over end-to-end runs."""
    out: Dict[str, Dict[str, object]] = {}
    for name, spec in results[0]["metrics"].items():
        values = [float(r["metrics"][name]["value"]) for r in results]
        out[name] = dict(unit=spec["unit"], **_quartiles(values))
    return out


def top_layers(traced: Dict[str, object],
               count: int = TOP_LAYERS) -> List[Dict[str, object]]:
    """The ``count`` largest ``<layer>.self_s`` of one traced run."""
    layers = [(name[:-len(".self_s")], float(spec["value"]))
              for name, spec in traced["metrics"].items()
              if name.endswith(".self_s")]
    layers.sort(key=lambda item: (-item[1], item[0]))
    return [{"layer": layer, "self_s": secs}
            for layer, secs in layers[:count]]


def make_row(results: Sequence[Dict[str, object]], *,
             git: Dict[str, object], label: str, seed: int, seconds: float,
             traced: Optional[Dict[str, object]] = None
             ) -> Dict[str, object]:
    """One ledger row from end-to-end results (and a traced run)."""
    row: Dict[str, object] = {
        **git,
        "label": label,
        "host": {"platform": platform.platform(),
                 "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "seed": seed,
        "seconds": seconds,
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "failed_ops": sum(int(r["failed"]) for r in results),
        "metrics": summarise(results),
    }
    if traced is not None:
        row["top_layers"] = top_layers(traced)
    return row


def append_row(path: Path, workload: str, row: Dict[str, object]) -> None:
    """Append ``row`` to the workload's ledger file, creating it."""
    if path.exists():
        ledger = json.loads(path.read_text())
    else:
        ledger = {"workload": workload, "rows": []}
    ledger["rows"].append(row)
    path.write_text(json.dumps(ledger, indent=2) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("place", "compile", "ensemble"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository checkout to measure")
    parser.add_argument("--label", default="",
                        help="free-form row label, e.g. parent/change")
    parser.add_argument("--results", type=Path, nargs="+",
                        help="aggregate these captured perfbench outputs "
                        "instead of running")
    parser.add_argument("--out", type=Path,
                        help="ledger file (default: BENCH_<workload>.json "
                        "at the repository root)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    checkout = args.checkout.resolve()
    if args.results:
        results = [_last_json(p.read_text()) for p in args.results]
    else:
        results = [_perfbench(checkout, args.workload, args.seed,
                              args.seconds, 0) for _ in range(args.runs)]
    traced = (_perfbench(checkout, args.workload, args.seed, args.seconds, 1)
              if args.trace else None)
    row = make_row(results, git=_git_state(checkout),
                   label=args.label, seed=args.seed, seconds=args.seconds,
                   traced=traced)
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    append_row(out, args.workload, row)
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
