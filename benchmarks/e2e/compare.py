#!/usr/bin/env python3
"""Paired parent/change comparison, and recording of a baseline.

Record runs of this checkout (the committed baseline is made this way)::

    python3 benchmarks/e2e/compare.py record --out benchmarks/e2e/baseline/baseline.json

runs every workload ``--runs`` times per set, in ``--sets`` sets that
visit the workloads in alternating order, and prints whether the sets'
medians agree within each metric's bound.

Compare two checkouts (paths to their roots) by alternating paired runs::

    python3 benchmarks/e2e/compare.py pairs --parent ../parent --change . --pairs 10

Pair *i* runs both sides on seed *i*; the side that runs first
alternates.  Both files can be re-read with ``compare.py table A.json
B.json``.  Per workload and end-to-end metric the verdict is:

* ``unresolved`` - the parent's own interquartile range exceeds the
  metric's bound, unless every change run reads better than every parent
  run (``better-all``);
* ``REGRESSION`` - the change's median is worse than the parent's by more
  than the bound;
* ``gain`` - at least ten pairs, the change wins at least 9/10 of them
  (ties count for neither side), and the medians differ by more than the
  parent's interquartile range;
* ``within bound`` - otherwise.  No gain is claimed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
BOUNDS = {name: (better, bound) for name, _, better, bound in metrics.END_TO_END}


def run_once(root: str, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One benchmark run of the checkout at *root*; its final JSON line."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "elapsed_s": time.perf_counter() - started, "result": result}


def values(runs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["result"]["metrics"]]


def _better(metric: str, a: float, b: float) -> bool:
    """True when value *a* is better than *b* for *metric*."""
    return a < b if BOUNDS[metric][0] == "lower" else a > b


def verdict(metric: str, parent: List[float], change: List[float]) -> Dict[str, Any]:
    """Apply the paired-run rule to one workload x metric."""
    _, bound = BOUNDS[metric]
    p1, pm, p3 = stats.quartiles(parent)
    c1, cm, c3 = stats.quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(metric, c, p))
    spread = stats.spread(parent)
    worse = (cm - pm) if BOUNDS[metric][0] == "lower" else (pm - cm)
    if spread is not None and spread > bound:
        everyone = all(_better(metric, c, p) for c in change for p in parent)
        label = "better-all" if everyone else "unresolved"
    elif worse > bound * abs(pm):
        label = "REGRESSION"
    elif len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        label = "gain"
    else:
        label = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(pairs), "spread": spread, "bound": bound, "verdict": label}


def print_table(parent: List[Dict[str, Any]], change: List[Dict[str, Any]]) -> int:
    """One row per workload x metric; returns the number of regressions."""
    regressions = 0
    print(f"{'workload':15s} {'metric':19s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'wins':>6s}  verdict")
    for workload in metrics.WORKLOADS:
        for metric in metrics.E2E_NAMES:
            p = values(parent, workload, metric)
            c = values(change, workload, metric)
            if not p or not c:
                continue
            v = verdict(metric, p, c)
            regressions += v["verdict"] == "REGRESSION"
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"  # noqa: E731
            print(f"{workload:15s} {metric:19s} {fmt(v['parent']):>30s} "
                  f"{fmt(v['change']):>30s} {v['wins']:>3d}/{v['pairs']:<2d}  {v['verdict']}")
    return regressions


def agreement(sets: List[List[Dict[str, Any]]]) -> List[str]:
    """Per workload x metric: the spread over every run, and how far each
    later set's median lies from the first set's, against the bound."""
    rows = []
    everything = [run for runs in sets for run in runs]
    for workload in metrics.WORKLOADS:
        for metric in metrics.E2E_NAMES:
            first = values(sets[0], workload, metric)
            if not first:
                continue
            bound = BOUNDS[metric][1]
            spread = stats.spread(values(everything, workload, metric)) or 0.0
            base = statistics.median(first)
            shifts = []
            for other in sets[1:]:
                later = values(other, workload, metric)
                if later and base:
                    shifts.append((statistics.median(later) - base) / base)
            ok = spread <= bound and all(abs(s) <= bound for s in shifts)
            rows.append(
                f"{workload:15s} {metric:19s} median {base:10.4g}  spread {spread:6.3f}  "
                + "".join(f"shift {s:+7.3f}  " for s in shifts)
                + f"bound {bound:5.3f}  {'ok' if ok else 'OUTSIDE BOUND'}"
            )
    return rows


def environment() -> Dict[str, Any]:
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _tree_digest(root: str) -> str:
    digest = hashlib.blake2b(digest_size=8)
    bench = os.path.join(root, "benchmarks", "e2e")
    for directory, subdirs, files in os.walk(bench):
        subdirs[:] = sorted(d for d in subdirs if d not in ("out", "__pycache__"))
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    return digest.hexdigest()


def cmd_record(args: argparse.Namespace) -> int:
    workloads = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    sets: List[List[Dict[str, Any]]] = []
    for index in range(args.sets):
        order = workloads if index % 2 == 0 else workloads[::-1]
        runs = []
        for workload in order:
            for k in range(args.runs):
                seed = index * args.runs + k + 1
                run = run_once(ROOT, workload, seed, args.seconds)
                print(f"set {index + 1} {workload} seed {seed}: exit {run['exit']}, "
                      f"{run['elapsed_s']:.1f} s", flush=True)
                runs.append(run)
        sets.append(runs)
    record = {"environment": environment(), "run_seconds": args.seconds,
              "sets": [{"order": (workloads if i % 2 == 0 else workloads[::-1]),
                        "runs": runs} for i, runs in enumerate(sets)]}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    for row in agreement(sets):
        print(row)
    return 0


def cmd_pairs(args: argparse.Namespace) -> int:
    parent_root, change_root = os.path.abspath(args.parent), os.path.abspath(args.change)
    if _tree_digest(parent_root) != _tree_digest(change_root):
        print("warning: the two checkouts carry different benchmark code", file=sys.stderr)
    workloads = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    parent: List[Dict[str, Any]] = []
    change: List[Dict[str, Any]] = []
    for i in range(args.pairs):
        for workload in workloads:
            sides = [(parent_root, parent), (change_root, change)]
            for root, sink in (sides if i % 2 == 0 else sides[::-1]):
                sink.append(run_once(root, workload, i + 1, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"environment": environment(), "parent": parent, "change": change},
                      handle, indent=1)
    return 1 if print_table(parent, change) else 0


def _runs(path: str, side: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if side in data:
        return data[side]
    return [run for s in data["sets"] for run in s["runs"]]


def cmd_table(args: argparse.Namespace) -> int:
    parent = _runs(args.parent, "parent")
    change = _runs(args.change, "change")
    key = lambda r: (r["workload"], r["seed"])  # noqa: E731
    return 1 if print_table(sorted(parent, key=key), sorted(change, key=key)) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    choices = list(metrics.WORKLOADS) + ["all"]

    record = sub.add_parser("record", help="record sets of runs of this checkout")
    record.add_argument("--out", required=True)
    record.add_argument("--runs", type=int, default=10)
    record.add_argument("--sets", type=int, default=2)
    record.add_argument("--workload", choices=choices, default="all")
    record.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    record.set_defaults(func=cmd_record)

    pairs = sub.add_parser("pairs", help="alternating paired runs of two checkouts")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--workload", choices=choices, default="all")
    pairs.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    pairs.add_argument("--out")
    pairs.set_defaults(func=cmd_pairs)

    table = sub.add_parser("table", help="verdicts from two recorded files")
    table.add_argument("parent")
    table.add_argument("change")
    table.set_defaults(func=cmd_table)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
