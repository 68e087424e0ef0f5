#!/usr/bin/env python3
"""The repository benchmark: one command, five workloads, every metric.

    python3 benchmarks/e2e/run.py --workload <name|all> --seed <n> \\
        [--seconds 15] [--trace 0|1]

Run from anywhere inside a checkout; the program under test is the
checkout's own ``src/``.  Each workload runs in a fresh interpreter
(``workloads.py``) after its set-up time has been measured on seven more
fresh interpreters.  Every metric prints as ``workload metric value
unit``; the last line of stdout is one JSON object::

    {"correct": true, "attempted": 18, "failed": 0, "metrics": {...}}

with every end-to-end metric of ``metrics.py`` (``--trace 0``) or every
per-layer metric (``--trace 1``, which also prints a self-time table and
writes a Chrome trace file under ``benchmarks/e2e/out/``).  Any output
that disagrees with the golden verdicts or the fuzz oracle is counted in
``failed`` and makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

import metrics  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    """Children import the checkout's src/ and keep temp files inside it.

    String hashing is pinned: HashedMap's bucket layout, and with it the
    text of its run log's difference strings, depends on ``hash(str)``,
    so the golden log digests hold only for one hash seed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
    env["PYTHONHASHSEED"] = "0"
    return env


def probe(workload: str, env: Dict[str, str]) -> Tuple[float, float]:
    """One set-up probe: ``(spawn-to-ready seconds, speed)``, the speed
    sampled inside the probe while it got ready (``yardstick.py``)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workloads.py"),
         "--workload", workload, "--setup-probe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    assert proc.stdout is not None
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        pace = proc.stdout.readline()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe of {workload} failed (exit {code})")
    return elapsed, float(pace)


def setup_seconds(workload: str, env: Dict[str, str]) -> Tuple[float, float]:
    """Median spawn-to-ready time of fresh interpreters, in reference
    seconds, and the unscaled median."""
    probes = [probe(workload, env) for _ in range(SETUP_PROBES)]
    scaled = [wall * pace for wall, pace in probes]
    return statistics.median(scaled), statistics.median(w for w, _ in probes)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    env = child_env()
    os.makedirs(env["TMPDIR"], exist_ok=True)
    setup = None if trace else setup_seconds(workload, env)
    out = os.path.join(OUT_DIR, f"result-{workload}-{os.getpid()}.json")
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", out]
    # its own process group, so a timeout also ends the server or pool
    # workers the workload started
    child = subprocess.Popen(argv, cwd=ROOT, env=env, start_new_session=True)
    try:
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        if code != 0:
            raise RuntimeError(f"workload {workload} exited with status {code}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        if os.path.exists(out):
            os.remove(out)
    if setup is not None:
        scaled, raw = setup
        result["metrics"]["setup_s"] = scaled
        result["info"]["setup_s"] = (scaled, "s", f"{scaled:.6g} s (median of {SETUP_PROBES} "
                                     f"spawns; unscaled {raw:.6g} s)")
    return result


def report(workload: str, result: Dict[str, Any], trace: bool) -> None:
    """Print one ``workload metric value unit`` line per metric."""
    names = metrics.LAYER_NAMES if trace else metrics.E2E_NAMES
    info = result.get("info", {})
    for name in names:
        value = result["metrics"][name]
        if name in info:
            print(f"{workload} {name} {info[name][2]}")
        else:
            print(f"{workload} {name} {value:.6g} {metrics.UNITS[name]}")
    for name, (value, unit, text) in sorted(info.items()):
        if name not in names:
            print(f"{workload} {name} {text}")
    failed = len(result["problems"])
    print(f"{workload} failed_frac {failed / max(1, result['attempted']):.6g} ratio "
          f"({failed} of {result['attempted']} operations failed, refused or wrong)")
    if trace:
        print(f"{workload} self time by layer (share: of that process kind's root spans):")
        print(f"  {'process':16s} {'layer':22s} {'calls':>8s} {'total_s':>9s} "
              f"{'self_s':>9s} {'share':>6s}")
        for row in result["table"]:
            print(f"  {row['process']:16s} {row['layer']:22s} {row['calls']:8d} "
                  f"{row['total_s']:9.4f} {row['self_s']:9.4f} {100 * row['share']:5.1f}%")
        print(f"{workload} trace file {result['trace_file']} (opens in ui.perfetto.dev)")
        for target in result.get("missing_patches", []):
            print(f"{workload} WARNING: layer entry point {target} not found; "
                  "its per-layer metrics read 0", file=sys.stderr)
    for problem in result["problems"][:20]:
        print(f"{workload} MISMATCH {problem}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=list(metrics.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    values: Dict[str, Dict[str, Any]] = {}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        report(workload, result, bool(args.trace))
        attempted += result["attempted"]
        failed += len(result["problems"])
        prefix = f"{workload}/" if args.workload == "all" else ""
        for name in (metrics.LAYER_NAMES if args.trace else metrics.E2E_NAMES):
            values[prefix + name] = {
                "value": result["metrics"][name], "unit": metrics.UNITS[name]
            }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
