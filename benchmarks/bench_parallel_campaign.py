"""Benchmark — the shard engine vs. the sequential sweep.

The detection phase executes the test program once per injection point
(Listing 1, Step 3), so campaign wall-clock grows linearly with the
point count.  The runs are independent, which the shard engine behind
``run_app_campaign(workers=N)`` (`repro.experiments.supervise`) exploits
by splitting the plan into interleaved shards, one child process each.  This benchmark runs the *same* campaign on both engines,
verifies the results are bit-identical (the determinism guarantee), and
reports the speedup.

Modes:

* full (default): LinkedList at ``scale=2`` — a Figure-3 workload grown
  to 300+ injection points, the regime the engine is built for.
* smoke (``REPRO_BENCH_SMOKE=1``, used by ``make bench-smoke``): a tiny
  point budget that exercises the full engine path in seconds; the
  speedup bar is not enforced because process startup dominates tiny
  runs.

The ≥2× speedup assertion only applies when the host actually has ≥4
usable CPUs — a single-core container can verify determinism and record
throughput, but physically cannot speed up a CPU-bound sweep.
"""

from __future__ import annotations

import os
import time

from repro.experiments import program_by_name, run_app_campaign

from conftest import emit

#: Smoke mode: tiny point budget for CI sanity runs (make bench-smoke).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Worker count for the parallel run (the acceptance configuration is 4).
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def bench_parallel_campaign(benchmark):
    if SMOKE:
        program, scale, stride = program_by_name("Dynarray"), 1, 8
    else:
        # ~330 injection points: LinkedList's Figure-3 workload doubled.
        program, scale, stride = program_by_name("LinkedList"), 2, 1

    started = time.perf_counter()
    sequential = run_app_campaign(program, scale=scale, stride=stride)
    sequential_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_app_campaign(
        program, scale=scale, stride=stride, workers=WORKERS
    )
    parallel_seconds = time.perf_counter() - started

    # The determinism guarantee: merged parallel results are bit-identical.
    assert (
        sequential.detection.log.to_json() == parallel.detection.log.to_json()
    ), "parallel engine diverged from the sequential sweep"
    assert (
        sequential.classification.to_json() == parallel.classification.to_json()
    )

    points = sequential.detection.total_points
    runs = sequential.detection.runs_executed
    speedup = sequential_seconds / parallel_seconds
    cpus = _usable_cpus()
    telemetry = parallel.detection.telemetry

    emit(
        "Parallel campaign engine",
        f"program={program.name} scale={scale} stride={stride}: "
        f"{points} injection points, {runs} runs\n"
        f"sequential: {sequential_seconds:.2f}s   "
        f"parallel({WORKERS} workers): {parallel_seconds:.2f}s   "
        f"speedup: {speedup:.2f}x on {cpus} usable CPU(s)\n"
        f"results bit-identical: yes\n"
        f"{telemetry.summary()}",
    )
    benchmark.extra_info["points"] = points
    benchmark.extra_info["runs"] = runs
    benchmark.extra_info["sequential_seconds"] = sequential_seconds
    benchmark.extra_info["parallel_seconds"] = parallel_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["usable_cpus"] = cpus
    benchmark.extra_info["runs_per_second"] = telemetry.runs_per_second
    benchmark.extra_info["worker_utilization"] = telemetry.worker_utilization

    if not SMOKE:
        assert points >= 200, "full mode must sweep >= 200 injection points"
        if cpus >= 4:
            assert speedup >= 2.0, (
                f"expected >= 2x speedup at {WORKERS} workers on {cpus} "
                f"CPUs, measured {speedup:.2f}x"
            )

    # the benchmarked unit: a small end-to-end sharded campaign, process
    # startup included (rounds kept low — each round forks its shards)
    benchmark.pedantic(
        lambda: run_app_campaign(
            program_by_name("Dynarray"), stride=8, workers=2
        ),
        rounds=3,
        iterations=1,
    )
