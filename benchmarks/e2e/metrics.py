"""The benchmark's vocabulary: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python benchmarks/e2e/metrics.py > BENCHMARK.json``) and
``test_harness.py`` checks that the committed file still matches, so the
harness and the file can never disagree about a name, unit or bound.

Every workload reports every metric.  Where a metric's operation differs
between batch and service workloads, the meaning is spelled out in
``README.md``; a per-layer metric of a layer a workload never enters
reads 0.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e/"]

#: Seconds one run measures.  Batch workloads always finish at least one
#: full pass, so a run lasts max(RUN_SECONDS, one pass) plus set-up.
RUN_SECONDS = 15

#: name -> why the workload exists (one line each).
WORKLOADS = {
    "t1-dynamic": (
        "The paper's own sweep: 16 Table-1 apps, sequential engine, graph "
        "backend, no passes. Reference verdicts; state capture/compare "
        "dominates."
    ),
    "t1-derived": (
        "The same 16 apps at scale 2 with fingerprint + trace_derive, the "
        "fastest config: profiling, trace derivation and refinement runs "
        "dominate."
    ),
    "t1-distributed": (
        "The 6 C++ apps through the 2-worker pool and the 2-shard "
        "supervisor: the only workload with pool startup, journal fsync "
        "and fragment merge."
    ),
    "serve-mixed": (
        "repro serve under open-loop Poisson load, 75% cached repeats and "
        "25% fresh fuzz subjects: the HTTP/cache path and per-campaign "
        "fixed costs."
    ),
    "mask-harden": (
        "Detect, mask, re-detect on 9 Java collection apps plus the "
        "Figure-5 grid: atomicity wrappers, checkpoint/restore and the "
        "undo-log barrier."
    ),
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: Each bound is at least three times the largest interquartile spread
#: (over median) that ten seeds of the same code showed on any workload
#: (README.md, "Noise"), and none exceeds that of ``setup_s``.  Latency
#: tails are printed with their sample counts but not gated.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("campaign_wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("subject_executions", "count", "lower", 0.001),
    ("op_p50_ms", "ms", "lower", 0.25),
]

#: (name, unit, better, the end-to-end metric and workload it should move).
PER_LAYER = [
    ("weaver.calls", "count", "lower",
     "campaign_wall_s on serve-mixed and on t1-distributed"),
    ("weaver.busy_s", "s", "lower",
     "campaign_wall_s on serve-mixed and on t1-distributed"),
    ("detector.profile_s", "s", "lower",
     "campaign_wall_s and subject_executions on t1-derived"),
    ("tracepass.busy_s", "s", "lower",
     "campaign_wall_s and subject_executions on t1-derived"),
    ("tracepass.decided_ratio", "ratio", "higher",
     "campaign_wall_s and subject_executions on t1-derived"),
    ("tracepass.captures", "count", "lower",
     "campaign_wall_s and subject_executions on t1-derived"),
    ("tracepass.capture_retries", "count", "lower",
     "campaign_wall_s and subject_executions on t1-derived"),
    ("injection.runs", "count", "lower", "campaign_wall_s on t1-dynamic"),
    ("injection.run_s", "s", "lower", "campaign_wall_s on t1-dynamic"),
    ("state.captures", "count", "lower", "campaign_wall_s on t1-dynamic"),
    ("state.fingerprints", "count", "lower", "campaign_wall_s on t1-dynamic"),
    ("state.compares", "count", "lower", "campaign_wall_s on t1-dynamic"),
    ("state.busy_s", "s", "lower", "campaign_wall_s on t1-dynamic"),
    ("state.refine_runs", "count", "lower", "campaign_wall_s on t1-derived"),
    ("state.fpcache_hit_ratio", "ratio", "higher",
     "campaign_wall_s on t1-derived"),
    ("classify.busy_s", "s", "lower", "cpu_s on serve-mixed"),
    ("runlog.serialize_s", "s", "lower", "cpu_s on serve-mixed"),
    ("parallel.pool_startup_s", "s", "lower",
     "campaign_wall_s and cpu_s on t1-distributed"),
    ("parallel.worker_utilization", "ratio", "higher",
     "campaign_wall_s and cpu_s on t1-distributed"),
    ("parallel.journal_appends", "count", "lower",
     "campaign_wall_s and cpu_s on t1-distributed"),
    ("parallel.journal_s", "s", "lower",
     "campaign_wall_s and cpu_s on t1-distributed"),
    ("parallel.merge_s", "s", "lower",
     "campaign_wall_s and cpu_s on t1-distributed"),
    ("shard.slowest_s", "s", "lower",
     "campaign_wall_s and cpu_s on t1-distributed"),
    ("shard.balance", "ratio", "higher",
     "campaign_wall_s and cpu_s on t1-distributed"),
    ("shard.merge_s", "s", "lower",
     "campaign_wall_s and cpu_s on t1-distributed"),
    ("supervise.overhead_s", "s", "lower",
     "campaign_wall_s and cpu_s on t1-distributed"),
    ("masking.wrapped_calls", "count", "lower",
     "campaign_wall_s on mask-harden"),
    ("masking.rollbacks", "count", "lower", "campaign_wall_s on mask-harden"),
    ("masking.checkpointed_objects", "count", "lower",
     "campaign_wall_s on mask-harden"),
    ("masking.mask_s", "s", "lower", "campaign_wall_s on mask-harden"),
    ("state.checkpoint_s", "s", "lower", "campaign_wall_s on mask-harden"),
    ("state.restore_s", "s", "lower", "campaign_wall_s on mask-harden"),
    ("service.submit_s", "s", "lower", "op_p50_ms on serve-mixed"),
    ("service.compile_s", "s", "lower", "op_p50_ms on serve-mixed"),
    ("service.queue_wait_ms_p50", "ms", "lower", "op_p50_ms on serve-mixed"),
    ("service.campaign_s", "s", "lower", "campaign_wall_s on serve-mixed"),
    ("service.worker_busy_frac", "ratio", "lower", "op_p50_ms on serve-mixed"),
    ("cache.hits", "count", "higher", "op_p50_ms on serve-mixed"),
    ("cache.misses", "count", "lower", "cpu_s on serve-mixed"),
    ("cache.hit_ratio", "ratio", "higher", "op_p50_ms on serve-mixed"),
    ("cache.get_s", "s", "lower", "op_p50_ms on serve-mixed"),
    ("cache.put_s", "s", "lower", "cpu_s on serve-mixed"),
    ("loadgen.lateness_p95_ms", "ms", "lower",
     "validity of every latency on serve-mixed (over 5 ms: invalid run)"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced wall / untraced wall - 1"),
    ("trace.unattributed_frac", "ratio", "lower",
     "none: op time outside every named layer span"),
]

E2E_NAMES = [name for name, *_ in END_TO_END]
LAYER_NAMES = [name for name, *_ in PER_LAYER]
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The contents of the root ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    print(render(), end="")
