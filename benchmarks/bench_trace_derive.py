"""Benchmark — one-trace-many-points derivation of injection verdicts.

The trace pass (:mod:`repro.core.tracepass`) instruments the single
profiling execution and derives the run record of every trace-decidable
injection point from it — entry captures compared with the live state
at each later point substitute for re-running the subject once per
point.  Only trace-undecidable points fall back to real execution.

This benchmark runs the Table-1 Java campaign (the Doug Lea collections
plus Jakarta Regexp) twice — fully dynamic and with ``trace_derive=True``
— and asserts the acceptance contract:

* the derived sweep needs at least **5× fewer subject executions**
  (injection runs + baseline + reference trace) than the dynamic one,
  and
* classification and run log are **bit-identical** (modulo the per-run
  ``provenance`` tag that records *how* each point was decided).

Measurements (points derived, executions both ways, wall-clock, per-
program rows) go to ``BENCH_trace_derive.json``.

Modes:

* full (default): all ten Java applications.
* smoke (``REPRO_BENCH_SMOKE=1``, used by ``make bench-trace``): three
  small applications; same assertions, seconds instead of minutes.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.runlog import log_json_without_provenance
from repro.experiments import JAVA_PROGRAMS, program_by_name, run_app_campaign

from conftest import emit

#: Smoke mode: a small program subset for CI sanity runs (make bench-trace).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Where the machine-readable measurements land (consumed by CI logs and
#: docs/BENCHMARKS.md).
REPORT_PATH = os.environ.get(
    "REPRO_BENCH_TRACE_DERIVE_OUT", "BENCH_trace_derive.json"
)

SMOKE_NAMES = ("LLMap", "Dynarray", "CircularList")

#: The acceptance floor: the dynamic sweep must need at least this many
#: times more subject executions than the trace-derived sweep.
MIN_EXECUTION_RATIO = 5.0


def _timed_sweep(name: str, trace_derive: bool):
    started = time.perf_counter()
    outcome = run_app_campaign(
        program_by_name(name), trace_derive=trace_derive
    )
    return time.perf_counter() - started, outcome


def _executions(outcome) -> int:
    """Subject executions a sweep paid for: injection runs that actually
    ran (includes the baseline re-execution) plus the profiling run."""
    return outcome.detection.telemetry.runs_executed + 1


def bench_trace_derive(benchmark):
    names = SMOKE_NAMES if SMOKE else tuple(p.name for p in JAVA_PROGRAMS)
    rows = []
    dynamic_total = derived_total = 0.0
    total_points = total_derived = 0
    dynamic_execs = derived_execs = 0
    for name in names:
        dynamic_seconds, dynamic_outcome = _timed_sweep(name, False)
        derived_seconds, derived_outcome = _timed_sweep(name, True)

        # The soundness contract: identical output, bit for bit, with
        # only the provenance tags telling the sweeps apart.
        assert log_json_without_provenance(
            derived_outcome.detection.log
        ) == log_json_without_provenance(dynamic_outcome.detection.log), (
            f"derived sweep diverged from the dynamic one on {name}"
        )
        assert (
            derived_outcome.classification.to_json()
            == dynamic_outcome.classification.to_json()
        ), f"derived classification diverged on {name}"

        telemetry = derived_outcome.detection.telemetry
        points = derived_outcome.detection.total_points
        dynamic_total += dynamic_seconds
        derived_total += derived_seconds
        total_points += points
        total_derived += telemetry.runs_derived
        dynamic_execs += _executions(dynamic_outcome)
        derived_execs += _executions(derived_outcome)
        rows.append(
            {
                "program": name,
                "points": points,
                "points_derived": telemetry.runs_derived,
                "derived_fraction": telemetry.runs_derived / points,
                "dynamic_executions": _executions(dynamic_outcome),
                "derived_executions": _executions(derived_outcome),
                "execution_ratio": (
                    _executions(dynamic_outcome)
                    / _executions(derived_outcome)
                ),
                "dynamic_seconds": dynamic_seconds,
                "derived_seconds": derived_seconds,
                "trace_seconds": telemetry.trace_seconds,
                "trace_captures": telemetry.trace_captures,
                "speedup": dynamic_seconds / derived_seconds,
            }
        )

    ratio = dynamic_execs / derived_execs
    report = {
        "workload": "table1-java-collections-regexp",
        "smoke": SMOKE,
        "rows": rows,
        "points": total_points,
        "points_derived": total_derived,
        "derived_fraction": total_derived / total_points,
        "dynamic_executions": dynamic_execs,
        "derived_executions": derived_execs,
        "execution_ratio": ratio,
        "dynamic_seconds": dynamic_total,
        "derived_seconds": derived_total,
        "speedup": dynamic_total / derived_total,
    }
    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    lines = [
        f"{row['program']:14s} points={row['points']:5d}   "
        f"derived={row['points_derived']:4d} "
        f"({row['derived_fraction']:5.1%})   "
        f"execs {row['dynamic_executions']:5d} -> "
        f"{row['derived_executions']:3d} ({row['execution_ratio']:5.1f}x)   "
        f"dynamic {row['dynamic_seconds']:.3f}s   "
        f"derived {row['derived_seconds']:.3f}s"
        for row in rows
    ]
    lines.append(
        f"aggregate: {total_derived}/{total_points} points derived   "
        f"executions {dynamic_execs} -> {derived_execs} "
        f"({ratio:.1f}x fewer)   dynamic {dynamic_total:.3f}s   "
        f"derived {derived_total:.3f}s   "
        f"speedup {dynamic_total / derived_total:.2f}x"
    )
    lines.append(f"results bit-identical: yes   report: {REPORT_PATH}")
    emit("Trace derive: Table-1 Java sweep, dynamic vs one-trace",
         "\n".join(lines))

    benchmark.extra_info["execution_ratio"] = ratio
    benchmark.extra_info["points_derived"] = total_derived
    benchmark.extra_info["dynamic_seconds"] = dynamic_total
    benchmark.extra_info["derived_seconds"] = derived_total
    benchmark.extra_info["report_path"] = REPORT_PATH

    assert ratio >= MIN_EXECUTION_RATIO, (
        f"expected the trace pass to cut subject executions by >= "
        f"{MIN_EXECUTION_RATIO:.0f}x, measured {ratio:.1f}x"
    )

    # the benchmarked unit: one small trace-derived end-to-end sweep
    benchmark.pedantic(
        lambda: run_app_campaign(
            program_by_name("LLMap"), trace_derive=True
        ),
        rounds=3,
        iterations=1,
    )
