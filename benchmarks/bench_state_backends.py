"""Benchmark — fingerprint vs. graph state backend on a detection sweep.

The detection phase spends much of its time in the state layer: a call
of a woven method that an exception can leave captures the reachable
state before and after so the injector can compare them (Definition 2).
The graph backend materializes two full :class:`ObjectGraph` snapshots
per comparison; the fingerprint backend reduces each side to a 128-bit
structural digest in one traversal and compares 16 bytes, falling back
to a graph re-run only for points that report non-atomicity (so
diagnostics — and the run log bytes — are identical).

The workload is a read-heavy variant of the Figure-5 synthetic service:
the original ``step`` writes three attributes per call, and the variant
interleaves each write with a run of read-only calls.  The object size
is the knob the paper turns in Figure 5, and it is exactly the knob that
decides how much a one-pass digest saves over a full graph capture.
Every call of this subject returns before the injection of its run
fires, so runs skip its before-captures (see
:meth:`repro.core.injection.InjectionCampaign.skips`): what the sweep
still measures per backend is the capture of the calls an injected
exception does leave.

Each grid point runs the *same* sweep two ways — graph and fingerprint
— verifies both results are bit-identical (the refinement guarantee),
and reports the fingerprint-over-graph speedup trajectory over object
size.  Measurements go to ``BENCH_state_backends.json``.

Modes:

* full (default): sizes 64/256/1024; the aggregate sweep must show
  ≥ 2× fingerprint-over-graph.
* smoke (``REPRO_BENCH_SMOKE=1``, used by ``make bench-state``): one
  tiny size that exercises both columns and the equivalence assertions
  in seconds; the speedup bar is not enforced because fixed per-run
  costs dominate tiny states.
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments import run_app_campaign
from repro.experiments.programs import AppProgram

from conftest import emit

#: Smoke mode: tiny state budget for CI sanity runs (make bench-state).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Where the machine-readable measurements land (consumed by CI logs and
#: docs/BENCHMARKS.md).
REPORT_PATH = os.environ.get(
    "REPRO_BENCH_STATE_OUT", "BENCH_state_backends.json"
)

#: (object size, write calls, reads per write) per measured point.
FULL_GRID = ((64, 10, 4), (256, 10, 4), (1024, 8, 4))
SMOKE_GRID = ((16, 4, 2),)

#: Full-mode acceptance floor on the aggregate sweep.
MIN_FINGERPRINT_SPEEDUP = 2.0


class ReadHeavyService:
    """Figure-5 service shape with read-mostly traffic.

    ``step`` is the writer (three attribute writes per call, one into
    a size-*n* state vector, which the capture traversal scales with);
    ``total`` and ``peek`` read without writing.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.counter = 0
        self.accumulator = 0
        self.state = (0,) * size

    def step(self, value: int) -> int:
        self.counter += 1
        self.accumulator += value
        index = value % self.size
        self.state = (
            self.state[:index] + (self.counter,) + self.state[index + 1:]
        )
        return self.accumulator

    def total(self) -> int:
        return self.accumulator

    def peek(self, index: int) -> int:
        return self.state[index % self.size]


def _program(size: int, writes: int, reads: int) -> AppProgram:
    """A detection subject with one write per *reads* read-only calls."""

    def body() -> None:
        service = ReadHeavyService(size)
        for index in range(writes):
            service.step(index)
            for offset in range(reads):
                service.peek(index + offset)
                service.total()

    return AppProgram(
        name=f"ReadHeavyService{size}",
        language="synthetic",
        classes=[ReadHeavyService],
        body=body,
    )


def _timed_sweep(program: AppProgram, backend: str):
    started = time.perf_counter()
    outcome = run_app_campaign(program, state_backend=backend)
    return time.perf_counter() - started, outcome


def bench_state_backends(benchmark):
    grid = SMOKE_GRID if SMOKE else FULL_GRID
    rows = []
    graph_total = fingerprint_total = 0.0
    for size, writes, reads in grid:
        program = _program(size, writes, reads)
        graph_seconds, graph_outcome = _timed_sweep(program, "graph")
        fingerprint_seconds, fingerprint_outcome = _timed_sweep(
            program, "fingerprint"
        )

        # The refinement guarantee: identical run logs, bit for bit,
        # across backends.
        assert (
            fingerprint_outcome.detection.log.to_json()
            == graph_outcome.detection.log.to_json()
        ), f"fingerprint backend diverged from graph at size {size}"
        assert (
            graph_outcome.classification.to_json()
            == fingerprint_outcome.classification.to_json()
        )

        graph_telemetry = graph_outcome.detection.telemetry
        fingerprint_telemetry = fingerprint_outcome.detection.telemetry
        graph_total += graph_seconds
        fingerprint_total += fingerprint_seconds
        rows.append(
            {
                "size": size,
                "write_calls": writes,
                "reads_per_write": reads,
                "points": graph_outcome.detection.total_points,
                "graph_seconds": graph_seconds,
                "fingerprint_seconds": fingerprint_seconds,
                "fingerprint_speedup": graph_seconds / fingerprint_seconds,
                "graph_captures": graph_telemetry.state_captures,
                "fingerprints": fingerprint_telemetry.state_fingerprints,
                "refinement_captures": fingerprint_telemetry.state_captures,
            }
        )

    fingerprint_speedup = graph_total / fingerprint_total
    report = {
        "workload": "fig5-read-heavy-service",
        "smoke": SMOKE,
        "rows": rows,
        "graph_seconds": graph_total,
        "fingerprint_seconds": fingerprint_total,
        "fingerprint_speedup": fingerprint_speedup,
    }
    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    lines = [
        f"size={row['size']:5d}: graph {row['graph_seconds']:.3f}s   "
        f"fingerprint {row['fingerprint_seconds']:.3f}s   "
        f"fp-speedup {row['fingerprint_speedup']:.2f}x   "
        f"(graph captures={row['graph_captures']}, "
        f"fingerprints={row['fingerprints']})"
        for row in rows
    ]
    lines.append(
        f"aggregate: graph {graph_total:.3f}s   "
        f"fingerprint {fingerprint_total:.3f}s   "
        f"fp-speedup {fingerprint_speedup:.2f}x"
    )
    lines.append(f"results bit-identical: yes   report: {REPORT_PATH}")
    emit(
        "State backends: detection sweep, graph vs fingerprint",
        "\n".join(lines),
    )

    benchmark.extra_info["fingerprint_speedup"] = fingerprint_speedup
    benchmark.extra_info["graph_seconds"] = graph_total
    benchmark.extra_info["fingerprint_seconds"] = fingerprint_total
    benchmark.extra_info["report_path"] = REPORT_PATH

    if not SMOKE:
        assert fingerprint_speedup >= MIN_FINGERPRINT_SPEEDUP, (
            f"expected the fingerprint backend to sweep >= "
            f"{MIN_FINGERPRINT_SPEEDUP}x faster than graph, "
            f"measured {fingerprint_speedup:.2f}x"
        )

    # the benchmarked unit: one small end-to-end sweep on the fast path
    benchmark.pedantic(
        lambda: run_app_campaign(
            _program(16, 4, 2), state_backend="fingerprint"
        ),
        rounds=3,
        iterations=1,
    )
