"""Run one workload in this process and write its result as JSON.

``run.py`` starts this script in a fresh interpreter per workload::

    PYTHONPATH=src python benchmarks/e2e/workloads.py --workload t1-dynamic \\
        --seed 1 --seconds 15 --trace 0 --out result.json

and, with ``--setup-probe``, once per set-up measurement: the probe
imports what the workload needs, builds its programs and exits.

A batch workload is a list of *ops* (one application's campaign, or one
Figure-5 grid).  The run performs one full pass over every op in a
seeded order, then repeats ops, longest first, while each is expected to
finish within ``--seconds``.  The process is pinned to one CPU, and
every timing is scaled to reference seconds by the speed samples taken
during it (``yardstick.py``).  ``campaign_wall_s`` and ``cpu_s`` sum each
op's median run, so they estimate one pass however many repeats fitted.
With ``--trace 1`` each op of a single pass runs twice, untraced and
traced, and the per-layer metrics come from the traced runs; their times
are not scaled, but ``trace.overhead_frac`` compares scaled walls.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

import golden  # noqa: E402
from metrics import RUN_SECONDS, WORKLOADS  # noqa: E402
import stats  # noqa: E402
from layers import layer_metrics  # noqa: E402
from yardstick import Sampler, pin, speed  # noqa: E402
from trace import (  # noqa: E402
    LAYER_PATCHES,
    PROBE_PATCHES,
    Span,
    Tracer,
    adopt_orphans,
    chrome_trace,
    self_time_table,
    top_level,
)

#: The Figure-5 grid of mask-harden: object sizes x wrapped-call ratios.
GRID_SIZES = (16, 256, 1024)
GRID_RATIOS = (0.01, 0.1, 1.0)
GRID_REPEATS = 7


@dataclass
class OpResult:
    """What one op produced, checked only after its timing ends."""

    verify: Callable[[], List[str]]
    telemetry: List[Dict[str, Any]] = field(default_factory=list)
    masking: List[Dict[str, int]] = field(default_factory=list)
    info: Dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    label: str
    run: Callable[[], OpResult]


# ---------------------------------------------------------------------------
# The batch workloads
# ---------------------------------------------------------------------------


def _campaign(app: str, scale: int, expected, **kwargs) -> OpResult:
    from repro.experiments import program_by_name, run_app_campaign

    outcome = run_app_campaign(program_by_name(app), scale=scale, **kwargs)
    return OpResult(
        verify=lambda: golden.check(
            expected, app, scale,
            points=outcome.detection.total_points,
            classification=outcome.classification,
            log=outcome.detection.log,
        ),
        telemetry=[outcome.telemetry.to_dict()],
    )


def _pooled(app: str, expected, work: str) -> OpResult:
    # a fresh (non-resumed) campaign truncates its journal first
    journal = os.path.join(work, f"journal-{app}.jsonl")
    return _campaign(app, 1, expected, workers=2, journal=journal)


def _supervised(app: str, expected, work: str) -> OpResult:
    from repro.experiments import ShardSupervisor, program_by_name

    # each shard's first attempt truncates its fragment
    workdir = os.path.join(work, f"shards-{app}")
    supervised = ShardSupervisor().run(functools.partial(program_by_name, app), 2, workdir)
    merged = supervised.merged
    return OpResult(
        verify=lambda: golden.check(
            expected, app, 1,
            points=merged.detection.total_points,
            classification=merged.classify(),
            log=merged.detection.log,
        ),
        telemetry=[o.result.telemetry.to_dict() for o in supervised.outcomes],
    )


def _validate(app: str, expected) -> OpResult:
    from repro.experiments import program_by_name, validate_masking

    validation = validate_masking(program_by_name(app))
    first = validation.first

    def verify() -> List[str]:
        problems = golden.check(
            expected, app, 1,
            points=first.detection.total_points,
            classification=first.classification,
            log=first.detection.log,
            masked=validation.second_classification,
        )
        if not validation.masking_effective:
            problems.append(validation.summary())
        return problems

    counters = validation.masking_stats
    return OpResult(
        verify=verify,
        telemetry=[first.telemetry.to_dict()],
        masking=[{
            "wrapped_calls": counters.wrapped_calls,
            "rollbacks": counters.rollbacks,
            "checkpointed_objects": counters.checkpointed_objects,
        }],
    )


def _grid(variant: str) -> OpResult:
    from repro.experiments import measure_overhead

    points = measure_overhead(GRID_SIZES, GRID_RATIOS, repeats=GRID_REPEATS, variant=variant)
    overheads = [p.overhead for p in points]

    def verify() -> List[str]:
        if len(overheads) != len(GRID_SIZES) * len(GRID_RATIOS) or not all(
            math.isfinite(x) and x > 0 for x in overheads
        ):
            return [f"fig5 {variant}: bad overhead grid {overheads}"]
        return []

    return OpResult(verify=verify, info={f"mask_overhead_{variant}_x": statistics.geometric_mean(overheads)})


def batch_ops(workload: str, work: str) -> List[Op]:
    from repro.experiments import ALL_PROGRAMS, CPP_PROGRAMS

    expected = golden.load()
    if workload == "t1-dynamic":
        return [Op(p.name, functools.partial(_campaign, p.name, 1, expected))
                for p in ALL_PROGRAMS]
    if workload == "t1-derived":
        return [Op(p.name, functools.partial(_campaign, p.name, 2, expected,
                                             state_backend="fingerprint",
                                             trace_derive=True))
                for p in ALL_PROGRAMS]
    if workload == "t1-distributed":
        return [Op(f"pool:{p.name}", functools.partial(_pooled, p.name, expected, work))
                for p in CPP_PROGRAMS] + [
            Op(f"supervised:{p.name}", functools.partial(_supervised, p.name, expected, work))
            for p in CPP_PROGRAMS]
    if workload == "mask-harden":
        return [Op(f"validate:{app}", functools.partial(_validate, app, expected))
                for app in golden.MASK_APPS] + [
            Op(f"fig5:{v}", functools.partial(_grid, v)) for v in ("eager", "undolog")]
    raise ValueError(f"unknown batch workload {workload!r}")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """This process's peak resident set.  Pool workers are left out:
    each is forked from a heap whose size depends on the ops run before,
    which spread their peaks by 8%."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Sample:
    start: float
    end: float
    cpu: float
    executions: int
    latencies: List[float]
    #: each injection run scaled by the speed sampled around it
    scaled_latencies: List[float]
    result: OpResult
    spans: List[Span]
    #: mean speed while it ran (yardstick.py)
    speed: float

    @property
    def wall(self) -> float:
        return self.end - self.start


def measure(op: Op, tracer: Tracer, layers: bool) -> Sample:
    """Run *op* once; with *layers*, under every layer patch."""
    tracer.spans = []
    # start every op from the same heap state, whatever ran before it
    gc.collect()
    applied = tracer.install(LAYER_PATCHES) if layers else 0
    cpu0, start = _cpu_now(), time.perf_counter()
    try:
        with tracer.span("bench.op", op=op.label):
            result = op.run()
    finally:
        end, cpu = time.perf_counter(), _cpu_now() - cpu0
        tracer.uninstall(applied)
    tracer.collect_spool()
    runs = top_level(tracer.spans, "injection.run")
    profiles = sum(1 for s in tracer.spans if s.name == "detector.profile")
    samples = tracer.sampler.samples
    samples.sort()  # pool workers' samples arrive after the parent's
    return Sample(start, end, cpu, len(runs) + profiles, [s.dur for s in runs],
                  [s.dur * speed(samples, s.start, s.end) for s in runs],
                  result, tracer.spans, speed(samples, start, end))


def _order(ops: List[Op], seed: int) -> List[Op]:
    """The seed's order of the first pass."""
    shuffled = list(ops)
    random.Random(seed).shuffle(shuffled)
    return shuffled


def run_batch(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    sampler = Sampler()
    tracer = Tracer(spool_dir=work, sampler=sampler, cpus=pin(0))
    tracer.install(PROBE_PATCHES)
    try:
        ops = batch_ops(workload, work)
        sampler.start()
        if traced:
            return _traced_batch(workload, ops, seed, tracer)
        return _timed_batch(ops, seed, seconds, tracer)
    finally:
        sampler.stop()
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def _repeat_order(ops: List[Op], by_op: Dict[str, List[Sample]]) -> List[Op]:
    """After the first pass, repeat the longest ops first: they carry most
    of ``campaign_wall_s``, so a second run of them filters the most noise."""
    return sorted(ops, key=lambda op: -by_op[op.label][0].wall)


def _timed_batch(ops: List[Op], seed: int, seconds: float, tracer: Tracer) -> Dict[str, Any]:
    deadline = time.perf_counter() + seconds
    by_op: Dict[str, List[Sample]] = {op.label: [] for op in ops}
    problems: List[str] = []
    passes = 0
    while True:
        ran = False
        for op in _repeat_order(ops, by_op) if passes else _order(ops, seed):
            if passes and time.perf_counter() + by_op[op.label][0].wall > deadline:
                continue
            sample = measure(op, tracer, layers=False)
            problems += [f"{op.label}: {p}" for p in sample.result.verify()]
            if sys.gettrace() is not None or sys.getprofile() is not None:
                problems.append(f"{op.label}: left a trace or profile hook installed")
            if by_op[op.label] and sample.executions != by_op[op.label][0].executions:
                problems.append(
                    f"{op.label}: {sample.executions} subject executions, "
                    f"{by_op[op.label][0].executions} on its first run"
                )
            # keep the numbers, not the campaign outputs
            sample.spans = []
            sample.result = OpResult(verify=list, info=sample.result.info)
            by_op[op.label].append(sample)
            ran = True
        passes += 1
        if not ran or time.perf_counter() >= deadline:
            break

    every = [s for runs in by_op.values() for s in runs]

    def median_of(value: Callable[[Sample], float]) -> float:
        """One pass: the sum over ops of each op's median run."""
        return sum(statistics.median(value(s) for s in runs) for runs in by_op.values())

    # percentiles over each op's first run, so the mix of injection runs
    # behind them is one pass whatever was repeated
    first = [runs[0] for runs in by_op.values()]
    latencies = [x * 1000.0 for s in first for x in s.scaled_latencies]
    raw = [x * 1000.0 for s in first for x in s.latencies]
    p50 = stats.percentile(latencies, 50)
    p95 = stats.percentile(latencies, 95)
    metrics = {
        "campaign_wall_s": median_of(lambda s: s.wall * s.speed),
        "cpu_s": median_of(lambda s: s.cpu * s.speed),
        "peak_rss_mb": _peak_rss_mb(),
        "subject_executions": sum(s.executions for s in first),
        "op_p50_ms": p50.value,
    }
    pace = statistics.median(s.speed for s in every)
    info = {
        "op_p50_ms": (p50.value, "ms", p50.describe("ms") + " over injection runs"),
        "op_p95_ms": (p95.value, "ms", p95.describe("ms") + " over injection runs"),
        "ops_run": (len(every), "count", f"{len(every)} runs of {len(ops)} ops"),
        "speed": (pace, "x", f"{pace:.4f} median over ops; unscaled: "
                  f"campaign_wall_s {median_of(lambda s: s.wall):.6g}, "
                  f"cpu_s {median_of(lambda s: s.cpu):.6g}, "
                  f"op_p50_ms {stats.percentile(raw, 50).value:.6g}"),
    }
    for name in sorted({k for s in every for k in s.result.info}):
        value = statistics.median([s.result.info[name] for s in every if name in s.result.info])
        info[name] = (value, "x", f"{value:.4f} x (geometric mean of the grid, median over runs)")
    return {"attempted": len(every), "problems": problems, "metrics": metrics, "info": info}


def _traced_batch(workload: str, ops: List[Op], seed: int, tracer: Tracer) -> Dict[str, Any]:
    problems: List[str] = []
    spans: List[Span] = []
    telemetry: List[Dict[str, Any]] = []
    masking: List[Dict[str, int]] = []
    plain = traced = 0.0
    attempted = 0
    for index, op in enumerate(_order(ops, seed)):
        # Every other op also runs untraced, for trace.overhead_frac,
        # which keeps a traced run near 1.5 passes; of those, every other
        # one runs traced first, so the warm-up a first run pays falls on
        # both sides.
        untraced = measure(op, tracer, layers=False) if index % 4 == 0 else None
        sample = measure(op, tracer, layers=True)
        if index % 4 == 2:
            untraced = measure(op, tracer, layers=False)
        runs = [sample] if untraced is None else [sample, untraced]
        if untraced is not None:
            plain += untraced.wall * untraced.speed
            traced += sample.wall * sample.speed
        for run in runs:
            problems += [f"{op.label}: {p}" for p in run.result.verify()]
        attempted += len(runs)
        spans += sample.spans
        telemetry += sample.result.telemetry
        masking += sample.result.masking
    adopt_orphans(spans)
    roots = [s for s in spans if s.name == "bench.op"]
    metrics = layer_metrics(
        spans, roots, telemetry, masking, overhead_frac=traced / plain - 1.0
    )
    names = process_names(spans, {os.getpid(): "harness"}, "pool worker")
    return {
        "attempted": attempted,
        "problems": problems,
        "metrics": metrics,
        "info": {},
        "table": self_time_table(spans, names),
        "trace_file": write_trace(workload, seed, spans, names),
        "missing_patches": sorted(set(tracer.missing)),
    }


def process_names(spans: List[Span], known: Dict[int, str], other: str) -> Dict[int, str]:
    return {pid: known.get(pid, other) for pid in {s.pid for s in spans}}


def write_trace(workload: str, seed: int, spans: List[Span], names: Dict[int, str]) -> str:
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans, names), handle)
    return os.path.relpath(path, ROOT)


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


def run_serve(seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    import serve_mixed as sm

    env = dict(os.environ, PYTHONUNBUFFERED="1")
    log = os.path.join(OUT_DIR, "server.log")
    if not traced:
        passes = max(1, round(seconds / sm.PASS_SECONDS))
        hot, schedule = sm.make_inputs(seed, passes)
        run = sm.serve_once(False, env, ROOT, log, hot, schedule)
        metrics, info = sm.end_to_end(run, passes)
        return {"attempted": len(run.outcomes), "problems": run.problems,
                "metrics": metrics, "info": info}

    # one pass against an untraced server, then the same pass traced
    hot, schedule = sm.make_inputs(seed, 1)
    plain = sm.serve_once(False, env, ROOT, log, hot, schedule)
    run = sm.serve_once(True, env, ROOT, log, hot, schedule)
    start, end = run.window
    in_window = [s for s in run.spans if start <= s.start <= end]
    _, info = sm.end_to_end(run, 1)
    roots = [s for s in in_window if s.parent is None
             and s.name in ("service.submit", "service.campaign")]
    metrics = layer_metrics(
        in_window, roots,
        [o.result[1].get("telemetry", {}) for o in run.misses()],
        overhead_frac=run.campaign_walls() / plain.campaign_walls() - 1.0,
        window=run.window,
        lateness_p95_ms=info["loadgen.lateness_p95_ms"][0],
    )
    client = [
        Span(i, None, f"loadgen.{o.item.kind}", o.due, o.end, os.getpid(), 0,
             {"subject": o.item.subject.name, "lateness_ms": o.lateness * 1000.0})
        for i, o in enumerate(run.outcomes, start=1)
    ]
    names = process_names(in_window + client, {os.getpid(): "load generator"}, "repro serve")
    return {
        "attempted": len(plain.outcomes) + len(run.outcomes),
        "problems": plain.problems + run.problems,
        "metrics": metrics,
        "info": {},
        "table": self_time_table(in_window, names),
        "trace_file": write_trace("serve-mixed", seed, in_window + client, names),
        "missing_patches": run.missing,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


#: CPU seconds between a set-up probe's speed samples: a probe is busy
#: for about 0.2 s, and wants several.
PROBE_INTERVAL_S = 0.02


def setup_probe(workload: str) -> None:
    """Get *workload*'s program ready in this fresh interpreter and say
    so, then print the mean speed while it got ready, for ``run.py`` to
    scale its spawn-to-ready time."""
    started = time.perf_counter()
    sampler = Sampler(PROBE_INTERVAL_S)
    sampler.start()
    if workload == "serve-mixed":
        _serve_ready()
    else:
        from repro.experiments import ALL_PROGRAMS

        if workload == "t1-derived":
            [p.scaled(2 * p.rounds) for p in ALL_PROGRAMS]
    print("ready", flush=True)
    sampler.stop()
    print(repr(speed(sampler.samples, started, time.perf_counter())), flush=True)


def _serve_ready() -> None:
    """What ``python -m repro serve --port 0`` does until ``GET /stats``
    answers."""
    import asyncio

    import repro.cli  # noqa: F401 - the command line loads it first
    from loadgen import HttpClient
    from repro.service import ServiceServer

    async def ready() -> None:
        server = ServiceServer()
        port = await server.start("127.0.0.1", 0)
        try:
            await HttpClient("127.0.0.1", port, 1).request("GET", "/stats")
        finally:
            await server.stop()

    asyncio.run(ready())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "serve-mixed":
        result = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
