"""The serve-mixed workload: ``repro serve`` under open-loop Poisson load.

Every pass is a 5-second window of 200 submissions (40/s) whose arrival
times are a Poisson process conditioned on that count (sorted uniform
offsets).  150 of them repeat one of 24 hot subjects warmed before timing
starts; 50 are fresh subjects the server has never seen.  The load comes
from one asyncio thread over at most ``nproc`` (capped at 2) concurrent
connections.  A fresh submission's completion is observed by polling
``GET /campaigns/<id>`` every 5 ms.  The passes follow each other without
a gap.  The server runs ``repro serve --port 0`` through
``serve_traced.py``, which samples its speed (``yardstick.py``), pinned
to one CPU; the load generator samples its own.  Each timing is scaled
by the speeds sampled while it was taken.

Fresh and hot subjects are fuzz programs (``repro.fuzz.generate_program``
rendered with ``render_source`` plus a ``workload()``) whose spec workload
is repeated k times.  The corpus is fixed and stratified: programs are
drawn from one fuzz seed until every ``(k, injection points)`` slot of
:data:`HOT_SLOTS` and of :data:`MISS_SLOTS` (once per pass) has one, so
every run does the same campaigns.  The benchmark seed decides the
traffic: arrival times, the interleaving of hits and misses, which hot
subject each hit repeats and which fresh subject each miss submits.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.fuzz import ProgramSpec, generate_program, render_source, simulate
from repro.fuzz.spec import OP_CALL, OP_RAISE, OP_SELF_CALL

import stats
from loadgen import HttpClient, Outcome, ServerProcess, open_loop
from trace import Span
from yardstick import Sampler, Samples, pin, speed

HERE = os.path.dirname(os.path.abspath(__file__))
PASS_SECONDS = 5.0
PASS_SUBMISSIONS = 200
POLL_SECONDS = 0.005
CONNECTIONS = min(2, os.cpu_count() or 1)
HIT_SLO_S = 0.025
MISS_SLO_S = 0.250
TERMINAL = ("done", "failed", "shed")

#: (k, injection points) of the 50 fresh subjects of every pass: 25/15/10
#: at k = 1/4/16 (p = .5/.3/.2), point counts at the generator's common
#: values so a few draws find each.
MISS_SLOTS: List[Tuple[int, int]] = (
    [(1, 2)] * 3 + [(1, 3)] * 5 + [(1, 4)] * 5 + [(1, 5)] * 3 + [(1, 6)] * 2
    + [(1, 7)] * 2 + [(1, 8), (1, 9), (1, 10), (1, 11), (1, 12)]
    + [(4, 5)] * 2 + [(4, 9)] * 3 + [(4, 10)] + [(4, 13)] * 3 + [(4, 14)]
    + [(4, 17)] * 2 + [(4, 25)] * 2 + [(4, 26)]
    + [(16, 17)] * 2 + [(16, 33)] * 3 + [(16, 49)] * 2
    + [(16, 65), (16, 66), (16, 97)]
)

#: (k, injection points) of the 24 hot subjects.
HOT_SLOTS: List[Tuple[int, int]] = (
    [(1, 2), (1, 3), (1, 3), (1, 4), (1, 4), (1, 5), (1, 5), (1, 6), (1, 7),
     (1, 8), (1, 10), (1, 12)]
    + [(4, 5), (4, 9), (4, 9), (4, 13), (4, 13), (4, 17), (4, 25)]
    + [(16, 17), (16, 33), (16, 33), (16, 49), (16, 65)]
)

#: The fuzz-generator seed the subject corpus is drawn from.
CORPUS_SEED = 2003

_HEADER = "from repro.fuzz.build import FuzzDeclaredError\n\n"


@dataclass
class Subject:
    name: str
    source: str
    spec: ProgramSpec
    points: int
    _expected: Optional[Dict[str, str]] = field(default=None, repr=False)

    @property
    def expected(self) -> Dict[str, str]:
        """Categories the oracle (``repro.fuzz.simulate``) demands."""
        if self._expected is None:
            self._expected = simulate(self.spec).categories
        return self._expected


@dataclass
class Submission:
    kind: str  # "hit" or "miss"
    subject: Subject


def count_points(spec: ProgramSpec) -> int:
    """Injection points of one profiling run of *spec*.

    Bodies are straight-line, so the count follows from the structure:
    every woven call contributes its repertoire (2 points for a method
    declaring ``FuzzDeclaredError``, else 1), a genuine raise ends its
    method and every caller up to the workload's ``try``.
    """

    def construct(ci: int) -> int:
        return 1 + sum(construct(child) for child in spec.classes[ci].children)

    @functools.lru_cache(maxsize=None)
    def call(ci: int, mi: int) -> Tuple[int, bool]:
        cd = spec.classes[ci]
        md = cd.methods[mi]
        points = 2 if md.declares else 1
        for op in md.ops:
            if op[0] == OP_RAISE:
                return points, True
            if op[0] in (OP_CALL, OP_SELF_CALL):
                target = (cd.children[op[1]], op[2]) if op[0] == OP_CALL else (ci, op[1])
                inner, raised = call(*target)
                points += inner
                if raised:
                    return points, True
        return points, False

    return construct(0) + sum(call(0, mi)[0] for mi in spec.workload)


def render_subject(spec: ProgramSpec) -> str:
    names = tuple(spec.classes[0].methods[i].name for i in spec.workload)
    return (
        _HEADER
        + render_source(spec)
        + "def workload():\n"
        + f"    root = {spec.classes[0].name}()\n"
        + f"    for name in {names!r}:\n"
        + "        try:\n"
        + "            getattr(root, name)()\n"
        + "        except FuzzDeclaredError:\n"
        + "            pass\n"
    )


class SubjectStream:
    """Distinct subjects drawn from one fuzz seed's program stream."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.index = 0
        self._sources: set = set()

    def draw(self, k: int, points: int) -> Subject:
        for _ in range(100_000):
            base = generate_program(self.seed, self.index)
            self.index += 1
            spec = ProgramSpec(f"{base.name}x{k}", base.classes, base.workload * k)
            if count_points(spec) != points:
                continue
            source = render_subject(spec)
            if source in self._sources:
                continue
            self._sources.add(source)
            return Subject(spec.name, source, spec, points)
        raise RuntimeError(f"no fuzz program with k={k}, {points} points")


def corpus(passes: int) -> Tuple[List[Subject], List[Subject]]:
    """The hot set and ``passes`` x 50 fresh subjects.

    Like the Table-1 apps of the batch workloads, the corpus is fixed
    (drawn from :data:`CORPUS_SEED`): every seed's run does the same
    campaigns, and the seed decides the traffic around them.
    """
    stream = SubjectStream(CORPUS_SEED)
    hot = [stream.draw(k, points) for k, points in HOT_SLOTS]
    fresh = [stream.draw(k, points) for _ in range(passes) for k, points in MISS_SLOTS]
    return hot, fresh


def make_inputs(seed: int, passes: int) -> Tuple[List[Subject], List[Tuple[float, Submission]]]:
    """The hot set and the seed's arrival schedule of *passes* windows:
    arrival times, the order of hits and misses, which hot subject each
    hit repeats, and which fresh subject each miss submits."""
    hot, fresh = corpus(passes)
    rng = random.Random(f"serve-mixed:{seed}")
    rng.shuffle(fresh)
    hits = PASS_SUBMISSIONS - len(MISS_SLOTS)
    schedule: List[Tuple[float, Submission]] = []
    for p in range(passes):
        kinds = ["hit"] * hits + ["miss"] * len(MISS_SLOTS)
        rng.shuffle(kinds)
        offsets = sorted(rng.uniform(0.0, PASS_SECONDS) for _ in kinds)
        for offset, kind in zip(offsets, kinds):
            subject = hot[rng.randrange(len(hot))] if kind == "hit" else fresh.pop()
            schedule.append((p * PASS_SECONDS + offset, Submission(kind, subject)))
    return hot, schedule


async def _submit(client: HttpClient, submission: Submission) -> Tuple[int, Dict[str, Any]]:
    """POST one subject; for a fresh one, poll until it is terminal."""
    subject = submission.subject
    status, body = await client.request(
        "POST", "/campaigns", {"source": subject.source, "name": subject.name}
    )
    if status != 202:
        return status, body
    path = f"/campaigns/{body['id']}"
    while body.get("status") not in TERMINAL:
        await asyncio.sleep(POLL_SECONDS)
        status, body = await client.request("GET", path)
    return status, body.get("result") or body


def verify(outcome: Outcome) -> Optional[str]:
    """Why this submission failed, or None when it was answered right."""
    submission: Submission = outcome.item
    if outcome.error is not None:
        return outcome.error
    status, payload = outcome.result
    expect_cached = submission.kind == "hit"
    if (
        status != 200
        or "classification" not in payload
        or bool(payload.get("cached")) != expect_cached
    ):
        return f"{submission.kind} {submission.subject.name}: HTTP {status} {str(payload)[:200]}"
    got = {k: v["category"] for k, v in payload.get("classification", {}).items()}
    if got != submission.subject.expected:
        return f"{submission.subject.name}: categories {got} != oracle {submission.subject.expected}"
    return None


def _warm(server: ServerProcess, hot: List[Subject]) -> None:
    async def warm_all() -> None:
        client = HttpClient(server.host, server.port, CONNECTIONS)
        for subject in hot:
            await _submit(client, Submission("miss", subject))

    asyncio.run(warm_all())


def _run_schedule(server: ServerProcess, schedule) -> List[Outcome]:
    async def drive() -> List[Outcome]:
        client = HttpClient(server.host, server.port, CONNECTIONS)
        return await open_loop(schedule, functools.partial(_submit, client))

    return asyncio.run(drive())


@dataclass
class ServeRun:
    outcomes: List[Outcome]
    problems: List[str]
    cpu_s: float
    peak_rss_mb: float
    window: Tuple[float, float]
    #: the server's and the load generator's speed samples
    samples: Samples
    client_samples: Samples
    #: the server's spans (traced)
    spans: List[Span]
    missing: List[str]

    def misses(self) -> List[Outcome]:
        """Fresh submissions answered correctly."""
        return [o for o in self.outcomes if o.item.kind == "miss" and verify(o) is None]

    def speed(self, start: float, end: float) -> float:
        """The server's speed over an interval."""
        return speed(self.samples, start, end)

    def latency_speed(self, outcome: Outcome) -> float:
        """A latency is spent in both processes: the mean of their
        speeds while the request was under way."""
        client = speed(self.client_samples, outcome.due, outcome.end)
        return (self.speed(outcome.due, outcome.end) + client) / 2.0

    def campaign_walls(self) -> float:
        """The server's own wall time of its fresh campaigns, scaled."""
        return sum(campaign_wall(o) * self.speed(o.start, o.end) for o in self.misses())


def serve_once(traced: bool, env: Dict[str, str], root: str, log_path: str,
               hot: List[Subject], schedule) -> ServeRun:
    """Start a server, warm its cache, run *schedule*, stop it."""
    dump_path = os.path.join(os.path.dirname(log_path), f"server-{os.getpid()}.json")
    argv = [sys.executable, os.path.join(HERE, "serve_traced.py"),
            "--out", dump_path, "--trace", str(int(traced))]
    server = ServerProcess(argv, env, root, log_path)
    client = Sampler()
    # off the server's CPU, so neither waits for the other; undone
    # before the next server is started, which would inherit it
    cpus = pin(1)
    try:
        server.wait_ready()
        _warm(server, hot)
        cpu0 = server.cpu_seconds()
        client.start()
        start = time.perf_counter()
        outcomes = _run_schedule(server, schedule)
        window = (start, time.perf_counter())
        cpu = server.cpu_seconds() - cpu0
        rss = server.peak_rss_mb()
    finally:
        client.stop()
        os.sched_setaffinity(0, cpus)
        code = server.stop()
    problems = [p for p in (verify(o) for o in outcomes) if p]
    if code != 0:
        problems.append(f"server exited with status {code}")
    with open(dump_path, encoding="utf-8") as handle:
        dump = json.load(handle)
    os.remove(dump_path)
    return ServeRun(outcomes, problems, cpu, rss, window,
                    [tuple(s) for s in dump["samples"]], client.samples,
                    [Span.from_dict(s) for s in dump["spans"]], dump["missing"])


def executions(outcome: Outcome) -> int:
    """Subject executions a fresh campaign paid: its executed runs plus
    the profiling run (a cache hit pays none)."""
    telemetry = outcome.result[1].get("telemetry", {})
    return int(telemetry.get("runs_executed", 0)) + 1


def campaign_wall(outcome: Outcome) -> float:
    """The server's own wall time for a fresh campaign."""
    return float(outcome.result[1]["telemetry"]["wall_seconds"])


def end_to_end(run: ServeRun, passes: int) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str, str]]]:
    """The gated metrics (per pass) and the informational ones of a run.

    ``op_p50_ms`` is the median latency of a cache hit, the operation
    three submissions in four are: over hits and misses together the
    median falls where the two mix, and moved by 12% between seeds.
    Timings are scaled by the speed samples taken while they were under
    way (or the nearest ones): a campaign and the server's CPU time by
    the server's, a latency by the server's and the load generator's.
    ``slo_frac`` and the lateness judge raw seconds, as a user would.
    """
    scaled = {id(o): o.latency * 1000.0 * run.latency_speed(o) for o in run.outcomes}

    def latency(kind: str, q: float, unscaled: bool = False) -> stats.Percentile:
        return stats.percentile([o.latency * 1000.0 if unscaled else scaled[id(o)]
                                 for o in run.outcomes if o.item.kind == kind], q)

    hit_p50 = latency("hit", 50)
    misses = run.misses()
    metrics = {
        "campaign_wall_s": run.campaign_walls() / passes,
        "cpu_s": run.cpu_s * run.speed(*run.window) / passes,
        "peak_rss_mb": run.peak_rss_mb,
        "subject_executions": sum(executions(o) for o in misses) / passes,
        "op_p50_ms": hit_p50.value,
    }
    pace = run.speed(*run.window)
    info: Dict[str, Tuple[float, str, str]] = {
        "op_p50_ms": (hit_p50.value, "ms", hit_p50.describe("ms") + " over cache hits"),
        "speed": (pace, "x",
                  f"{pace:.4f} over the load window; unscaled: "
                  f"campaign_wall_s {sum(campaign_wall(o) for o in misses) / passes:.6g}, "
                  f"cpu_s {run.cpu_s / passes:.6g}, "
                  f"op_p50_ms {latency('hit', 50, unscaled=True).value:.6g}"),
    }
    for kind, q in (("hit", 95), ("miss", 50), ("miss", 90)):
        pct = latency(kind, q)
        info[f"{kind}_p{q}_ms"] = (pct.value, "ms", pct.describe("ms"))
    failed = {id(o) for o in run.outcomes if verify(o)}
    within = sum(
        1
        for o in run.outcomes
        if id(o) not in failed
        and o.latency <= (HIT_SLO_S if o.item.kind == "hit" else MISS_SLO_S)
    )
    info["slo_frac"] = (within / len(run.outcomes), "ratio",
                        f"{within}/{len(run.outcomes)} within 25 ms (hit) / 250 ms (miss)")
    lateness = stats.percentile([o.lateness * 1000.0 for o in run.outcomes], 95)
    note = lateness.describe("ms")
    if lateness.value > 5.0:
        note += "  INVALID RUN: generator more than 5 ms late"
    info["loadgen.lateness_p95_ms"] = (lateness.value, "ms", note)
    return metrics, info
