"""The campaign engine: shards as supervised, killable child processes.

:meth:`ShardSupervisor.run` — behind ``run_app_campaign(workers=N)``,
``repro chaos`` and the supervised benchmark alike — builds, weaves and
profiles the subject **once**, in the parent, then runs each interleaved
shard of the plan in a forked child process (at most ``workers`` at
once, by default as many as the machine has CPUs) that inherits the
subject, weaves its own copy and appends to its own journal fragment.
Each child writes its current step and the time it started into a
shared-memory slot, which the parent reads at every poll, the engine's
one clock.  A run older than the per-run budget, or any other step
older than the heartbeat timeout, gets ``Process.kill()``, which cannot
land in a ``finally`` of the parent or leave its classes woven.  A
killed run is retried at once by a fresh process, then journaled
crashed; a shard that died, hung, raised, or journaled crashed points
is retried from its fragment with capped exponential backoff and
seeded jitter, in a fixed order.  The fragments then merge
bit-identical to the sequential engine.

:func:`run_chaos_campaign` turns the paper's thesis — recovery code is
the least-tested code — on our own recovery code: it arms a seeded
:class:`~repro.resilience.chaos.FaultPlan` (worker kills, torn journal
tails, IO errors, hung runs, fired inside the shard processes), runs the
supervised campaign under fire, and asserts the merged result is
**bit-identical** to a fault-free sequential reference, with every
scheduled fault kind fired.  ``repro chaos`` and
``benchmarks/bench_resilience.py`` are thin shells around it.
"""

from __future__ import annotations

import dataclasses
import glob
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import plan_points
from repro.resilience.chaos import (
    FaultPlan,
    active_injector,
    arm,
    standard_plan,
)

from . import parallel as _kernel
from .campaign import run_campaign
from .config import CampaignConfig
from .parallel import (
    SLOT_DONE,
    SLOT_STARTED,
    SLOT_STEP,
    STEP_CLOSE,
    STEP_SETUP,
    JournalError,
)
from .programs import AppProgram
from .shard import (
    MergedCampaign,
    ShardError,
    ShardFragment,
    ShardProfile,
    ShardResult,
    merge_fragments,
    profile_shards,
)

__all__ = [
    "SupervisorError",
    "ShardOutcome",
    "SupervisedCampaign",
    "ShardSupervisor",
    "ChaosReport",
    "run_chaos_campaign",
]

#: Trace-pass counters of the parent's profiling run.
_TRACE_COUNTERS = ("trace_seconds", "trace_captures")

#: Counters each shard process keeps; the campaign reports their sum.
_SHARD_COUNTERS = (
    "runs_recaptured",
    "runs_replayed",
    "state_captures",
    "state_fingerprints",
    "state_compares",
    "state_seconds",
)


class SupervisorError(RuntimeError):
    """A shard exhausted its attempt budget without a complete fragment."""


@dataclass
class ShardOutcome:
    """How one shard fared under supervision."""

    shard_index: int
    attempts: int = 0
    failures: List[str] = field(default_factory=list)
    result: Optional[ShardResult] = None

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class SupervisedCampaign:
    """A supervised sharded campaign, merged and accounted for."""

    merged: MergedCampaign
    outcomes: List[ShardOutcome]
    shard_retries: int


class _ShardProcess:
    """One process of one shard attempt, forked as a child."""

    def __init__(self, ctx, *args: Any) -> None:
        # The setup step starts now, as the parent forks.
        self.slot = ctx.RawArray("d", 3)
        _kernel.enter_step(self.slot, STEP_SETUP)
        self.conn, writer = ctx.Pipe(duplex=False)
        # Looked up now, not at import, so an instrumented _run_chunk
        # (the benchmark's span probes) is what the child enters.
        self.process = ctx.Process(
            target=_kernel._run_chunk,
            args=(writer, self.slot) + args,
            daemon=True,
        )
        self.process.start()
        writer.close()
        self.result: Optional[ShardResult] = None
        self.error: Optional[str] = None

    @property
    def done(self) -> int:
        """Points of the shard done, as the child last wrote it."""
        return int(self.slot[SLOT_DONE])

    def overrun(
        self, timeout: Optional[float], heartbeat: float
    ) -> Optional[float]:
        """The child's current step if it has outlived its limit — the
        run budget *timeout* for a run step, *heartbeat* for any other —
        else ``None``.  A run without a *timeout* has no limit."""
        step = self.slot[SLOT_STEP]
        age = time.monotonic() - self.slot[SLOT_STARTED]
        limit = timeout if step > 0 else heartbeat
        if limit is None or age <= limit or self.slot[SLOT_STEP] != step:
            return None  # in time, or read across a step change
        return step

    def drain(self) -> None:
        """Read the message the child sent, if it has."""
        try:
            while self.conn.poll():
                kind, payload = self.conn.recv()
                if kind == "done":
                    self.result = payload
                else:
                    self.error = payload
        except (EOFError, OSError):
            pass  # the child is gone; its exit code says the rest

    def stop(self, grace: float) -> None:
        self.process.kill()
        self.process.join(grace)
        self.conn.close()


def _describe(step: float) -> str:
    """A progress-slot step id other than a run, in words."""
    if step == STEP_SETUP:
        return "setup"
    return "close" if step == STEP_CLOSE else f"journaling point {int(-step)}"


def _fragment_paths(
    workdir: str, shard_count: int, resume: bool, plan: Dict[str, Any]
) -> List[str]:
    """The fragment paths of a campaign journaled in *workdir*.

    A fresh run removes stale ``shard-*.jsonl`` files first.  A resume
    keeps them, checks that their headers describe *plan* — before any
    shard starts, since a fragment of another campaign is the caller's
    error, not a shard failure to retry — and takes the shard count
    from them.
    """
    if os.path.isfile(workdir):
        raise JournalError(
            f"journal {workdir!r} is a file, not a directory of shard "
            "fragments: single-file journals of older versions cannot be "
            "resumed; delete it or pass a directory"
        )
    os.makedirs(workdir, exist_ok=True)
    for path in glob.glob(os.path.join(workdir, "shard-*.jsonl")):
        if not resume:
            os.remove(path)
            continue
        with open(path, "rb") as handle:
            entries, _ = _kernel.scan_jsonl(handle.readline())
        if entries:  # a fragment torn inside its header holds nothing
            ShardFragment(path).check_header(entries[0], plan)
            shard_count = int(entries[0].get("shard_count", shard_count))
    return [
        os.path.join(workdir, f"shard-{index:02d}.jsonl")
        for index in range(shard_count)
    ]


class ShardSupervisor:
    """Runs a campaign's shards as supervised child processes.

    Args:
        max_attempts: attempts per shard; a shard still missing points
            after the last raises :class:`SupervisorError`, one whose
            crashed points survive it is merged with them reported.
        backoff_base: first retry delay (seconds); doubles per attempt.
        backoff_cap: upper bound on any single delay.
        heartbeat_timeout: longest a shard process may spend in a step
            other than a run (setup, journaling a point, close) before
            it is killed as hung; a run's limit is ``timeout`` of
            :meth:`run`.  A kill comes within one :meth:`poll_interval`.
        kill_grace: seconds to wait for a killed process to be reaped.
        seed: seeds the backoff jitter (reproducible supervised runs).
    """

    def __init__(
        self,
        *,
        max_attempts: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        heartbeat_timeout: float = 5.0,
        kill_grace: float = 2.0,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if backoff_base < 0 or backoff_cap < backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")
        if heartbeat_timeout <= 0 or kill_grace < 0:
            raise ValueError("heartbeat_timeout must be > 0, kill_grace >= 0")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.heartbeat_timeout = heartbeat_timeout
        self.kill_grace = kill_grace
        self._rng = random.Random(seed)

    def poll_interval(self, timeout: Optional[float] = None) -> float:
        """How often the parent reads the progress slots: 50 ms, or a
        quarter of a step's shortest limit, but at least 10 ms."""
        shortest = min(self.heartbeat_timeout, timeout or math.inf)
        return max(0.01, min(0.05, shortest / 4.0))

    def backoff(self, attempt: int) -> float:
        """Delay before retry *attempt*: capped exponential, seeded
        jitter in [0.5x, 1.5x) so co-scheduled supervisors desynchronize."""
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return delay * (0.5 + self._rng.random())

    def run(
        self,
        program_factory: Callable[[], AppProgram],
        shard_count: int,
        workdir: str,
        config: CampaignConfig = CampaignConfig(),
        *,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> SupervisedCampaign:
        """Run every shard of one campaign under supervision, then merge.

        Fragments land in *workdir* as ``shard-NN.jsonl``: one per
        shard, but never more than the plan has points.  With *resume*
        the shard count comes from the fragments already there, and only
        the points missing from them run.  At most ``config.workers``
        shard processes run at once, and never more than the machine's
        CPUs; ``workers=1`` runs them one at a time, which a fault
        schedule that must fire at the same invocations on every run
        needs.  *program_factory* is called once, here in the parent;
        every shard process inherits the subject it built through the
        fork.  A run that outlives ``config.timeout`` is killed and run
        again by a fresh process, up to ``config.retries`` times, then
        journaled crashed.
        """
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        started = time.perf_counter()
        program = program_factory()
        profile = profile_shards(program, config)
        total = profile.profile.total_points
        points = plan_points(total, stride=config.stride)
        plan = config.header(program, total)
        paths = _fragment_paths(
            workdir, min(shard_count, len(points)), resume, plan
        )
        resumed = set()
        for path in paths if resume else ():
            resumed.update(ShardFragment(path).load_done(plan))
        resumed &= set(points)
        concurrency = min(
            config.workers or len(paths), len(paths), os.cpu_count() or 1
        )
        profiled = time.perf_counter()
        outcomes = self._run_shards(
            program,
            profile,
            config,
            paths,
            workers=concurrency,
            resume=resume,
            progress=progress,
            runs_total=len(points),
        )
        executed_at = time.perf_counter()
        merged = merge_fragments(paths)
        finished = time.perf_counter()

        results = [o.result for o in outcomes if o.result is not None]
        derived = sum(
            1 for p in points if p in profile.profile.decided and p not in resumed
        )
        busy = {str(r.shard_index): r.wall_seconds for r in results}
        executed = len(points) - len(resumed) - derived
        execute = executed_at - profiled
        capacity = concurrency * execute
        shard_retries = sum(outcome.retries for outcome in outcomes)
        injector = active_injector()
        merged.detection.telemetry = dataclasses.replace(
            merged.detection.telemetry,
            engine="supervised",
            workers=concurrency,
            runs_executed=executed,
            runs_resumed=len(resumed),
            runs_derived=derived,
            faults_injected=injector.faults_injected if injector else 0,
            shard_retries=shard_retries,
            wall_seconds=finished - started,
            runs_per_second=executed / (finished - started),
            phase_seconds={
                "profile": profiled - started,
                "execute": execute,
                "merge": finished - executed_at,
            },
            worker_busy_seconds=busy,
            worker_utilization=(
                min(1.0, sum(busy.values()) / capacity) if capacity else 0.0
            ),
            **{name: getattr(profile.profile, name) for name in _TRACE_COUNTERS},
            **{
                name: sum(getattr(r.telemetry, name) for r in results)
                for name in _SHARD_COUNTERS
            },
        )
        return SupervisedCampaign(merged, outcomes, shard_retries)

    def _run_shards(
        self,
        program: AppProgram,
        profile: ShardProfile,
        config: CampaignConfig,
        paths: List[str],
        *,
        workers: int,
        resume: bool,
        progress: Optional[Callable[[int, int], None]],
        runs_total: int,
    ) -> List[ShardOutcome]:
        """Start, watch, kill and retry shard processes until every
        fragment is complete."""
        import multiprocessing
        from multiprocessing.connection import wait

        ctx = multiprocessing.get_context("fork")
        count = len(paths)
        outcomes = [ShardOutcome(shard_index=i) for i in range(count)]
        ready_at = {index: 0.0 for index in range(count)}  # waiting shards
        running: Dict[int, _ShardProcess] = {}
        done = [0] * count
        # Each point's runs killed for the run budget in this attempt.
        tries: List[Dict[int, int]] = [{} for _ in range(count)]
        poll = self.poll_interval(config.timeout)

        def start(index: int, resumed: bool) -> None:
            given_up = (
                p for p, n in tries[index].items() if n > config.retries
            )
            running[index] = _ShardProcess(
                ctx, program, index, count, paths[index], config, profile,
                resumed, tries[index], frozenset(given_up),
            )

        try:
            while ready_at or running:
                delay = poll
                if ready_at and len(running) < workers:
                    # The next attempt belongs to the waiting shard with
                    # the fewest attempts, lowest index first, whatever
                    # the backoffs: a fixed order, so a fault plan
                    # counted across processes fires the same way on
                    # every run.
                    index = min(
                        ready_at, key=lambda i: (outcomes[i].attempts, i)
                    )
                    delay = ready_at[index] - time.monotonic()
                    if delay <= 0:
                        del ready_at[index]
                        outcomes[index].attempts += 1
                        tries[index] = {}
                        start(index, resume or outcomes[index].attempts > 1)
                        continue
                if not running:
                    time.sleep(delay)
                    continue
                wait(
                    [c.conn for c in running.values()]
                    + [c.process.sentinel for c in running.values()],
                    min(poll, delay),
                )
                for index, child in list(running.items()):
                    finished, failure, overrun = self._check(
                        child, config.timeout
                    )
                    if child.done > done[index]:
                        done[index] = child.done
                        if progress is not None:
                            progress(sum(done), runs_total)
                    if not finished:
                        continue
                    if overrun is not None:
                        # A run over its budget is a retry of its point,
                        # not a new attempt: a fresh process resumes the
                        # fragment at once and runs the point again, or
                        # journals it crashed once its tries are used up.
                        killed = tries[index]
                        killed[overrun] = killed.get(overrun, 0) + 1
                        start(index, True)
                        continue
                    del running[index]
                    outcome = outcomes[index]
                    if failure is not None:
                        outcome.failures.append(
                            f"attempt {outcome.attempts}: {failure}"
                        )
                    if failure is None or (
                        # a complete fragment, crashed points and all:
                        # the merge reports them
                        outcome.attempts == self.max_attempts
                        and child.result is not None
                    ):
                        outcome.result = child.result
                    elif outcome.attempts < self.max_attempts:
                        delay = self.backoff(outcome.attempts)
                        ready_at[index] = time.monotonic() + delay
                    else:
                        raise SupervisorError(
                            f"shard {index}/{count} did not complete after "
                            f"{self.max_attempts} attempt(s): "
                            + "; ".join(outcome.failures)
                        )
        finally:
            for child in running.values():
                child.stop(self.kill_grace)
        return outcomes

    def _check(
        self, child: _ShardProcess, timeout: Optional[float]
    ) -> Tuple[bool, Optional[str], Optional[int]]:
        """``(finished, failure, overrun)`` of *child*: ``failure`` is
        ``None`` for a clean finish, else the reason it failed, and
        ``overrun`` the point whose run outlived *timeout* (the child is
        then killed, and its attempt goes on)."""
        if child.process.is_alive():
            child.drain()  # a result larger than the pipe holds comes now
            step = child.overrun(timeout, self.heartbeat_timeout)
            if step is None:
                return False, None, None
            child.stop(self.kill_grace)
            if step > 0:
                return True, None, int(step)
            return True, (
                f"hung: {_describe(step)} took over "
                f"{self.heartbeat_timeout:g}s, worker killed"
            ), None
        child.process.join()
        child.drain()  # what it sent before exiting
        child.conn.close()
        if child.result is not None:
            # Resume excludes crashed points from "done", so a retry
            # re-runs exactly them.
            crashed = child.result.crashed
            failure = f"{crashed} crashed point(s) journaled" if crashed else None
            return True, failure, None
        code = child.process.exitcode
        return True, child.error or (
            f"worker killed by signal {-code}"
            if code < 0
            else f"worker exited with code {code}"
        ), None


# ---------------------------------------------------------------------------
# The chaos convergence harness
# ---------------------------------------------------------------------------


@dataclass
class ChaosReport:
    """Verdict of one chaos experiment (the ``repro chaos`` output)."""

    program: str
    seed: int
    shard_count: int
    converged: bool
    identical: bool
    faults_injected: int
    faults_by_kind: Dict[str, int]
    required_kinds: List[str]
    missing_kinds: List[str]
    shard_retries: int
    attempts_per_shard: List[int]
    failures: List[str]
    fault_log: List[Dict[str, Any]]
    plan: Dict[str, Any]
    error: Optional[str]
    wall_seconds: float
    config: CampaignConfig

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        verdict = "CONVERGED" if self.converged else "DIVERGED"
        lines = [
            f"chaos[{self.program}] seed={self.seed} "
            f"shards={self.shard_count}: {verdict}",
            f"faults injected: {self.faults_injected} "
            + (
                "("
                + ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.faults_by_kind.items())
                )
                + ")"
                if self.faults_by_kind
                else "(none)"
            ),
            f"shard retries: {self.shard_retries} "
            f"(attempts per shard: "
            f"{', '.join(str(a) for a in self.attempts_per_shard)})",
            f"merged result identical to fault-free reference: "
            f"{'yes' if self.identical else 'NO'}",
        ]
        if self.missing_kinds:
            lines.append(
                "scheduled fault kind(s) never fired: "
                + ", ".join(self.missing_kinds)
            )
        if self.error:
            lines.append(f"error: {self.error}")
        for failure in self.failures:
            lines.append(f"  {failure}")
        lines.append(f"wall: {self.wall_seconds:.3f}s")
        return "\n".join(lines)


#: The chaos harness's default campaign: a per-run budget the standard
#: plan's hung runs blow.
CHAOS_CONFIG = CampaignConfig(timeout=0.25)


def run_chaos_campaign(
    program_factory: Callable[[], AppProgram],
    workdir: str,
    config: CampaignConfig = CHAOS_CONFIG,
    *,
    seed: int = 0,
    shard_count: int = 3,
    plan: Optional[FaultPlan] = None,
    supervisor: Optional[ShardSupervisor] = None,
    hang_seconds: float = 1.0,
) -> ChaosReport:
    """Run one seeded chaos experiment and report convergence.

    Runs the campaign fault-free on the sequential engine (the
    reference), arms the seeded fault plan (default
    :func:`standard_plan`: a worker kill, a torn append, an IO error,
    and ``retries + 1`` consecutive hung runs, so the hung point is
    journaled *crashed* before the supervisor rescues it), runs the
    supervised campaign under fire, one shard process at a time so the
    plan's faults fire at the same invocations on every run (the
    ``run.exec`` hangs land on one point, not on two concurrent
    shards), and reports ``converged`` — what
    ``make chaos-smoke`` gates on — only when the merged log and
    classification equal the reference's and every scheduled fault
    kind fired.
    """
    started = time.perf_counter()
    config = dataclasses.replace(config, workers=1)
    reference = run_campaign(program_factory(), config.sequential())
    if plan is None:
        plan = standard_plan(
            seed, hang_seconds=hang_seconds, run_hangs=config.retries + 1
        )
    if supervisor is None:
        supervisor = ShardSupervisor(seed=seed)

    supervised: Optional[SupervisedCampaign] = None
    error: Optional[str] = None
    with arm(plan) as injector:
        try:
            supervised = supervisor.run(
                program_factory, shard_count, workdir, config
            )
        except (SupervisorError, ShardError) as exc:
            error = f"{type(exc).__name__}: {exc}"

    identical = supervised is not None and (
        supervised.merged.detection.log.to_json()
        == reference.detection.log.to_json()
        and supervised.merged.classify().to_json()
        == reference.classification.to_json()
        and supervised.merged.detection.genuine_failures
        == reference.detection.genuine_failures
    )
    required = plan.kinds()
    coverage = injector.coverage()
    missing = [kind for kind in required if coverage.get(kind, 0) < 1]
    converged = identical and not missing and error is None
    return ChaosReport(
        program=reference.name,
        seed=seed,
        shard_count=shard_count,
        converged=converged,
        identical=identical,
        faults_injected=injector.faults_injected,
        faults_by_kind=coverage,
        required_kinds=required,
        missing_kinds=missing,
        shard_retries=supervised.shard_retries if supervised else 0,
        attempts_per_shard=(
            [outcome.attempts for outcome in supervised.outcomes]
            if supervised
            else []
        ),
        failures=(
            [f for o in supervised.outcomes for f in o.failures]
            if supervised
            else []
        ),
        fault_log=list(injector.log),
        plan=plan.to_dict(),
        error=error,
        wall_seconds=time.perf_counter() - started,
        config=config,
    )
