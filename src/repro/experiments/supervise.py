"""Shard supervision: heartbeats, bounded retries, chaos convergence.

:mod:`repro.experiments.shard` made a campaign resumable — any shard can
die mid-fragment and a later ``run_shard(resume=True)`` finishes the
work.  This module adds the part that *notices* the death and issues the
retry: a :class:`ShardSupervisor` runs each shard worker on a monitored
thread, watches a heartbeat the worker stamps after every completed
point, kills workers whose heartbeat goes stale (the same
async-exception mechanism the per-run watchdog uses, so a hung worker
unwinds cleanly through the weaver context), and retries crashed
or hung shards with capped exponential backoff and seeded jitter until
the fragment is complete or the attempt budget runs out.

Shards run **sequentially** under the supervisor: instrumentation
rewrites classes process-globally, so two shard workers in one process
would trample each other's weave.  The supervisor buys fault tolerance,
not parallelism — run one supervisor per process (or per host) and
merge the fragments, exactly like ``repro shard`` / ``repro merge``.

:func:`run_chaos_campaign` closes the loop with the paper's own thesis:
recovery code is the least-tested code, so our recovery code gets a
dedicated test harness.  It runs a fault-free sequential reference,
arms a seeded :class:`~repro.resilience.chaos.FaultPlan` (worker kills
mid-fragment, torn journal tails, injected IO errors, hung runs), runs
the supervised sharded campaign under fire, and asserts the merged
result is **bit-identical** to the reference — same run log JSON, same
classification — with every scheduled fault kind actually fired.
``repro chaos`` and ``benchmarks/bench_resilience.py`` are thin shells
around it.
"""

from __future__ import annotations

import ctypes
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.resilience.chaos import (
    FaultPlan,
    ShardHung,
    active_injector,
    arm,
    standard_plan,
)

from .campaign import run_app_campaign
from .programs import AppProgram
from .shard import (
    MergedCampaign,
    ShardError,
    ShardResult,
    merge_fragments,
    run_shard,
)

__all__ = [
    "SupervisorError",
    "ShardOutcome",
    "SupervisedCampaign",
    "ShardSupervisor",
    "ChaosReport",
    "run_chaos_campaign",
]


class SupervisorError(RuntimeError):
    """A shard exhausted its attempt budget without a complete fragment."""


class _Heartbeat:
    """Monotonic liveness stamp shared between worker and supervisor."""

    def __init__(self) -> None:
        self.ident: Optional[int] = None  # worker thread id, set on start
        self._lock = threading.Lock()
        self._last = time.monotonic()

    def stamp(self) -> None:
        with self._lock:
            self._last = time.monotonic()

    def age(self) -> float:
        with self._lock:
            return time.monotonic() - self._last


def _post_async_exc(ident: int, exc_type: type) -> bool:
    """Raise *exc_type* inside the thread *ident* at its next bytecode
    boundary — the only portable way to interrupt a hung worker thread
    (same mechanism as :class:`~repro.experiments.parallel._TimeoutGuard`).
    """
    posted = ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(ident), ctypes.py_object(exc_type)
    )
    if posted > 1:  # hit more than one thread state: undo, do no harm
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(ident), ctypes.py_object(None)
        )
        return False
    return posted == 1


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
    fragment_paths: List[str]
    shard_retries: int
    wall_seconds: float


class ShardSupervisor:
    """Runs shard workers under heartbeat monitoring with bounded retry.

    Args:
        max_attempts: attempts per shard before :class:`SupervisorError`.
        backoff_base: first retry delay (seconds); doubles per attempt.
        backoff_cap: upper bound on any single delay.
        heartbeat_timeout: seconds without a completed point before a
            worker is declared hung and killed.
        kill_grace: seconds to wait for a killed worker to unwind.
        seed: seeds the backoff jitter so supervised runs are
            reproducible end to end.
        sleep: injection point for tests (defaults to ``time.sleep``).
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
        sleep: Callable[[float], None] = time.sleep,
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
        self._sleep = sleep

    def backoff(self, attempt: int) -> float:
        """Delay before retry *attempt*: capped exponential, seeded
        jitter in [0.5x, 1.5x) so co-scheduled supervisors desynchronize."""
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return delay * (0.5 + self._rng.random())

    # -- one shard ---------------------------------------------------

    def supervise_shard(
        self,
        program_factory: Callable[[], AppProgram],
        shard_index: int,
        shard_count: int,
        fragment_path: str,
        *,
        progress: Optional[Callable[[int, int], None]] = None,
        **campaign_kwargs: Any,
    ) -> ShardOutcome:
        """Run one shard to a complete fragment, retrying as needed.

        The first attempt starts fresh (truncating any stale fragment);
        every retry resumes from whatever the dead worker journaled —
        including repairing a torn tail — so work is never redone, and a
        crashed record (a point that kept blowing its run budget) is
        re-attempted rather than merged.
        """
        outcome = ShardOutcome(shard_index=shard_index)
        for attempt in range(1, self.max_attempts + 1):
            outcome.attempts = attempt
            failure = self._run_attempt(
                outcome,
                program_factory,
                shard_index,
                shard_count,
                fragment_path,
                resume=attempt > 1,
                progress=progress,
                campaign_kwargs=campaign_kwargs,
            )
            if failure is None:
                return outcome
            outcome.failures.append(f"attempt {attempt}: {failure}")
            if attempt < self.max_attempts:
                self._sleep(self.backoff(attempt))
        raise SupervisorError(
            f"shard {shard_index}/{shard_count} did not complete after "
            f"{self.max_attempts} attempt(s): "
            + "; ".join(outcome.failures)
        )

    def _run_attempt(
        self,
        outcome: ShardOutcome,
        program_factory: Callable[[], AppProgram],
        shard_index: int,
        shard_count: int,
        fragment_path: str,
        *,
        resume: bool,
        progress: Optional[Callable[[int, int], None]],
        campaign_kwargs: Dict[str, Any],
    ) -> Optional[str]:
        """One monitored attempt; returns a failure reason or ``None``."""
        beat = _Heartbeat()
        box: Dict[str, Any] = {}

        def beat_progress(done: int, total: int) -> None:
            beat.stamp()
            if progress is not None:
                progress(done, total)

        def worker() -> None:
            beat.ident = threading.get_ident()
            beat.stamp()
            try:
                box["result"] = run_shard(
                    program_factory(),
                    shard_index,
                    shard_count,
                    fragment_path,
                    resume=resume,
                    progress=beat_progress,
                    **campaign_kwargs,
                )
            except BaseException as exc:  # WorkerKilled/ShardHung included
                box["error"] = exc

        thread = threading.Thread(
            target=worker,
            name=f"shard-{shard_index}-attempt-{outcome.attempts}",
            daemon=True,
        )
        thread.start()
        hung = self._monitor(thread, beat)
        if hung:
            reason = (
                f"hung: no heartbeat for {self.heartbeat_timeout:g}s, "
                "worker killed"
            )
            if thread.is_alive():
                reason += f" (did not unwind within {self.kill_grace:g}s)"
            return reason
        error = box.get("error")
        if error is not None:
            return f"{type(error).__name__}: {error}"
        result: ShardResult = box["result"]
        if result.crashed:
            # A crashed record in the fragment would survive the merge
            # (and break bit-identity with the fault-free reference);
            # resume excludes crashed points from "done", so a retry
            # re-runs exactly them.
            return f"{result.crashed} crashed point(s) journaled"
        outcome.result = result
        return None

    def _monitor(self, thread: threading.Thread, beat: _Heartbeat) -> bool:
        """Join *thread*, polling the heartbeat; returns True if it was
        declared hung (and killed)."""
        poll = max(0.01, min(0.05, self.heartbeat_timeout / 4.0))
        while thread.is_alive():
            thread.join(timeout=poll)
            if not thread.is_alive():
                return False
            if beat.age() > self.heartbeat_timeout:
                if beat.ident is not None:
                    # The worker sleeps in short slices (chaos hangs) or
                    # runs subject bytecode, so the async exception is
                    # delivered promptly; it unwinds through ``with
                    # weaver:`` restoring the woven classes.
                    _post_async_exc(beat.ident, ShardHung)
                thread.join(timeout=self.kill_grace)
                return True
        return False

    # -- whole campaign ----------------------------------------------

    def run(
        self,
        program_factory: Callable[[], AppProgram],
        shard_count: int,
        workdir: str,
        *,
        progress: Optional[Callable[[int, int], None]] = None,
        **campaign_kwargs: Any,
    ) -> SupervisedCampaign:
        """Supervise every shard of one campaign, then merge.

        Fragments land in *workdir* as ``shard-NN.jsonl``.  The merged
        result carries supervision telemetry (``shard_retries``, and
        ``faults_injected`` when a chaos plan is armed) on top of the
        usual campaign counters.
        """
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        started = time.perf_counter()
        os.makedirs(workdir, exist_ok=True)
        paths = [
            os.path.join(workdir, f"shard-{index:02d}.jsonl")
            for index in range(shard_count)
        ]
        outcomes = [
            self.supervise_shard(
                program_factory,
                index,
                shard_count,
                path,
                progress=progress,
                **campaign_kwargs,
            )
            for index, path in enumerate(paths)
        ]
        merged = merge_fragments(paths)
        wall = time.perf_counter() - started
        shard_retries = sum(outcome.retries for outcome in outcomes)
        telemetry = merged.detection.telemetry
        telemetry.engine = "supervised"
        telemetry.shard_retries = shard_retries
        telemetry.wall_seconds = wall
        telemetry.phase_seconds["supervise"] = wall
        injector = active_injector()
        if injector is not None:
            telemetry.faults_injected = injector.faults_injected
        return SupervisedCampaign(
            merged=merged,
            outcomes=outcomes,
            fragment_paths=paths,
            shard_retries=shard_retries,
            wall_seconds=wall,
        )


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
    config: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "program": self.program,
            "seed": self.seed,
            "shard_count": self.shard_count,
            "converged": self.converged,
            "identical": self.identical,
            "faults_injected": self.faults_injected,
            "faults_by_kind": dict(self.faults_by_kind),
            "required_kinds": list(self.required_kinds),
            "missing_kinds": list(self.missing_kinds),
            "shard_retries": self.shard_retries,
            "attempts_per_shard": list(self.attempts_per_shard),
            "failures": list(self.failures),
            "fault_log": list(self.fault_log),
            "plan": dict(self.plan),
            "error": self.error,
            "wall_seconds": self.wall_seconds,
            "config": dict(self.config),
        }

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


def run_chaos_campaign(
    program_factory: Callable[[], AppProgram],
    workdir: str,
    *,
    seed: int = 0,
    shard_count: int = 3,
    plan: Optional[FaultPlan] = None,
    supervisor: Optional[ShardSupervisor] = None,
    stride: int = 1,
    capture_args: bool = True,
    timeout: Optional[float] = 0.25,
    retries: int = 1,
    state_backend: str = "graph",
    trace_derive: bool = False,
    fingerprint_cache: bool = True,
    hang_seconds: float = 1.0,
) -> ChaosReport:
    """Run one seeded chaos experiment and report convergence.

    Protocol:

    1. run the campaign fault-free on the sequential engine — the
       reference result;
    2. arm the seeded fault plan (default :func:`standard_plan`: one
       worker kill mid-fragment, one torn append, one injected IO
       error, and ``retries + 1`` consecutive hung runs so the hung
       point is journaled *crashed* before the supervisor rescues it);
    3. run the supervised sharded campaign under fire;
    4. assert the merged result is bit-identical to the reference
       (``RunLog.to_json()`` and classification JSON equality) and
       that every scheduled fault kind actually fired.

    ``converged`` is True only when all of that holds — it is the
    boolean ``make chaos-smoke`` gates on.
    """
    started = time.perf_counter()
    config: Dict[str, Any] = {
        "stride": stride,
        "capture_args": capture_args,
        "timeout": timeout,
        "retries": retries,
        "state_backend": state_backend,
        "trace_derive": trace_derive,
        "fingerprint_cache": fingerprint_cache,
    }
    reference = run_app_campaign(
        program_factory(),
        stride=stride,
        capture_args=capture_args,
        state_backend=state_backend,
        trace_derive=trace_derive,
        fingerprint_cache=fingerprint_cache,
    )
    if plan is None:
        plan = standard_plan(
            seed, hang_seconds=hang_seconds, run_hangs=retries + 1
        )
    if supervisor is None:
        supervisor = ShardSupervisor(seed=seed)

    supervised: Optional[SupervisedCampaign] = None
    error: Optional[str] = None
    with arm(plan) as injector:
        try:
            supervised = supervisor.run(
                program_factory,
                shard_count,
                workdir,
                stride=stride,
                capture_args=capture_args,
                timeout=timeout,
                retries=retries,
                state_backend=state_backend,
                trace_derive=trace_derive,
                fingerprint_cache=fingerprint_cache,
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
        program=program_factory().name,
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
