"""The detection campaign driver (Step 3 of Figure 1).

The exception injector program is executed repeatedly: the threshold
``InjectionPoint`` is incremented before each execution so that every run
injects exactly one exception, at a different point.  The driver first
performs a *profiling* run (threshold 0, nothing fires) to count the total
number of potential injection points and to collect per-method call
counts, then sweeps the threshold over ``1..N``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    Type,
    runtime_checkable,
)

from .exceptions import InjectionAbort, is_injected
from .injection import InjectionCampaign
from .runlog import RunLog, RunRecord
from .state import get_backend
from .telemetry import CampaignTelemetry
from .tracepass import TraceDeriver, call_through_boundary

__all__ = [
    "Program",
    "Detector",
    "DetectionResult",
    "DetectionError",
    "Profile",
    "plan_points",
    "profile_program",
    "run_injection_point",
]


@runtime_checkable
class Program(Protocol):
    """A re-runnable test program.

    Every invocation must execute the same deterministic workload on
    *fresh* state (construct the objects inside the call), because the
    detection phase re-executes the program once per injection point.
    """

    name: str

    def __call__(self) -> None: ...


class DetectionError(RuntimeError):
    """Raised when the test program misbehaves during a campaign."""


@dataclass
class DetectionResult:
    """Outcome of one detection campaign.

    ``telemetry`` is observability metadata (engine, timings, worker
    utilization) and intentionally not part of the scientific result:
    two campaigns over the same program are *equivalent* when their
    ``log``, ``total_points``, ``runs_executed`` and ``genuine_failures``
    agree, regardless of which engine produced them or how fast.
    """

    program: str
    log: RunLog
    total_points: int
    runs_executed: int
    genuine_failures: List[str] = field(default_factory=list)
    telemetry: Optional[CampaignTelemetry] = None

    @property
    def total_injections(self) -> int:
        """Number of runs in which an exception was injected (Table 1)."""
        return self.log.total_injections()


def plan_points(total: int, *, stride: int = 1) -> List[int]:
    """The ordered list of thresholds a campaign will sweep.

    Shared by the sequential and shard engines so both execute the
    *same* plan: points ``1..total`` thinned by ``stride``, plus the
    trailing baseline run at ``total + 1``.  Nothing is injected in the
    baseline run, but the wrappers still capture and compare state, so
    methods that raise *genuine* exceptions are marked too (Listing 1
    intercepts all exceptions, not only injected ones): runs that abort
    at an early injection never reach later genuine failures.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return list(range(1, total + 1, stride)) + [total + 1]


def run_injection_point(
    program: Program,
    campaign: InjectionCampaign,
    injection_point: int,
    *,
    reraise: Tuple[Type[BaseException], ...] = (),
) -> Tuple[RunRecord, Optional[str]]:
    """Execute one injection run; return ``(record, genuine_failure)``.

    This is the single-run kernel both engines share: begin a run at the
    given threshold, execute the program, swallow the injected abort, and
    classify anything else that escapes as a *genuine* failure (returned
    as the formatted string the campaign accumulates).

    Args:
        reraise: exception types to re-raise instead of recording — the
            shard engine passes its timeout exception here so a timed
            out run is retried rather than logged as a genuine failure.

    Two kinds of run are transparently executed again, the second
    record replacing the first:

    * a run in which a call whose before-capture was skipped
      (:meth:`InjectionCampaign.elides`) raised after all is *replayed*
      with every before-capture taken (``campaign.runs_replayed``
      counts them), since that call's mark may be missing.  A
      deterministic :class:`Program` is never replayed; the replay makes
      the log independent of that contract;
    * when the campaign uses a lossy-diff backend (fingerprints) and the
      run produced non-atomic marks, it is *refined* under the graph
      backend: digests can witness *that* state changed but not
      *where*, and the run log's ``difference`` strings are part of the
      deliverable.  Atomic-only runs (the vast majority in a sweep,
      Figure 5) never pay for a second execution.

    Either way the emitted log is bit-identical to an all-graph campaign
    that captures every call.
    """
    record = campaign.begin_run(injection_point)
    completed = False
    escaped = False
    failure: Optional[str] = None
    try:
        program()
        completed = True
    except InjectionAbort:
        pass
    except BaseException as exc:
        if reraise and isinstance(exc, reraise):
            raise
        escaped = is_injected(exc)
        if not escaped:
            # A genuine (non-injected) failure escaping the program is a
            # robustness finding of its own; record and go on.
            failure = f"point={injection_point}: {type(exc).__name__}: {exc}"
    finally:
        campaign.end_run(completed=completed, escaped=escaped)
    if campaign.elision_missed:
        campaign.runs_replayed += 1
        return _rerun(
            program, campaign, injection_point, record, reraise, call_exits=[]
        )
    if campaign.backend.lossy_diff and record.first_nonatomic() is not None:
        return _refine_run(program, campaign, injection_point, record, reraise)
    return record, failure


def _rerun(
    program: Program,
    campaign: InjectionCampaign,
    injection_point: int,
    record: RunRecord,
    reraise: Tuple[Type[BaseException], ...],
    **settings: Any,
) -> Tuple[RunRecord, Optional[str]]:
    """Drop *record*, the run just logged, and execute its point again
    with the campaign attributes in *settings* overridden."""
    if campaign.log.runs and campaign.log.runs[-1] is record:
        campaign.log.runs.pop()
    saved = {name: getattr(campaign, name) for name in settings}
    for name, value in settings.items():
        setattr(campaign, name, value)
    try:
        return run_injection_point(
            program, campaign, injection_point, reraise=reraise
        )
    finally:
        for name, value in saved.items():
            setattr(campaign, name, value)


def _refine_run(
    program: Program,
    campaign: InjectionCampaign,
    injection_point: int,
    lossy_record: RunRecord,
    reraise: Tuple[Type[BaseException], ...],
) -> Tuple[RunRecord, Optional[str]]:
    """Re-execute one run under the graph backend for full diagnostics."""
    return _rerun(
        program,
        campaign,
        injection_point,
        lossy_record,
        reraise,
        backend=get_backend("graph"),
    )


@dataclass
class Profile:
    """What a campaign's profiling run established.

    ``call_entries``/``call_exits`` are the campaign's record of every
    wrapper entry (see :class:`InjectionCampaign`), which decides the
    before-captures a run may skip.  ``decided`` maps each injection
    point the trace pass derived to its record (empty without
    ``trace_derive``); the ``trace_*`` fields are that pass's telemetry.
    """

    total_points: int
    call_entries: List[int] = field(default_factory=list)
    call_exits: List[Optional[int]] = field(default_factory=list)
    decided: Dict[int, RunRecord] = field(default_factory=dict)
    trace_seconds: float = 0.0
    trace_captures: int = 0


def profile_program(
    program: Program,
    campaign: InjectionCampaign,
    *,
    trace_derive: bool = False,
) -> Profile:
    """Run the profiling run (threshold 0) of an already woven program.

    Counts the injection points and records the per-method call counts
    in ``campaign.log``.  With ``trace_derive`` the trace pass
    (:mod:`repro.core.tracepass`) observes the run and derives the
    record of every trace-decidable point.  Every engine profiles
    through here.
    """
    deriver: Optional[TraceDeriver] = None
    if trace_derive:
        deriver = TraceDeriver(campaign)
        deriver.attach(campaign)
    campaign.begin_profile()
    try:
        call_through_boundary(program)
    except BaseException as exc:
        raise DetectionError(
            f"program {program.name!r} failed during profiling: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    finally:
        total = campaign.end_profile()
        if deriver is not None:
            deriver.detach(campaign)
    calls = {
        "call_entries": campaign.call_entries,
        "call_exits": campaign.call_exits,
    }
    if deriver is None:
        return Profile(total, **calls)
    decided = deriver.derive_map()  # counts into deriver.seconds
    return Profile(
        total,
        decided=decided,
        trace_seconds=deriver.seconds,
        trace_captures=deriver.stats.captures,
        **calls,
    )


class Detector:
    """Runs the injector program once per injection point.

    Args:
        program: the (already woven) test program.
        campaign: the campaign whose wrappers instrument the program's
            classes.
        stride: sample every *stride*-th injection point instead of all of
            them.  The paper sweeps every point; a stride > 1 trades
            completeness for speed and is used by some benchmarks.
        trace_derive: instrument the profiling run (``repro.core.tracepass``)
            and derive the records of every trace-decidable point from
            that one execution; only trace-undecidable points run for
            real.
    """

    def __init__(
        self,
        program: Program,
        campaign: InjectionCampaign,
        *,
        stride: int = 1,
        progress: Optional[Callable[[int, int], None]] = None,
        trace_derive: bool = False,
    ) -> None:
        """
        Args:
            progress: optional ``(runs_done, runs_total)`` callback invoked
                after every run — long campaigns (large workloads, scale >
                1) are otherwise silent for minutes.
        """
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.program = program
        self.campaign = campaign
        self.stride = stride
        self.progress = progress
        self.trace_derive = trace_derive

    def detect(self) -> DetectionResult:
        """Run the full campaign (the :func:`plan_points` plan) and
        return its result."""
        started = time.perf_counter()
        profile = profile_program(
            self.program, self.campaign, trace_derive=self.trace_derive
        )
        total = profile.total_points
        decided = profile.decided
        profiled = time.perf_counter()
        points = plan_points(total, stride=self.stride)
        genuine_failures: List[str] = []
        executed = 0
        derived = 0
        done = 0
        for injection_point in points:
            if injection_point in decided:
                # Decided without execution: append the derived record
                # in plan order, bypassing begin_run.
                self.campaign.log.runs.append(decided[injection_point])
                derived += 1
            else:
                _, failure = run_injection_point(
                    self.program, self.campaign, injection_point
                )
                if failure is not None:
                    genuine_failures.append(failure)
                executed += 1
            done += 1
            if self.progress is not None:
                self.progress(done, len(points))
        finished = time.perf_counter()
        wall = finished - started
        state_stats = self.campaign.state_stats
        telemetry = CampaignTelemetry(
            engine="sequential",
            workers=1,
            runs_total=len(points),
            runs_executed=executed,
            runs_derived=derived,
            runs_replayed=self.campaign.runs_replayed,
            wall_seconds=wall,
            runs_per_second=(executed / wall) if wall > 0 else 0.0,
            phase_seconds={
                "profile": profiled - started,
                "execute": finished - profiled,
            },
            state_backend=self.campaign.backend.name,
            state_captures=state_stats.captures,
            state_fingerprints=state_stats.fingerprints,
            state_compares=state_stats.compares,
            state_seconds=state_stats.seconds,
            trace_seconds=profile.trace_seconds,
            trace_captures=profile.trace_captures,
        )
        return DetectionResult(
            program=self.program.name,
            log=self.campaign.log,
            total_points=total,
            runs_executed=len(points),
            genuine_failures=genuine_failures,
            telemetry=telemetry,
        )


@dataclass
class CallableProgram:
    """Adapter turning a plain callable into a :class:`Program`."""

    name: str
    body: Callable[[], None]

    def __call__(self) -> None:
        self.body()
