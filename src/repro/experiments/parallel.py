"""Parallel, resumable injection-campaign engine.

The paper's detection phase (Listing 1, Steps 1–3) re-executes the test
program once per injection point, so campaign wall-clock grows linearly
with the number of points.  The runs are mutually independent — each one
fixes a single ``InjectionPoint`` threshold on fresh program state —
which makes the sweep embarrassingly parallel.  This module fans the
per-point runs out over a :mod:`multiprocessing` pool:

1. the parent weaves + profiles **once** (Step 1–2 plus the counting run
   of Step 3) to learn the injection-point count and the per-method call
   counts, then unweaves;
2. the planned points (shared with the sequential engine via
   :func:`repro.core.detector.plan_points`) are split into contiguous
   chunks and dispatched to worker processes, each of which weaves its
   own copy of the subject classes and executes the shared single-run
   kernel :func:`repro.core.detector.run_injection_point`;
3. worker run logs are merged deterministically with the existing
   :func:`repro.core.runlog.merge_logs` — call counts from the parent's
   profiling run, run records in planned-point order — so the merged
   :class:`DetectionResult` is **bit-identical** to the sequential
   engine's (``RunLog.to_json()`` equality, not just statistics).

Robustness and observability around the fan-out:

* **per-run timeouts** (``timeout=`` seconds) with a bounded retry
  (``retries=``) before a point is marked ``crashed`` in its
  :class:`RunRecord`;
* a **campaign journal** (JSONL of completed points) written as results
  arrive, enabling ``resume=True`` to skip finished work after an
  interruption — crashed points are re-attempted on resume;
* structured :class:`~repro.core.telemetry.CampaignTelemetry`
  (runs/sec, per-phase timings, worker utilization) attached to the
  result and surfaced by ``run_app_campaign`` and the CLI
  (``repro detect --workers N --resume``).
"""

from __future__ import annotations

import json
import math
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import (
    Analyzer,
    InjectionCampaign,
    MethodSpec,
    make_injection_wrapper,
    plan_points,
    run_injection_point,
)
from repro.core.runlog import RunLog, RunRecord, merge_logs
from repro.core.state import FingerprintCache, StateStats, get_backend
from repro.core.telemetry import CampaignTelemetry
from repro.core.detector import DetectionResult, Profile, profile_program
from repro.core.weaver import Weaver
from repro.resilience.chaos import fire as _fault_site

__all__ = [
    "ProgramRef",
    "CampaignJournal",
    "JournalError",
    "ParallelDetector",
    "run_parallel_detection",
    "run_point_with_timeout",
    "scan_jsonl",
    "repair_jsonl_tail",
]

#: Journal schema version; bump when the line format changes.
JOURNAL_VERSION = 1


class JournalError(ValueError):
    """Raised when a campaign journal cannot be used for a resume."""


# ---------------------------------------------------------------------------
# Crash-safe JSONL machinery (shared with the persistent result cache)
# ---------------------------------------------------------------------------


def scan_jsonl(data: bytes) -> Tuple[List[Dict[str, Any]], int]:
    """Leniently parse append-only JSONL that may end in a torn write.

    Returns ``(entries, valid_end)``: every fully-written dict line in
    order, plus the byte offset of the end of the last complete line —
    the truncation point :func:`repair_jsonl_tail` restores the file
    to.  The file is scanned as bytes because a worker killed inside
    ``write(2)`` can tear a line in the middle of a multi-byte UTF-8
    sequence, not just between characters.
    """
    entries: List[Dict[str, Any]] = []
    valid_end = 0
    for raw, kept in zip(data.splitlines(), data.splitlines(keepends=True)):
        if not raw.strip():
            valid_end += len(kept)
            continue
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break  # torn tail: everything before it still counts
        if not isinstance(entry, dict):
            break  # a torn tail can decode to a bare JSON scalar
        entries.append(entry)
        valid_end += len(kept)
    return entries, valid_end


def repair_jsonl_tail(path: str, data: bytes, valid_end: int) -> None:
    """Durably drop a torn JSONL tail so subsequent appends stay clean.

    Truncates *path* back to *valid_end* (the end of the last
    fully-parsed line) and restores the trailing newline if the tear
    landed exactly on a line boundary without one.
    """
    if valid_end < len(data):
        with open(path, "rb+") as handle:
            handle.truncate(valid_end)
    elif data and not data.endswith(b"\n"):
        with open(path, "ab") as handle:
            handle.write(b"\n")


# ---------------------------------------------------------------------------
# Program references: how a worker process finds its test program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProgramRef:
    """A picklable recipe for rebuilding an :class:`AppProgram` in a worker.

    Worker processes cannot receive the woven program object itself (the
    weave is per-process state), so they receive either the registry name
    of one of the evaluation applications, or a module-level factory
    callable (used by tests and custom subjects).  ``rounds`` re-applies
    workload scaling in the worker.
    """

    name: Optional[str] = None
    factory: Optional[Callable[[], Any]] = None
    rounds: int = 1

    def resolve(self):
        from .programs import program_by_name

        if self.factory is not None:
            program = self.factory()
        elif self.name is not None:
            program = program_by_name(self.name)
        else:
            raise ValueError("ProgramRef needs a name or a factory")
        if self.rounds != program.rounds:
            program = program.scaled(self.rounds)
        return program

    @classmethod
    def for_program(cls, program) -> "ProgramRef":
        """Build a ref for a registry program (``repro.experiments.programs``)."""
        from .programs import is_registered

        if not is_registered(program.name):
            raise ValueError(
                f"program {program.name!r} is not in the registry; pass an "
                "explicit ProgramRef(factory=...) so workers can rebuild it"
            )
        return cls(name=program.name, rounds=program.rounds)


# ---------------------------------------------------------------------------
# Campaign journal: JSONL of completed points, written as results arrive
# ---------------------------------------------------------------------------


class CampaignJournal:
    """Append-only JSONL journal of a campaign's completed points.

    Line 1 is a header identifying the campaign plan; every further line
    records one finished point (its :class:`RunRecord`, the genuine
    failure it observed, and how many attempts it took).  A journal whose
    plan no longer matches (different program, stride, rounds, or point
    count) is rejected on resume rather than silently merged.

    Older or partial journals load leniently: missing header keys are
    treated as matching, unknown line kinds are skipped, and a corrupt
    trailing line (an interrupted write) ends the replay instead of
    raising.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    # -- writing -----------------------------------------------------

    def start(self, header: Dict[str, Any]) -> None:
        """Truncate and write a fresh header line."""
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        payload = {"kind": "header", "version": JOURNAL_VERSION}
        payload.update(header)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")

    def append_run(
        self,
        point: int,
        record: RunRecord,
        genuine_failure: Optional[str],
        attempts: int,
    ) -> None:
        line = json.dumps(
            {
                "kind": "run",
                "point": point,
                "record": record.to_dict(),
                "genuine_failure": genuine_failure,
                "attempts": attempts,
            },
            sort_keys=True,
        )
        # Chaos seams (no-ops unless a FaultPlan is armed): an armed
        # ioerror fires before the write, a kill/torn fault after it —
        # the on-disk states a real ENOSPC or mid-write SIGKILL leaves.
        _fault_site("journal.append", self.path)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        _fault_site("journal.appended", self.path)

    # -- reading -----------------------------------------------------

    def load(
        self, expected_header: Dict[str, Any]
    ) -> Dict[int, Dict[str, Any]]:
        """Replay the journal; return ``{point: run-line}`` for resumes.

        Crashed points are *not* returned as done — a resume re-attempts
        them.  Raises :class:`JournalError` when a header key that is
        present contradicts the expected plan; the error names **every**
        differing key/value pair, not just the first.

        A worker killed mid-``write`` leaves a truncated final line —
        possibly torn inside a multi-byte UTF-8 sequence, so the file is
        read in binary and decoded line by line.  The partial tail is
        dropped (everything before it still counts) instead of raising,
        and — because every caller of ``load`` is about to *append* —
        the torn bytes are also truncated from the file, so the next
        ``append_run`` starts on a fresh line instead of concatenating
        onto the partial one (which would corrupt that record too).
        """
        done: Dict[int, Dict[str, Any]] = {}
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return done
        if not data:
            return done
        raw_lines = data.splitlines()
        kept_lines = data.splitlines(keepends=True)
        header = self._parse_header(raw_lines[0])
        if header is None:
            # The write was torn inside the header line itself: nothing
            # was durably recorded, so the journal is effectively empty
            # (the campaign restarts and rewrites it from scratch).
            self._repair_tail(data, 0)
            return done
        mismatches = []
        for key, expected in sorted(expected_header.items()):
            present = header.get(key)
            if present is not None and present != expected:
                mismatches.append(f"{key}={present!r} (expected {expected!r})")
        if mismatches:
            raise JournalError(
                f"journal {self.path!r} was written for a different "
                f"campaign: " + ", ".join(mismatches) + "; delete it or "
                "pass a different --journal path"
            )
        valid_end = len(kept_lines[0])
        for index, raw in enumerate(raw_lines[1:], start=1):
            if not raw.strip():
                valid_end += len(kept_lines[index])
                continue
            try:
                entry = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break  # interrupted write: everything before it still counts
            if not isinstance(entry, dict):
                break  # a torn tail can decode to a bare JSON scalar
            if entry.get("kind") == "run" and "point" in entry:
                record = entry.get("record")
                if not isinstance(record, dict):
                    break  # torn inside the record payload
                if not record.get("crashed", False):
                    done[int(entry["point"])] = entry
            valid_end += len(kept_lines[index])
        self._repair_tail(data, valid_end)
        return done

    def _repair_tail(self, data: bytes, valid_end: int) -> None:
        """Durably drop a torn tail so subsequent appends stay clean.

        Truncates the file back to *valid_end* (the end of the last
        fully-parsed line) and restores the trailing newline if the
        tear landed exactly on a line boundary without one.
        """
        repair_jsonl_tail(self.path, data, valid_end)

    def _parse_header(self, raw: bytes) -> Optional[Dict[str, Any]]:
        """Parse the first journal line.

        ``None`` means the line is a torn partial write (not valid
        JSON): a crash artifact, treated as an empty journal.  A line
        that *does* parse but is not a header marks a file that was
        never a campaign journal — that is a caller error and raises.
        """
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise JournalError(
                f"journal {self.path!r} does not start with a header"
            )
        return header


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _RunTimeout(BaseException):
    """Raised by the SIGALRM handler when a run exceeds its budget.

    Derives from ``BaseException`` so application-level ``except
    Exception`` blocks inside the workload cannot swallow it.
    """


class _TimeoutGuard:
    """Arms a per-run wall-clock budget around one subject execution.

    On the main thread this is the classic ``SIGALRM`` + ``setitimer``
    pair.  ``signal.signal`` raises ``ValueError`` anywhere else — e.g.
    when the engine is driven from a ``repro serve`` worker thread — so
    off the main thread the guard falls back to a watchdog timer that
    posts :class:`_RunTimeout` into the running thread as an async
    exception.  The watchdog cannot preempt a call blocked in C (the
    exception is delivered at the next bytecode boundary), so a stalled
    run is detected late rather than interrupted instantly; the budget
    is still enforced and the point still crashes after its retries.
    """

    def __init__(self, seconds: float) -> None:
        import threading

        self.seconds = seconds
        self._thread_id = threading.get_ident()
        self._use_alarm = (
            hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        self._previous_handler: Any = None
        self._timer: Optional["threading.Timer"] = None
        self._fired = False

    # -- watchdog plumbing -------------------------------------------

    def _post_async(self, exc: Optional[type]) -> None:
        """Raise *exc* in the guarded thread (``None`` clears a pending
        one that was posted but not yet delivered)."""
        import ctypes

        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(self._thread_id),
            ctypes.py_object(exc) if exc is not None else None,
        )

    def _fire(self) -> None:
        self._fired = True
        self._post_async(_RunTimeout)

    # -- context management ------------------------------------------

    def __enter__(self) -> "_TimeoutGuard":
        if self._use_alarm:
            try:
                self._previous_handler = signal.signal(
                    signal.SIGALRM, _alarm_handler
                )
                signal.setitimer(signal.ITIMER_REAL, self.seconds)
                return self
            except ValueError:
                # Lost a race against an interpreter that still considers
                # this a non-main thread (e.g. right after a fork from a
                # threaded parent): fall through to the watchdog.
                self._use_alarm = False
        import threading

        self._timer = threading.Timer(self.seconds, self._fire)
        self._timer.daemon = True
        self._timer.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            return
        assert self._timer is not None
        self._timer.cancel()
        if exc_type is not _RunTimeout:
            # Wait the timer thread out so a concurrent _fire cannot post
            # after this guard is gone, then clear any pending async raise
            # the run outlived (it must not surface in later code).
            self._timer.join()
            if self._fired:
                self._post_async(None)


class _WorkerState:
    """Per-process campaign: the worker's own weave of the subject."""

    def __init__(
        self,
        program,
        capture_args: bool,
        timeout: Optional[float],
        retries: int,
        state_backend: str = "graph",
        fingerprint_cache: bool = True,
    ) -> None:
        self.program = program
        self.timeout = timeout
        self.retries = retries
        self.campaign = InjectionCampaign(
            capture_args=capture_args, state_backend=state_backend
        )
        # Woven for the worker process's whole lifetime, never unwoven.
        woven = Weaver(
            lambda spec: make_injection_wrapper(spec, self.campaign),
            Analyzer(exclude=program.exclude),
        ).weave_classes(program.classes)
        # The digest cache lives for the worker process's whole lifetime:
        # its write barriers stay installed across every chunk this
        # worker executes, so digests memoized in one chunk keep serving
        # later chunks (each run rebuilds fresh state, but class-level
        # constants and shared structures survive between runs).
        self.cache: Optional[FingerprintCache] = None
        if fingerprint_cache and getattr(
            self.campaign.backend, "supports_digest_cache", False
        ):
            classes = {spec.owner for spec in woven if spec.owner}
            if classes:
                self.cache = FingerprintCache()
                self.cache.start(classes)
                self.campaign.digest_cache = self.cache


_WORKER: Optional[_WorkerState] = None


def _init_worker(
    ref: ProgramRef,
    capture_args: bool,
    timeout: Optional[float],
    retries: int,
    state_backend: str = "graph",
    fingerprint_cache: bool = True,
) -> None:
    global _WORKER
    _WORKER = _WorkerState(
        ref.resolve(),
        capture_args,
        timeout,
        retries,
        state_backend,
        fingerprint_cache,
    )


def _alarm_handler(signum, frame):
    raise _RunTimeout()


def run_point_with_timeout(
    program,
    campaign: InjectionCampaign,
    point: int,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> Tuple[RunRecord, Optional[str], int, bool]:
    """Execute one injection point under an optional wall-clock budget.

    The single-point kernel shared by the pool workers and the shard
    runner (:mod:`repro.experiments.shard`): retries a timed-out run up
    to *retries* times, then marks the point crashed.  Returns
    ``(record, genuine_failure, attempts, crashed)``.  Works from any
    thread — see :class:`_TimeoutGuard` for the main-thread (SIGALRM)
    vs. worker-thread (watchdog) budget enforcement.
    """
    attempts = 0
    while True:
        attempts += 1
        guard = (
            _TimeoutGuard(timeout) if timeout is not None else _NULL_GUARD
        )
        try:
            with guard:
                # Chaos seam: an armed hang fault sleeps here, inside
                # the watchdog's budget window, so "a run that stopped
                # making progress" exercises the timeout/retry path.
                _fault_site("run.exec")
                record, failure = run_injection_point(
                    program,
                    campaign,
                    point,
                    reraise=(_RunTimeout,),
                )
            return record, failure, attempts, False
        except _RunTimeout:
            # Drop the partial record the aborted run left in the log.
            runs = campaign.log.runs
            if runs and runs[-1].injection_point == point:
                runs.pop()
            if attempts > retries:
                return (
                    RunRecord(injection_point=point, crashed=True),
                    None,
                    attempts,
                    True,
                )


class _NullGuard:
    def __enter__(self) -> "_NullGuard":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_GUARD = _NullGuard()


def _run_point_with_retry(
    state: _WorkerState, point: int
) -> Tuple[RunRecord, Optional[str], int, bool]:
    """Execute one point, retrying on timeout; returns
    ``(record, genuine_failure, attempts, crashed)``."""
    return run_point_with_timeout(
        state.program,
        state.campaign,
        point,
        timeout=state.timeout,
        retries=state.retries,
    )


def _run_chunk(task: Tuple[int, List[int]]) -> Dict[str, Any]:
    """Pool task: execute a contiguous chunk of injection points."""
    chunk_index, points = task
    assert _WORKER is not None, "worker initializer did not run"
    started = time.perf_counter()
    # The campaign's state counters accumulate for the lifetime of the
    # worker process; report this chunk's contribution as a delta so the
    # parent can sum chunk outcomes without double counting.
    stats_before = _WORKER.campaign.state_stats.to_dict()
    cache_before = (
        _WORKER.cache.to_dict() if _WORKER.cache is not None else {}
    )
    results = []
    for point in points:
        record, failure, attempts, crashed = _run_point_with_retry(_WORKER, point)
        results.append(
            {
                "point": point,
                "record": record.to_dict(),
                "genuine_failure": failure,
                "attempts": attempts,
                "crashed": crashed,
            }
        )
    stats_after = _WORKER.campaign.state_stats.to_dict()
    cache_after = (
        _WORKER.cache.to_dict() if _WORKER.cache is not None else {}
    )
    return {
        "chunk": chunk_index,
        "worker": os.getpid(),
        "busy_seconds": time.perf_counter() - started,
        "state_stats": {
            key: stats_after[key] - stats_before[key] for key in stats_after
        },
        "cache_stats": {
            key: cache_after[key] - cache_before.get(key, 0)
            for key in cache_after
        },
        "results": results,
    }


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class ParallelDetector:
    """Parallel drop-in for :class:`repro.core.Detector`.

    Profiles once in the parent process (weave → count points → unweave),
    fans the per-point runs out over a process pool, and merges the
    worker logs into a result equivalent to the sequential engine's.

    Args:
        program: the test program (an ``AppProgram``; must be resolvable
            in the worker — registry programs work out of the box,
            custom ones need ``program_ref``).
        workers: worker process count (default: the machine's CPUs).
        stride: sample every *stride*-th injection point.
        capture_args: forwarded to each worker's campaign.
        timeout: per-run wall-clock budget in seconds (``None`` = none).
        retries: retry attempts per point after a timeout before the
            point is marked crashed.
        chunk_size: points per pool task; defaults to ~4 tasks per worker.
        journal_path: where to persist the campaign journal (JSONL).
        resume: skip points already completed in the journal.
        progress: optional ``(runs_done, runs_total)`` callback.
        program_ref: explicit worker-side recipe for non-registry programs.
        mp_start_method: multiprocessing start method (default ``fork``
            when available, else the platform default).
        state_backend: name of the state backend workers compare state
            with (``graph`` or ``fingerprint``).  Recorded in the journal
            header, so a ``--resume`` against a journal written under a
            different backend is rejected instead of silently mixing
            runs.
        trace_derive: instrument the parent's profiling run
            (``repro.core.tracepass``) and derive the records of every
            trace-decidable point from that one execution; only
            trace-undecidable points are dispatched to workers.
            Recorded in the journal header; derived points are never
            journaled and are re-derived from a fresh profile on resume.
        fingerprint_cache: let workers memoize frame digests for their
            process lifetime when the state backend supports it
            (fingerprint sweeps only; output is bit-identical either
            way).
    """

    def __init__(
        self,
        program,
        *,
        workers: Optional[int] = None,
        stride: int = 1,
        capture_args: bool = True,
        timeout: Optional[float] = None,
        retries: int = 1,
        chunk_size: Optional[int] = None,
        journal_path: Optional[str] = None,
        resume: bool = False,
        progress: Optional[Callable[[int, int], None]] = None,
        program_ref: Optional[ProgramRef] = None,
        mp_start_method: Optional[str] = None,
        state_backend: str = "graph",
        trace_derive: bool = False,
        fingerprint_cache: bool = True,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if resume and journal_path is None:
            raise ValueError("resume=True requires a journal_path")
        self.program = program
        self.workers = workers or os.cpu_count() or 1
        self.stride = stride
        self.capture_args = capture_args
        self.timeout = timeout
        self.retries = retries
        self.chunk_size = chunk_size
        self.journal_path = journal_path
        self.resume = resume
        self.progress = progress
        self.ref = program_ref or ProgramRef.for_program(program)
        self.mp_start_method = mp_start_method
        # Resolve eagerly so an unknown name fails here, not in a worker.
        self.state_backend = get_backend(state_backend).name
        self.trace_derive = trace_derive
        self.fingerprint_cache = fingerprint_cache
        self.woven_specs: List[MethodSpec] = []

    # -- phases ------------------------------------------------------

    def _profile(self) -> Tuple[Profile, RunLog]:
        """Weave + profile in the parent; returns the profile and the
        profile log.

        The profile log carries the per-method call counts (Figures
        2b/3b) and no runs; the parent unweaves immediately so worker
        processes (forked afterwards) start from clean classes.  With
        ``trace_derive`` the trace pass observes this profiling run — the
        sweep itself happens in workers, but the decision of which points
        need a worker at all is made here in the parent.  The trace
        recorder's write barriers are removed before any worker forks.
        """
        campaign = InjectionCampaign(capture_args=self.capture_args)
        weaver = Weaver(
            lambda spec: make_injection_wrapper(spec, campaign),
            Analyzer(exclude=self.program.exclude),
        )
        with weaver:
            self.woven_specs = weaver.weave_classes(self.program.classes)
            profile = profile_program(
                self.program,
                campaign,
                self.woven_specs,
                trace_derive=self.trace_derive,
            )
        return profile, campaign.log

    def _chunks(self, points: List[int]) -> List[Tuple[int, List[int]]]:
        if not points:
            return []
        size = self.chunk_size
        if size is None:
            size = max(1, math.ceil(len(points) / (self.workers * 4)))
        return [
            (index, points[start : start + size])
            for index, start in enumerate(range(0, len(points), size))
        ]

    def _pool_context(self):
        import multiprocessing

        if self.mp_start_method is not None:
            return multiprocessing.get_context(self.mp_start_method)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    # -- the campaign ------------------------------------------------

    def detect(self) -> DetectionResult:
        started = time.perf_counter()
        profile, profile_log = self._profile()
        total = profile.total_points
        decided = profile.decided
        profiled = time.perf_counter()

        points = plan_points(total, stride=self.stride)
        header = {
            "program": self.program.name,
            "rounds": self.program.rounds,
            "stride": self.stride,
            "total_points": total,
            "capture_args": self.capture_args,
            "state_backend": self.state_backend,
            "trace_derive": self.trace_derive,
        }

        journal: Optional[CampaignJournal] = None
        resumed: Dict[int, Dict[str, Any]] = {}
        if self.journal_path is not None:
            journal = CampaignJournal(self.journal_path)
            if self.resume:
                planned = set(points)
                resumed = {
                    p: e
                    for p, e in journal.load(header).items()
                    if p in planned
                }
            if not resumed:
                journal.start(header)

        # Points decided without execution are never dispatched (and
        # never journaled: a resumed campaign re-derives them from its
        # own fresh profiling run).  A resumed record wins over a
        # derived one — both describe the same outcome.
        derived_points = [
            p for p in points if p not in resumed and p in decided
        ]
        remaining = [
            p for p in points if p not in resumed and p not in decided
        ]
        chunks = self._chunks(remaining)
        done = len(resumed) + len(derived_points)
        if self.progress is not None and done:
            self.progress(done, len(points))

        by_point: Dict[int, Dict[str, Any]] = dict(resumed)
        busy: Dict[str, float] = {}
        retry_count = 0
        crashed_count = 0
        state_stats = StateStats()
        cache_hits = 0
        cache_misses = 0
        if chunks:
            ctx = self._pool_context()
            pool = ctx.Pool(
                processes=min(self.workers, len(chunks)),
                initializer=_init_worker,
                initargs=(
                    self.ref,
                    self.capture_args,
                    self.timeout,
                    self.retries,
                    self.state_backend,
                    self.fingerprint_cache,
                ),
            )
            try:
                for outcome in pool.imap_unordered(_run_chunk, chunks):
                    worker_id = str(outcome["worker"])
                    busy[worker_id] = (
                        busy.get(worker_id, 0.0) + outcome["busy_seconds"]
                    )
                    chunk_stats = outcome.get("state_stats") or {}
                    state_stats.captures += int(chunk_stats.get("captures", 0))
                    state_stats.fingerprints += int(
                        chunk_stats.get("fingerprints", 0)
                    )
                    state_stats.compares += int(chunk_stats.get("compares", 0))
                    state_stats.seconds += float(chunk_stats.get("seconds", 0.0))
                    chunk_cache = outcome.get("cache_stats") or {}
                    cache_hits += int(chunk_cache.get("hits", 0))
                    cache_misses += int(chunk_cache.get("misses", 0))
                    for result in outcome["results"]:
                        point = result["point"]
                        by_point[point] = result
                        retry_count += result["attempts"] - 1
                        if result["crashed"]:
                            crashed_count += 1
                        if journal is not None:
                            journal.append_run(
                                point,
                                RunRecord.from_dict(result["record"]),
                                result["genuine_failure"],
                                result["attempts"],
                            )
                        done += 1
                        if self.progress is not None:
                            self.progress(done, len(points))
            finally:
                pool.close()
                pool.join()
        executed = time.perf_counter()

        # Deterministic merge: call counts from the parent's profiling
        # run, run records in planned-point order — the exact layout the
        # sequential engine's single log has.
        runs_log = RunLog()
        genuine_failures: List[str] = []
        for point in points:
            entry = by_point.get(point)
            if entry is None:
                # Decided without execution: splice in the derived record.
                runs_log.runs.append(decided[point])
                continue
            runs_log.runs.append(RunRecord.from_dict(entry["record"]))
            if entry.get("genuine_failure"):
                genuine_failures.append(entry["genuine_failure"])
        merged = merge_logs([profile_log, runs_log])
        finished = time.perf_counter()

        wall = finished - started
        execute_wall = executed - profiled
        executed_runs = len(points) - len(resumed) - len(derived_points)
        utilization = 0.0
        if busy and execute_wall > 0:
            pool_size = min(self.workers, len(chunks)) or 1
            utilization = min(
                1.0, sum(busy.values()) / (pool_size * execute_wall)
            )
        telemetry = CampaignTelemetry(
            engine="parallel",
            workers=self.workers,
            runs_total=len(points),
            runs_executed=executed_runs,
            runs_resumed=len(resumed),
            runs_derived=len(derived_points),
            runs_crashed=crashed_count,
            retries=retry_count,
            trace_seconds=profile.trace_seconds,
            trace_writes=profile.trace_writes,
            trace_captures=profile.trace_captures,
            trace_capture_retries=profile.trace_capture_retries,
            fingerprint_cache_hits=cache_hits,
            fingerprint_cache_misses=cache_misses,
            wall_seconds=wall,
            runs_per_second=(executed_runs / wall) if wall > 0 else 0.0,
            phase_seconds={
                "profile": profiled - started,
                "execute": execute_wall,
                "merge": finished - executed,
            },
            worker_busy_seconds=busy,
            worker_utilization=utilization,
            state_backend=self.state_backend,
            state_captures=state_stats.captures,
            state_fingerprints=state_stats.fingerprints,
            state_compares=state_stats.compares,
            state_seconds=state_stats.seconds,
        )
        return DetectionResult(
            program=self.program.name,
            log=merged,
            total_points=total,
            runs_executed=len(points),
            genuine_failures=genuine_failures,
            telemetry=telemetry,
        )


def run_parallel_detection(program, **kwargs) -> DetectionResult:
    """One-call convenience wrapper around :class:`ParallelDetector`."""
    return ParallelDetector(program, **kwargs).detect()
