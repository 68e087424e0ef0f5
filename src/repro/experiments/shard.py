"""Shard-able campaigns: interleaved shards, journal fragments, merge.

A campaign splits into deterministic **shards** — interleaved slices of
the :func:`~repro.core.detector.plan_points` plan — and every shard
writes a self-contained **journal fragment**; merging the fragments
gives a result **bit-identical** to the sequential engine's
(``RunLog.to_json()`` equality) across state backends and
``--trace-derive``.  The campaign engine
(:class:`~repro.experiments.supervise.ShardSupervisor`) runs every shard
in a child process; ``repro shard`` runs one anywhere, with no
coordination beyond agreeing on ``(program, config, shard_count)``:

* the plan is a pure function of the deterministic profiling run, so a
  shard that profiles for itself computes the *same* plan and trace
  decisions as the engine's parent;
* the shard assignment is recorded in each fragment's header, so
  fragments of different campaigns or mis-numbered shards are rejected
  at merge time rather than mixed;
* each fragment embeds the profiling log, and the merge asserts all of
  them are byte-identical (a nondeterministic subject is detected);
* a shard keeps its fragment open and group-commits it: every line
  reaches the operating system before the next point starts, and an
  fsync follows at most every :data:`SYNC_INTERVAL_S` and at shard end,
  so a killed shard process loses no line it wrote and a machine crash
  loses at most that interval of points;
* a shard killed mid-write leaves a torn tail, which
  :func:`~repro.experiments.parallel.scan_jsonl` drops on resume, and
  the merge names every missing point and its shard.

The fragment format (one JSON object per line)::

    {"kind": "header", "version": 2, ...campaign plan..., "shard_index": 1, "shard_count": 4}
    {"kind": "profile", "total_points": N, "log": {...}, "exception_free": [...]}
    {"kind": "run", "point": 17, "record": {...}, "genuine_failure": null, "attempts": 1}
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, TextIO

from repro.core import (
    Analyzer,
    ClassificationResult,
    InjectionCampaign,
    WrapPolicy,
    make_injection_wrapper,
    plan_points,
    reclassify,
)
from repro.core.detector import DetectionResult, Profile, profile_program
from repro.core.runlog import RunLog, RunRecord, merge_logs
from repro.core.telemetry import CampaignTelemetry
from repro.core.weaver import Weaver
from repro.resilience.chaos import fire as _fault_site

from .config import HEADER_FIELDS, CampaignConfig
from .parallel import (
    SLOT_DONE,
    STEP_CLOSE,
    JournalError,
    enter_step,
    repair_jsonl_tail,
    run_point,
    scan_jsonl,
)

__all__ = [
    "ShardError",
    "ShardFragment",
    "ShardProfile",
    "ShardResult",
    "MergedCampaign",
    "shard_points",
    "profile_shards",
    "run_shard",
    "merge_fragments",
]

#: Fragment schema version.  Version 2 fragments hold interleaved
#: slices of the plan; version-1 fragments (contiguous ranges) are
#: rejected on resume and merge instead of being mixed in.
FRAGMENT_VERSION = 2

#: Longest a written fragment line waits for its fsync.  Every line is
#: flushed to the operating system at once, so only a machine crash can
#: lose the unsynced tail, and a resume re-runs its points.
SYNC_INTERVAL_S = 1.0

#: Header keys that identify the campaign a fragment belongs to: the
#: plan :meth:`CampaignConfig.header` records, version and shard count.
#: Two fragments may only be merged when they agree on every one of these.
CAMPAIGN_KEYS = (
    "version",
    "program",
    "rounds",
    "total_points",
    *HEADER_FIELDS,
    "shard_count",
)


class ShardError(ValueError):
    """Raised when journal fragments cannot be merged into a campaign."""


def shard_points(points: Sequence[int], shard_count: int) -> List[List[int]]:
    """Deterministically partition a campaign plan into interleaved shards.

    Shard *i* holds ``points[i::shard_count]``: stable, so independent
    workers agree without talking, and balanced to within one point —
    in cost too, since a later point runs more of the workload before
    its injection fires, which would load contiguous ranges unevenly.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    return [list(points[index::shard_count]) for index in range(shard_count)]


# ---------------------------------------------------------------------------
# Fragment journal
# ---------------------------------------------------------------------------


class ShardFragment:
    """One shard's append-only journal: header, profile, run lines.

    The ``profile`` line gives the merge the profiling run's call counts
    without re-executing the subject; every run line records one point's
    :class:`RunRecord`, its genuine failure, and its attempts (``0`` for
    a record derived without running the subject).

    The fragment stays open for the life of the shard and is committed
    in groups: every write is flushed, so the line is in the operating
    system before :meth:`append_run` returns, and fsync'd only when the
    last fsync is :data:`SYNC_INTERVAL_S` old.  :meth:`close` flushes,
    fsyncs and closes it.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[TextIO] = None
        # Never synced yet, so the first write (the header) is fsync'd.
        self._synced_at = float("-inf")

    def start(self, header: Dict[str, Any], profile: Dict[str, Any]) -> None:
        """Truncate and write a fresh header + profile line."""
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        header = dict(header, kind="header", version=FRAGMENT_VERSION)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write(header, dict(profile, kind="profile"))

    def append_run(
        self,
        point: int,
        record: RunRecord,
        genuine_failure: Optional[str],
        attempts: int,
    ) -> None:
        line = {
            "kind": "run",
            "point": point,
            "record": record.to_dict(),
            "genuine_failure": genuine_failure,
            "attempts": attempts,
        }
        # Chaos seams (no-ops unless a FaultPlan is armed): an armed
        # ioerror fires before the write, a kill/torn fault after it —
        # the on-disk states a real ENOSPC or mid-write SIGKILL leaves.
        _fault_site("journal.append", self.path)
        if self._handle is None:  # a resumed shard appends to its fragment
            self._handle = open(self.path, "a", encoding="utf-8")
        self._write(line)
        _fault_site("journal.appended", self.path)

    def _write(self, *lines: Dict[str, Any]) -> None:
        handle = self._handle
        for line in lines:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
        handle.flush()
        now = time.monotonic()
        if now - self._synced_at >= SYNC_INTERVAL_S:
            os.fsync(handle.fileno())
            self._synced_at = now

    def close(self) -> None:
        """Flush, fsync and close the fragment (a no-op if not open)."""
        handle, self._handle = self._handle, None
        if handle is None:
            return
        try:
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            handle.close()

    def check_header(
        self, found: Dict[str, Any], expected: Dict[str, Any]
    ) -> None:
        """Raise :class:`JournalError` unless *found*, this fragment's
        header line, is this version's and describes the *expected* plan
        (a missing key counts as matching; every differing key is named).
        """
        if found.get("kind") != "header":
            raise JournalError(
                f"journal {self.path!r} does not start with a header"
            )
        if found.get("version") != FRAGMENT_VERSION:
            raise JournalError(
                f"journal {self.path!r} has fragment version "
                f"{found.get('version')!r}, not {FRAGMENT_VERSION}: it was "
                "written before shards were interleaved and cannot be "
                "resumed; delete it or pass a different --journal directory"
            )
        present = [key for key in sorted(expected) if found.get(key) is not None]
        mismatches = _differences(found, expected, present)
        if mismatches:
            raise JournalError(
                f"journal {self.path!r} was written for a different "
                f"campaign: " + ", ".join(mismatches) + "; delete it or "
                "pass a different --journal path"
            )

    def load_done(
        self, header: Dict[str, Any], finished_below: int = 0
    ) -> Dict[int, Dict[str, Any]]:
        """Replay the fragment for a resume: ``{point: run line}`` of
        every point done (crashed ones are re-attempted, except below
        *finished_below*).  Strict about the header; a torn tail is
        dropped and truncated from the file, so the next
        :meth:`append_run` starts on a fresh line, and a fragment torn
        inside its header loads as empty."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return {}
        entries, valid_end = scan_jsonl(data)
        if entries:
            self.check_header(entries[0], header)
        repair_jsonl_tail(self.path, data, valid_end)
        return {
            point: entry
            for point, entry in _run_lines(entries[1:]).items()
            if point < finished_below
            or not entry["record"].get("crashed", False)
        }


def _run_lines(entries: List[Dict[str, Any]]) -> Dict[int, Dict[str, Any]]:
    """The last run line of every point among a fragment's lines."""
    return {
        int(entry["point"]): entry
        for entry in entries
        if entry.get("kind") == "run"
        and "point" in entry
        and isinstance(entry.get("record"), dict)
    }


@dataclass
class _Fragment:
    """A fully parsed fragment, as the merge step sees it."""

    path: str
    header: Dict[str, Any]
    profile: Optional[Dict[str, Any]]
    runs: Dict[int, Dict[str, Any]]


def _replay_fragment(path: str) -> _Fragment:
    """Parse a fragment for merging.  Unlike a resume, this keeps
    crashed records (the merge reports them); a torn tail is dropped,
    and the coverage check reports the points it held."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise ShardError(f"fragment {path!r} does not exist")
    if not data:
        raise ShardError(f"fragment {path!r} is empty")
    entries, _ = scan_jsonl(data)
    if not entries:
        raise ShardError(f"fragment {path!r} has a corrupt header")
    header = entries[0]
    if header.get("kind") != "header":
        raise ShardError(f"fragment {path!r} does not start with a header")
    if header.get("version") != FRAGMENT_VERSION:
        raise ShardError(
            f"fragment {path!r} has version {header.get('version')!r}, not "
            f"{FRAGMENT_VERSION}: it was written before shards were "
            "interleaved; re-run its campaign"
        )
    profiles = [entry for entry in entries if entry.get("kind") == "profile"]
    return _Fragment(
        path=path,
        header=header,
        profile=profiles[-1] if profiles else None,
        runs=_run_lines(entries[1:]),
    )


# ---------------------------------------------------------------------------
# Profiling and shard execution
# ---------------------------------------------------------------------------


@dataclass
class ShardProfile:
    """A campaign's one profiling run, as every shard consumes it: the
    point count, the wrapper entries that decide which before-captures a
    run skips, the trace decisions, and the fragments' ``profile`` line
    (call counts and exception-free annotations)."""

    profile: Profile
    payload: Dict[str, Any]


def profile_shards(
    program, config: CampaignConfig = CampaignConfig()
) -> ShardProfile:
    """Weave *program*, run its profiling run, unweave.

    The engine's parent calls this once per campaign and hands the
    result to every shard; a shard run on its own calls it itself.
    """
    program = config.scaled(program)
    campaign = InjectionCampaign(state_backend=config.state_backend)
    with Weaver(
        lambda spec: make_injection_wrapper(spec, campaign),
        Analyzer(exclude=program.exclude),
    ) as weaver:
        specs = weaver.weave_classes(program.classes)
        profile = profile_program(
            program, campaign, trace_derive=config.trace_derive
        )
    # No injection run yet: the log holds call counts only.
    payload = {
        "total_points": profile.total_points,
        "log": json.loads(campaign.log.to_json()),
        "exception_free": sorted(
            spec.key for spec in specs if spec.exception_free
        ),
    }
    return ShardProfile(profile, payload)


@dataclass
class ShardResult:
    """What one shard worker produced (plus the fragment on disk).

    ``crashed`` counts the points journaled crashed in this attempt,
    also those an earlier process of it wrote and this one resumed.
    """

    shard_index: int
    shard_count: int
    fragment_path: str
    points: List[int]
    total_points: int
    executed: int
    resumed: int
    derived: int
    crashed: int
    retries: int
    wall_seconds: float
    telemetry: CampaignTelemetry


def run_shard(
    program,
    shard_index: int,
    shard_count: int,
    fragment_path: str,
    config: CampaignConfig = CampaignConfig(),
    *,
    resume: bool = False,
    profile: Optional[ShardProfile] = None,
    slot=None,
    tries: Optional[Dict[int, int]] = None,
    crashed: FrozenSet[int] = frozenset(),
) -> ShardResult:
    """Run one shard of a campaign and write its journal fragment.

    Weaves *program*, executes the ``shard_index``-th slice of the plan,
    and journals every record, executed or derived, so the merge needs
    no re-profiling.  The *profile* comes from the engine's parent;
    without one the shard profiles for itself.  With ``resume=True`` a
    fragment left by a killed worker is replayed and only unfinished
    points run.  A run has no time limit here, as in the sequential
    engine: the per-run budget is the supervisor's, which kills a shard
    process whose run overruns it and starts another.

    The rest is how the supervisor drives a shard process.  *slot*
    (see :func:`~repro.experiments.parallel.enter_step`) gets every step
    and the count of points done.  *tries* maps a point to its runs the
    supervisor killed in this attempt: the point runs again as attempt
    ``tries + 1``, or, once the supervisor gave up on it (*crashed*), is
    journaled crashed.  Points below the last one killed were finished
    in this attempt, so their crashed lines count as done.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    slot = [0.0] * 3 if slot is None else slot
    tries = tries or {}

    started = time.perf_counter()
    if profile is None:
        profile = profile_shards(program, config)
    total = profile.profile.total_points
    decided = profile.profile.decided
    profiled = time.perf_counter()

    mine = shard_points(plan_points(total, stride=config.stride), shard_count)[
        shard_index
    ]
    header = config.header(program, total)
    header.update(shard_index=shard_index, shard_count=shard_count)
    program = config.scaled(program)
    fragment = ShardFragment(fragment_path)
    resumed: Dict[int, Dict[str, Any]] = {}
    if resume:
        assigned = set(mine)
        resumed = {
            p: e
            for p, e in fragment.load_done(
                header, finished_below=max(tries, default=0)
            ).items()
            if p in assigned
        }

    campaign = InjectionCampaign(state_backend=config.state_backend)
    # The profiling run's wrapper entries decide which before-captures
    # this shard's runs skip, as they do in the sequential engine.
    campaign.call_entries = profile.profile.call_entries
    campaign.call_exits = profile.profile.call_exits
    executed = derived = retry_count = 0
    # A crashed line resumed is one an earlier process of this attempt
    # wrote (see load_done's finished_below).
    crashed_count = sum(
        entry["record"].get("crashed", False) for entry in resumed.values()
    )
    done = slot[SLOT_DONE] = len(resumed)
    try:
        if not resumed:
            fragment.start(header, profile.payload)
        with Weaver(
            lambda spec: make_injection_wrapper(spec, campaign),
            Analyzer(exclude=program.exclude),
        ) as weaver:
            weaver.weave_classes(program.classes)
            for point in mine:
                if point in resumed:
                    continue
                if point in decided:
                    # Decided without execution: journal the derived
                    # record so the merge step needs no re-derivation.
                    # attempts=0 marks it as never having run the subject.
                    enter_step(slot, -point)
                    fragment.append_run(point, decided[point], None, 0)
                    derived += 1
                else:
                    attempts = tries.get(point, 0)
                    if point in crashed:
                        record = RunRecord(injection_point=point, crashed=True)
                        failure = None
                        crashed_count += 1
                    else:
                        enter_step(slot, point)
                        record, failure = run_point(program, campaign, point)
                        attempts += 1
                    enter_step(slot, -point)
                    fragment.append_run(point, record, failure, attempts)
                    executed += 1
                    retry_count += attempts - 1
                done += 1
                slot[SLOT_DONE] = done
            enter_step(slot, STEP_CLOSE)
    finally:
        # A clean end, WorkerKilled and an OSError alike: every line
        # written so far is fsync'd before the shard reports.
        fragment.close()
    finished = time.perf_counter()

    wall = finished - started
    state_stats = campaign.state_stats
    telemetry = CampaignTelemetry(
        engine="shard",
        workers=1,
        runs_total=len(mine),
        runs_executed=executed,
        runs_resumed=len(resumed),
        runs_derived=derived,
        runs_recaptured=campaign.runs_recaptured,
        runs_replayed=campaign.runs_replayed,
        runs_crashed=crashed_count,
        retries=retry_count,
        trace_seconds=profile.profile.trace_seconds,
        trace_captures=profile.profile.trace_captures,
        wall_seconds=wall,
        runs_per_second=(executed / wall) if wall > 0 else 0.0,
        phase_seconds={
            "profile": profiled - started,
            "execute": finished - profiled,
        },
        state_backend=config.state_backend,
        state_captures=state_stats.captures,
        state_fingerprints=state_stats.fingerprints,
        state_compares=state_stats.compares,
        state_seconds=state_stats.seconds,
    )
    return ShardResult(
        shard_index=shard_index,
        shard_count=shard_count,
        fragment_path=fragment_path,
        points=list(mine),
        total_points=total,
        executed=executed,
        resumed=len(resumed),
        derived=derived,
        crashed=crashed_count,
        retries=retry_count,
        wall_seconds=wall,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Coordinator merge
# ---------------------------------------------------------------------------


@dataclass
class MergedCampaign:
    """A coordinator-merged campaign: the sequential-identical result
    plus everything needed to classify it offline."""

    detection: DetectionResult
    exception_free: frozenset = field(default_factory=frozenset)

    def classify(
        self, policy: Optional[WrapPolicy] = None
    ) -> ClassificationResult:
        """Classify the merged log exactly like ``run_app_campaign``:
        the programmer-declared exception-free annotations (recorded in
        the fragments' profile line) always apply, and a caller-supplied
        policy is merged on top."""
        effective = WrapPolicy(exception_free=set(self.exception_free))
        if policy is not None:
            effective = effective.merged_with(policy)
        return reclassify(self.detection.log, effective)


def _differences(
    found: Dict[str, Any], expected: Dict[str, Any], keys: Sequence[str]
) -> List[str]:
    """``key=found (expected …)`` for every key in *keys* that differs."""
    return [
        f"{key}={found.get(key)!r} (expected {expected.get(key)!r})"
        for key in keys
        if found.get(key) != expected.get(key)
    ]


def merge_fragments(paths: Sequence[str]) -> MergedCampaign:
    """Merge journal fragments into one campaign result.

    Validates first: the headers agree on the campaign plan (naming
    every differing key), shard indices cover ``0..shard_count-1``
    exactly once, the embedded profiling logs are byte-identical, and
    the run records cover the plan exactly, each point in its own
    shard's slice (missing points name the shard to resume).  The merged
    :class:`DetectionResult` is bit-identical to the sequential
    engine's: call counts from the profiling log, run records in plan
    order.
    """
    if not paths:
        raise ShardError("no fragments to merge")
    fragments = [_replay_fragment(path) for path in paths]
    base = fragments[0]
    for fragment in fragments[1:]:
        diffs = _differences(fragment.header, base.header, CAMPAIGN_KEYS)
        if diffs:
            raise ShardError(
                f"fragment {fragment.path!r} belongs to a different "
                f"campaign than {base.path!r}: " + ", ".join(diffs)
            )
    shard_count = int(base.header.get("shard_count", 0))
    if shard_count < 1:
        raise ShardError(
            f"fragment {base.path!r} has no shard_count in its header"
        )
    indices = sorted(int(f.header.get("shard_index", -1)) for f in fragments)
    if indices != list(range(shard_count)):
        seen = ", ".join(str(i) for i in indices)
        raise ShardError(
            f"fragments do not cover shards 0..{shard_count - 1} exactly "
            f"once (got shard indices: {seen})"
        )

    incomplete = [f.path for f in fragments if f.profile is None]
    if incomplete:
        raise ShardError(
            "fragment(s) missing their profile line (shard killed before "
            "profiling finished): " + ", ".join(repr(p) for p in incomplete)
        )
    profile_json = json.dumps(base.profile["log"], sort_keys=True)
    for fragment in fragments[1:]:
        if json.dumps(fragment.profile["log"], sort_keys=True) != profile_json:
            raise ShardError(
                f"profiling runs diverged between {base.path!r} and "
                f"{fragment.path!r}; the subject program is not "
                "deterministic, so shard results cannot be merged"
            )

    total = int(base.header["total_points"])
    stride = int(base.header.get("stride", 1))
    points = plan_points(total, stride=stride)
    assignment = shard_points(points, shard_count)
    by_point: Dict[int, Dict[str, Any]] = {}
    for fragment in fragments:
        allowed = set(assignment[int(fragment.header["shard_index"])])
        for point, entry in fragment.runs.items():
            if point not in allowed:
                raise ShardError(
                    f"fragment {fragment.path!r} holds point {point}, "
                    f"outside its assigned range"
                )
            by_point[point] = entry

    missing = [
        (index, [p for p in assigned if p not in by_point])
        for index, assigned in enumerate(assignment)
    ]
    if any(gone for _, gone in missing):
        detail = "; ".join(
            f"shard {index} is missing point(s) "
            + ", ".join(str(p) for p in gone)
            for index, gone in missing
            if gone
        )
        raise ShardError(
            f"incomplete campaign: {detail} — re-run those shards with "
            "resume=True (repro shard --resume) and merge again"
        )

    merge_started = time.perf_counter()
    runs_log = RunLog()
    genuine_failures: List[str] = []
    executed = derived = crashed = retry_count = 0
    for point in points:
        entry = by_point[point]
        record = RunRecord.from_dict(entry["record"])
        runs_log.runs.append(record)
        if entry.get("genuine_failure"):
            genuine_failures.append(entry["genuine_failure"])
        attempts = int(entry.get("attempts", 1))
        if attempts > 0:
            executed += 1
            retry_count += attempts - 1
        else:
            derived += 1
        if record.crashed:
            crashed += 1
    profile_log = RunLog.from_json(profile_json)
    # to_json sorts call_counts keys, but merge_logs rebuilds
    # methods_seen from call_counts *insertion* order — restore the
    # first-seen order the profiling run recorded (methods_seen is a
    # list and survived the round-trip intact) so the merged log is
    # byte-identical to the sequential engine's.
    profile_log.call_counts = {
        method: profile_log.call_counts[method]
        for method in profile_log.methods_seen
        if method in profile_log.call_counts
    }
    merged = merge_logs([profile_log, runs_log])
    merge_seconds = time.perf_counter() - merge_started

    telemetry = CampaignTelemetry(
        engine="sharded",
        workers=shard_count,
        runs_total=len(points),
        runs_executed=executed,
        runs_derived=derived,
        runs_crashed=crashed,
        retries=retry_count,
        state_backend=str(base.header.get("state_backend", "graph")),
        wall_seconds=merge_seconds,
        phase_seconds={"merge": merge_seconds},
    )
    detection = DetectionResult(
        program=str(base.header["program"]),
        log=merged,
        total_points=total,
        runs_executed=len(points),
        genuine_failures=genuine_failures,
        telemetry=telemetry,
    )
    return MergedCampaign(
        detection=detection,
        exception_free=frozenset(base.profile.get("exception_free", ())),
    )
