"""Shard-able campaign service: point-range shards + coordinator merge.

The parallel engine (:mod:`repro.experiments.parallel`) fans a campaign
out over one process pool on one host.  This module promotes the same
resumable-journal design to a *distributed* shape: a campaign is split
into deterministic **shards** (contiguous point-range partitions of the
shared :func:`~repro.core.detector.plan_points` plan), every shard runs
in an independent worker process — possibly on another host, with no
coordination beyond agreeing on ``(program, config, shard_count)`` — and
each emits a self-contained **journal fragment**.  A coordinator then
merges the fragments into a result **bit-identical** to the sequential
engine's (``RunLog.to_json()`` equality), across engines × state
backends × ``--trace-derive``.

Why this is safe without a coordinator during execution:

* the plan is a pure function of the profiling run, and the profiling
  run is deterministic — every shard computes the *same* plan and the
  same trace decisions from its own profile;
* :func:`shard_points` is a stable balanced partition of that plan, and
  the shard assignment (``shard_index``/``shard_count``) is recorded in
  each fragment's header, so fragments from different campaigns or
  mis-numbered workers are rejected at merge time rather than mixed;
* each fragment embeds its shard's profiling log; the coordinator
  asserts all profiles are byte-identical before trusting any of them
  (a nondeterministic subject is detected, not silently merged);
* fragments are append-only JSONL with the same crash-safe semantics as
  the campaign journal — a shard killed mid-write leaves a truncated
  tail that is dropped on ``resume=True``, and the merge step reports
  exactly which points (and which shard) are missing.

The fragment format (one JSON object per line)::

    {"kind": "header", ...campaign plan..., "shard_index": 1, "shard_count": 4}
    {"kind": "profile", "total_points": N, "log": {...}, "exception_free": [...]}
    {"kind": "run", "point": 17, "record": {...}, "genuine_failure": null, "attempts": 1}

``repro shard`` / ``repro merge`` expose this from the CLI; the async
front end (:mod:`repro.service`) builds the "millions of users" queueing
and caching layer on top.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core import (
    Analyzer,
    ClassificationResult,
    InjectionCampaign,
    WrapPolicy,
    make_injection_wrapper,
    plan_points,
    reclassify,
)
from repro.core.detector import DetectionResult, profile_program
from repro.core.runlog import RunLog, RunRecord, merge_logs
from repro.core.state import FingerprintCache, get_backend
from repro.core.telemetry import CampaignTelemetry
from repro.core.weaver import Weaver

from .parallel import CampaignJournal, run_point_with_timeout

__all__ = [
    "ShardError",
    "ShardFragment",
    "ShardResult",
    "MergedCampaign",
    "shard_points",
    "run_shard",
    "merge_fragments",
]

#: Header keys that identify the campaign a fragment belongs to.  Two
#: fragments may only be merged when they agree on every one of these.
CAMPAIGN_KEYS = (
    "version",
    "program",
    "rounds",
    "stride",
    "total_points",
    "capture_args",
    "state_backend",
    "trace_derive",
    "shard_count",
)


class ShardError(ValueError):
    """Raised when journal fragments cannot be merged into a campaign."""


def shard_points(points: Sequence[int], shard_count: int) -> List[List[int]]:
    """Deterministically partition a campaign plan into contiguous shards.

    The split is *stable*: it depends only on the plan and the shard
    count, so independent workers (different processes, different hosts)
    agree on the assignment without talking to each other.  Shard sizes
    are balanced to within one point (the first ``len(points) %
    shard_count`` shards get the extra one), and every shard holds a
    contiguous range of the plan, so a fragment's byte layout mirrors a
    slice of the sequential sweep.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    base, extra = divmod(len(points), shard_count)
    shards: List[List[int]] = []
    start = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        shards.append(list(points[start : start + size]))
        start += size
    return shards


# ---------------------------------------------------------------------------
# Fragment journal
# ---------------------------------------------------------------------------


class ShardFragment:
    """One shard's append-only journal: header, profile, run lines.

    Wraps :class:`~repro.experiments.parallel.CampaignJournal` (same
    crash-safe line format, same lenient/tail-tolerant replay) and adds
    the ``profile`` line that makes a fragment self-contained: the merge
    step needs the profiling run's call counts without re-executing the
    subject.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._journal = CampaignJournal(path)

    def start(self, header: Dict[str, Any], profile: Dict[str, Any]) -> None:
        """Truncate and write a fresh header + profile line."""
        self._journal.start(header)
        payload = {"kind": "profile"}
        payload.update(profile)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append_run(
        self,
        point: int,
        record: RunRecord,
        genuine_failure: Optional[str],
        attempts: int,
    ) -> None:
        self._journal.append_run(point, record, genuine_failure, attempts)

    def load_done(self, header: Dict[str, Any]) -> Dict[int, Dict[str, Any]]:
        """Completed (non-crashed) points for a resume; tolerant of a
        truncated tail, strict about a mismatched header."""
        return self._journal.load(header)


@dataclass
class _Fragment:
    """A fully parsed fragment, as the merge step sees it."""

    path: str
    header: Dict[str, Any]
    profile: Optional[Dict[str, Any]]
    runs: Dict[int, Dict[str, Any]]


def _replay_fragment(path: str) -> _Fragment:
    """Parse a fragment for merging.

    Unlike the resume path, crashed records are *kept* — a merged
    campaign reports crashed points exactly like the parallel engine
    does (the fix is to re-run that shard with ``resume=True``).  A
    truncated tail line (shard killed mid-write) is dropped; the
    coverage check then reports the missing points.
    """
    try:
        with open(path, "rb") as handle:
            raw_lines = handle.read().splitlines()
    except FileNotFoundError:
        raise ShardError(f"fragment {path!r} does not exist")
    if not raw_lines:
        raise ShardError(f"fragment {path!r} is empty")
    try:
        header = json.loads(raw_lines[0].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ShardError(f"fragment {path!r} has a corrupt header")
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ShardError(f"fragment {path!r} does not start with a header")
    profile: Optional[Dict[str, Any]] = None
    runs: Dict[int, Dict[str, Any]] = {}
    for raw in raw_lines[1:]:
        if not raw.strip():
            continue
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break  # truncated tail: everything before it still counts
        if not isinstance(entry, dict):
            break
        kind = entry.get("kind")
        if kind == "profile":
            profile = entry
        elif kind == "run" and "point" in entry:
            record = entry.get("record")
            if not isinstance(record, dict):
                break  # torn inside the record payload
            runs[int(entry["point"])] = entry
    return _Fragment(path=path, header=header, profile=profile, runs=runs)


# ---------------------------------------------------------------------------
# Shard execution
# ---------------------------------------------------------------------------


@dataclass
class ShardResult:
    """What one shard worker produced (plus the fragment on disk)."""

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
    *,
    stride: int = 1,
    capture_args: bool = True,
    timeout: Optional[float] = None,
    retries: int = 1,
    resume: bool = False,
    state_backend: str = "graph",
    trace_derive: bool = False,
    fingerprint_cache: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ShardResult:
    """Run one shard of a campaign and write its journal fragment.

    Profiles in-process (weave → count points → trace decisions), takes
    the ``shard_index``-th slice of the deterministic shard assignment,
    executes exactly those points, and appends every record — executed
    and derived alike — to the fragment so the coordinator can merge
    without re-profiling.  With
    ``resume=True`` a fragment left behind by a killed worker is
    replayed first and only the unfinished points run.

    Runs on any thread: per-run timeouts use SIGALRM on the main thread
    and the async-exception watchdog elsewhere (see
    :func:`~repro.experiments.parallel.run_point_with_timeout`).
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    state_backend = get_backend(state_backend).name

    started = time.perf_counter()
    campaign = InjectionCampaign(
        capture_args=capture_args, state_backend=state_backend
    )
    weaver = Weaver(
        lambda spec: make_injection_wrapper(spec, campaign),
        Analyzer(exclude=program.exclude),
    )
    with weaver:
        specs = weaver.weave_classes(program.classes)
        profile = profile_program(
            program, campaign, specs, trace_derive=trace_derive
        )
        total = profile.total_points
        decided = profile.decided
        profiled = time.perf_counter()

        points = plan_points(total, stride=stride)
        mine = shard_points(points, shard_count)[shard_index]
        header = {
            "program": program.name,
            "rounds": program.rounds,
            "stride": stride,
            "total_points": total,
            "capture_args": capture_args,
            "state_backend": state_backend,
            "trace_derive": trace_derive,
            "shard_index": shard_index,
            "shard_count": shard_count,
        }
        # The profile line makes the fragment self-contained: the merge
        # step takes call counts from here (asserting every shard saw
        # the identical profile) instead of re-executing the subject.
        # The snapshot is taken before any injection run, so the log
        # holds counts and no runs — exactly the parent profile log the
        # parallel engine merges from.
        profile_payload = {
            "total_points": total,
            "log": json.loads(campaign.log.to_json()),
            "exception_free": sorted(
                spec.key for spec in specs if spec.exception_free
            ),
        }

        fragment = ShardFragment(fragment_path)
        resumed: Dict[int, Dict[str, Any]] = {}
        if resume:
            assigned = set(mine)
            resumed = {
                p: e
                for p, e in fragment.load_done(header).items()
                if p in assigned
            }
        if not resumed:
            fragment.start(header, profile_payload)

        woven_classes = {spec.owner for spec in specs if spec.owner}
        cache: Optional[FingerprintCache] = None
        if (
            fingerprint_cache
            and woven_classes
            and campaign.digest_cache is None
            and getattr(campaign.backend, "supports_digest_cache", False)
        ):
            cache = FingerprintCache()
            cache.start(woven_classes)
            campaign.digest_cache = cache

        executed = derived = crashed = retry_count = 0
        done = len(resumed)
        if progress is not None and done:
            progress(done, len(mine))
        try:
            for point in mine:
                if point in resumed:
                    continue
                if point in decided:
                    # Decided without execution: journal the derived
                    # record so the merge step needs no re-derivation.
                    # attempts=0 marks the record as never having run
                    # the subject.
                    fragment.append_run(point, decided[point], None, 0)
                    derived += 1
                else:
                    record, failure, attempts, did_crash = (
                        run_point_with_timeout(
                            program,
                            campaign,
                            point,
                            timeout=timeout,
                            retries=retries,
                        )
                    )
                    fragment.append_run(point, record, failure, attempts)
                    executed += 1
                    retry_count += attempts - 1
                    if did_crash:
                        crashed += 1
                done += 1
                if progress is not None:
                    progress(done, len(mine))
        finally:
            if cache is not None:
                campaign.digest_cache = None
                cache.stop()
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
        runs_crashed=crashed,
        retries=retry_count,
        trace_seconds=profile.trace_seconds,
        trace_writes=profile.trace_writes,
        trace_captures=profile.trace_captures,
        trace_capture_retries=profile.trace_capture_retries,
        fingerprint_cache_hits=cache.hits if cache is not None else 0,
        fingerprint_cache_misses=cache.misses if cache is not None else 0,
        wall_seconds=wall,
        runs_per_second=(executed / wall) if wall > 0 else 0.0,
        phase_seconds={
            "profile": profiled - started,
            "execute": finished - profiled,
        },
        state_backend=state_backend,
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
        crashed=crashed,
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
    header: Dict[str, Any]
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


def _header_mismatches(
    base: Dict[str, Any], other: Dict[str, Any]
) -> List[str]:
    diffs = []
    for key in CAMPAIGN_KEYS:
        if base.get(key) != other.get(key):
            diffs.append(f"{key}={other.get(key)!r} (expected {base.get(key)!r})")
    return diffs


def merge_fragments(paths: Sequence[str]) -> MergedCampaign:
    """Merge journal fragments into one campaign result.

    Validates, then merges deterministically:

    1. every fragment's header agrees on the campaign plan (program,
       stride, total points, backend, trace pass, shard count) — any
       differing key/value pairs are reported;
    2. shard indices cover ``0..shard_count-1`` exactly once;
    3. every fragment's embedded profiling log is byte-identical (the
       determinism the whole scheme rests on);
    4. the union of the fragments' run records covers the plan exactly,
       each point inside its shard's assigned range — missing points
       name the shard to resume.

    The merged :class:`DetectionResult` is bit-identical to the
    sequential engine's: call counts from the (shared) profiling log,
    run records in planned-point order.
    """
    if not paths:
        raise ShardError("no fragments to merge")
    fragments = [_replay_fragment(path) for path in paths]
    base = fragments[0]
    for fragment in fragments[1:]:
        diffs = _header_mismatches(base.header, fragment.header)
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

    missing: Dict[int, List[int]] = {}
    for index, assigned in enumerate(assignment):
        gone = [p for p in assigned if p not in by_point]
        if gone:
            missing[index] = gone
    if missing:
        detail = "; ".join(
            f"shard {index} is missing point(s) "
            + ", ".join(str(p) for p in gone)
            for index, gone in sorted(missing.items())
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
        header=dict(base.header),
        exception_free=frozenset(base.profile.get("exception_free", ())),
    )
