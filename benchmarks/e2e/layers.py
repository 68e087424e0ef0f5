"""Per-layer metrics of one traced pass, from spans and campaign telemetry.

Spans give time and call counts at each patched layer entry point (see
``trace.py``); the campaigns' own :class:`CampaignTelemetry` gives the
counters the state and trace layers already keep (captures, digests,
derived points).  A layer the workload never entered reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from trace import Span, self_times, top_level


def _total(spans: Sequence[Span], *names: str) -> float:
    return sum(s.dur for s in spans if s.name in names)


def _count(spans: Sequence[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _within(spans: Sequence[Span], name: str, outer: Span) -> List[Span]:
    return [
        s for s in spans
        if s.name == name and s.pid == outer.pid
        and outer.start <= s.start and s.end <= outer.end
    ]


def layer_metrics(
    spans: List[Span],
    roots: Sequence[Span],
    telemetry: Iterable[Dict[str, Any]],
    masking: Iterable[Dict[str, int]] = (),
    *,
    overhead_frac: float,
    window: Optional[Tuple[float, float]] = None,
    lateness_p95_ms: float = 0.0,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of ``metrics.py`` for one traced pass.

    *roots* are the spans whose uncovered self time is "unattributed":
    the harness's ``bench.op`` spans, or the server's submit and campaign
    spans.  *window* bounds the service-worker busy fraction.
    """
    tel = list(telemetry)

    def tsum(field: str) -> float:
        return sum(float(t.get(field, 0) or 0) for t in tel)

    m: Dict[str, float] = {}
    m["weaver.calls"] = _count(spans, "weaver.weave")
    m["weaver.busy_s"] = _total(spans, "weaver.weave", "weaver.unweave")
    m["detector.profile_s"] = _total(spans, "detector.profile")

    m["tracepass.busy_s"] = tsum("trace_seconds")
    m["tracepass.decided_ratio"] = _ratio(tsum("runs_derived"), tsum("runs_total"))
    m["tracepass.captures"] = tsum("trace_captures")
    m["tracepass.capture_retries"] = tsum("trace_capture_retries")

    runs = top_level(spans, "injection.run")
    m["injection.runs"] = len(runs)
    m["injection.run_s"] = sum(s.dur for s in runs)
    m["state.captures"] = tsum("state_captures")
    m["state.fingerprints"] = tsum("state_fingerprints")
    m["state.compares"] = tsum("state_compares")
    m["state.busy_s"] = tsum("state_seconds")
    m["state.refine_runs"] = _count(spans, "state.refine")
    hits = tsum("fingerprint_cache_hits")
    m["state.fpcache_hit_ratio"] = _ratio(hits, hits + tsum("fingerprint_cache_misses"))

    m["classify.busy_s"] = _total(spans, "classify")
    m["runlog.serialize_s"] = _total(spans, "runlog.serialize")

    m["parallel.pool_startup_s"] = _total(spans, "parallel.pool_start", "parallel.worker_init")
    pool = [float(t.get("worker_utilization", 0.0)) for t in tel if t.get("engine") == "parallel"]
    m["parallel.worker_utilization"] = sum(pool) / len(pool) if pool else 0.0
    m["parallel.journal_appends"] = _count(spans, "journal.append")
    m["parallel.journal_s"] = _total(spans, "journal.append")
    m["parallel.merge_s"] = _total(spans, "parallel.merge")

    slowest = overhead = 0.0
    balance: List[float] = []
    for run in (s for s in spans if s.name == "supervise.run"):
        shards = [s.dur for s in _within(spans, "shard.run", run)]
        merges = [s.dur for s in _within(spans, "shard.merge", run)]
        if shards:
            slowest += max(shards)
            balance.append(sum(shards) / len(shards) / max(shards))
        overhead += run.dur - sum(shards) - sum(merges)
    m["shard.slowest_s"] = slowest
    m["shard.balance"] = sum(balance) / len(balance) if balance else 0.0
    m["shard.merge_s"] = _total(spans, "shard.merge")
    m["supervise.overhead_s"] = overhead

    masks = list(masking)
    for field in ("wrapped_calls", "rollbacks", "checkpointed_objects"):
        m[f"masking.{field}"] = sum(s[field] for s in masks)
    m["masking.mask_s"] = _total(spans, "masking.redetect")
    m["state.checkpoint_s"] = _total(spans, "state.checkpoint")
    m["state.restore_s"] = _total(spans, "state.restore")

    m["service.submit_s"] = _total(spans, "service.submit")
    m["service.compile_s"] = _total(spans, "service.compile")
    submitted = {
        s.attrs["campaign"]: s.end
        for s in spans
        if s.name == "service.submit" and s.attrs.get("campaign")
    }
    waits = [
        (s.start - submitted[s.attrs["campaign"]]) * 1000.0
        for s in spans
        if s.name == "service.campaign" and s.attrs.get("campaign") in submitted
    ]
    m["service.queue_wait_ms_p50"] = statistics.median(waits) if waits else 0.0
    m["service.campaign_s"] = _total(spans, "service.campaign")
    span = (window[1] - window[0]) if window else 0.0
    m["service.worker_busy_frac"] = _ratio(m["service.campaign_s"], span)
    gets = [s for s in spans if s.name == "cache.get"]
    m["cache.hits"] = sum(1 for s in gets if s.attrs.get("hit"))
    m["cache.misses"] = len(gets) - m["cache.hits"]
    m["cache.hit_ratio"] = _ratio(m["cache.hits"], len(gets))
    m["cache.get_s"] = _total(spans, "cache.get")
    m["cache.put_s"] = _total(spans, "cache.put")

    m["loadgen.lateness_p95_ms"] = lateness_p95_ms
    m["trace.overhead_frac"] = overhead_frac
    selfs = self_times(spans)
    m["trace.unattributed_frac"] = _ratio(
        sum(selfs[(r.pid, r.id)] for r in roots), sum(r.dur for r in roots)
    )
    return {name: float(value) for name, value in m.items()}
