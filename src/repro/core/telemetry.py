"""Structured campaign telemetry (runs/sec, phase timings, utilization).

The paper reports only end results; a campaign that sweeps hundreds of
injection points at production scale needs observability of its own.
Both detection engines (the sequential :class:`~repro.core.detector.Detector`
and the shard engine in :mod:`repro.experiments.supervise`) attach a
:class:`CampaignTelemetry` to their :class:`DetectionResult`, and
``save_outcome``/``load_outcome`` round-trip it through ``meta.json``.

The serialized form is a plain dict so that journals and metadata written
by older versions of the code (or hand-edited) load cleanly: every key is
optional and defaults sanely in :meth:`CampaignTelemetry.from_dict`, and
keys of fields that no longer exist are ignored.
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

__all__ = ["CampaignTelemetry"]

#: The engine a telemetry record defaults to.
ENGINE_SEQUENTIAL = "sequential"


@dataclass
class CampaignTelemetry:
    """Observability record of one detection campaign.

    Attributes:
        engine: ``"sequential"``; the shard engine's ``"parallel"``
            (``run_app_campaign``) or ``"supervised"`` (``ShardSupervisor``);
            ``"shard"`` (one shard) or ``"sharded"`` (``repro merge``).
        workers: shard processes run at once (1 for the sequential engine).
        runs_total: number of runs the campaign plan called for.
        runs_executed: runs actually executed this invocation (resumed
            runs are *not* re-executed and are counted separately).
        runs_resumed: runs skipped because a journal already held their
            results (``--resume``).
        runs_derived: runs whose records were derived from the
            instrumented reference trace (``--trace-derive``) instead of
            executed.
        runs_recaptured: runs executed a second time to take the
            before-captures of calls entered after the injection fired
            that an exception left (those are captured on demand).
        runs_replayed: runs executed a second time with every
            before-capture taken, because a call whose capture was
            skipped raised after all (0 for a deterministic program).
        trace_seconds: wall time spent in the trace pass (stack
            reconciliation, entry captures, verdict derivation).
        trace_captures: state captures the trace pass performed (on its
            own meter — not included in ``state_captures``).
        result_cache_hits: whole-campaign results the service layer
            (:mod:`repro.service`) served from its digest-keyed result
            cache instead of re-running the campaign.
        result_cache_misses: campaign submissions the result cache had
            to run for real.
        cache_persist_hits: result-cache lookups answered by an entry
            that was replayed from the on-disk cache journal — i.e.
            campaigns a *restarted* server never re-ran.
        faults_injected: chaos faults the armed
            :class:`~repro.resilience.chaos.FaultPlan` fired during the
            campaign (0 outside ``repro chaos``).
        shard_retries: shard attempts the supervisor restarted after a
            crash, hang, or incomplete fragment (distinct from
            ``retries``, which counts per-point re-runs).
        runs_crashed: points marked ``crashed`` after exhausting retries.
        retries: total retry attempts across all points.
        wall_seconds: end-to-end campaign duration.
        runs_per_second: ``runs_executed / wall_seconds`` (0 when unknown).
        phase_seconds: per-phase wall-clock (``profile`` / ``execute`` /
            ``merge``).
        worker_busy_seconds: per-shard busy time of the shard process
            that completed it, keyed by shard index.
        worker_utilization: mean fraction of the execute phase the
            shard processes spent busy (1.0 = perfectly utilized).
        state_backend: name of the state backend the campaign compared
            state with (``graph``, ``fingerprint``).
        state_captures: full graph/checkpoint captures performed.
        state_fingerprints: one-pass digest computations performed.
        state_compares: state comparisons (graph diff or digest equality).
        state_seconds: cumulative wall time inside the state layer —
            the "where does sweep time go" number the backend swap targets.
    """

    engine: str = ENGINE_SEQUENTIAL
    workers: int = 1
    runs_total: int = 0
    runs_executed: int = 0
    runs_resumed: int = 0
    runs_derived: int = 0
    runs_recaptured: int = 0
    runs_replayed: int = 0
    runs_crashed: int = 0
    retries: int = 0
    trace_seconds: float = 0.0
    trace_captures: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    cache_persist_hits: int = 0
    faults_injected: int = 0
    shard_retries: int = 0
    wall_seconds: float = 0.0
    runs_per_second: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    worker_busy_seconds: Dict[str, float] = field(default_factory=dict)
    worker_utilization: float = 0.0
    state_backend: str = "graph"
    state_captures: int = 0
    state_fingerprints: int = 0
    state_compares: int = 0
    state_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-ready dict (the ``meta.json`` format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Optional[Mapping[str, Any]]) -> "CampaignTelemetry":
        """Deserialize, tolerating records from older runs.

        Each value is coerced to its field's type.  A missing key falls
        back to the field default, so metadata written before a field
        existed still loads; a key of a field that no longer exists is
        ignored.
        """
        data = data or {}
        types = typing.get_type_hints(cls)
        return cls(
            **{
                f.name: _coerce(types[f.name], data[f.name])
                for f in fields(cls)
                if f.name in data
            }
        )

    def summary(self) -> str:
        """Human-readable one-paragraph summary (the CLI's telemetry box)."""
        lines = [
            f"engine={self.engine} workers={self.workers} "
            f"runs={self.runs_executed}/{self.runs_total} "
            f"(resumed={self.runs_resumed}, "
            f"derived={self.runs_derived}, "
            f"recaptured={self.runs_recaptured}, "
            f"replayed={self.runs_replayed}, "
            f"crashed={self.runs_crashed}, "
            f"retries={self.retries})",
            f"wall={self.wall_seconds:.3f}s "
            f"throughput={self.runs_per_second:.1f} runs/s",
        ]
        if self.phase_seconds:
            phases = " ".join(
                f"{name}={seconds:.3f}s"
                for name, seconds in sorted(self.phase_seconds.items())
            )
            lines.append(f"phases: {phases}")
        if self.worker_busy_seconds:
            lines.append(
                f"worker utilization: {100.0 * self.worker_utilization:.0f}% "
                f"mean over {len(self.worker_busy_seconds)} shard(s)"
            )
        if self.runs_derived or self.trace_captures:
            lines.append(
                f"trace derive: {self.runs_derived} point(s) derived, "
                f"{self.trace_captures} capture(s), "
                f"pass time {self.trace_seconds:.3f}s"
            )
        if self.result_cache_hits or self.result_cache_misses:
            line = (
                f"result cache: {self.result_cache_hits} hit(s), "
                f"{self.result_cache_misses} miss(es)"
            )
            if self.cache_persist_hits:
                line += f", {self.cache_persist_hits} from disk"
            lines.append(line)
        if self.faults_injected or self.shard_retries:
            lines.append(
                f"chaos: {self.faults_injected} fault(s) injected, "
                f"{self.shard_retries} shard retr"
                + ("y" if self.shard_retries == 1 else "ies")
            )
        if self.state_captures or self.state_fingerprints or self.state_compares:
            lines.append(
                f"state: backend={self.state_backend} "
                f"captures={self.state_captures} "
                f"fingerprints={self.state_fingerprints} "
                f"compares={self.state_compares} "
                f"time={self.state_seconds:.3f}s"
            )
        return "\n".join(lines)


def _coerce(kind: Any, value: Any) -> Any:
    """*value* as an instance of the annotated field type *kind*."""
    if typing.get_origin(kind) is dict:
        key_type, value_type = typing.get_args(kind)
        return {key_type(k): value_type(v) for k, v in dict(value).items()}
    return kind(value)
