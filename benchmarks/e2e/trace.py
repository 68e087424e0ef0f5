"""Spans recorded from outside the program, by patching layer entry points.

The harness measures each layer by wrapping the public function that
enters it, *where that name is looked up*: ``run_injection_point`` is
patched in ``repro.core.detector`` (the sequential engine's global) and
in ``repro.experiments.parallel`` (the pool and shard kernel) separately.
Nothing under ``src/`` is edited.

Spans (name, start, end, parent, process, thread, attributes such as a
campaign id) are kept in memory.  Pool workers are forked children: their
spans, and the speed samples of an untraced run (``yardstick.py``), are
appended to a per-process spool file after every chunk and folded into
the parent's lists by :meth:`Tracer.collect_spool`.  At the end
of a traced run the spans are written as Chrome trace-event JSON, which
Perfetto (ui.perfetto.dev) opens as-is.

A patch whose target no longer exists is skipped and reported in
:attr:`Tracer.missing`, so a refactor that renames a layer entry point
degrades the per-layer table instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import glob
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from yardstick import Sampler


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    pid: int
    tid: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(**data)


@dataclass(frozen=True)
class Patch:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``) in a span.

    ``annotate(args, kwargs, result)`` returns attributes for the span.
    ``worker_entry`` marks functions a forked pool worker enters through:
    their wrapper adopts the new process and spools its spans on return.
    """

    module: str
    attr: str
    name: str
    annotate: Optional[Callable[..., Dict[str, Any]]] = None
    worker_entry: bool = False


class Tracer:
    """Collects nested spans per thread; installs and removes patches."""

    def __init__(self, spool_dir: Optional[str] = None,
                 sampler: Optional[Sampler] = None,
                 cpus: Optional[Set[int]] = None) -> None:
        self.spans: List[Span] = []
        self.spool_dir = spool_dir
        self.sampler = sampler
        #: the CPUs a forked worker may run on (the parent may be pinned)
        self.cpus = cpus
        self.missing: List[str] = []
        self.pid = os.getpid()
        self._owner_pid = self.pid
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            pid=self.pid,
            tid=threading.get_native_id(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        return _SpanContext(self, name, attrs)

    def wrap(self, func: Callable, patch: Patch) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if patch.worker_entry:
                tracer.adopt_process()
            span = tracer.begin(patch.name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.end(span)
                if patch.annotate is not None:
                    span.attrs.update(patch.annotate(args, kwargs, result))
                if patch.worker_entry:
                    tracer.spool()

        return traced

    # -- patching ----------------------------------------------------

    def install(self, patches: Iterable[Patch]) -> int:
        """Apply *patches*; return how many were applied."""
        applied = 0
        for patch in patches:
            try:
                owner: Any = importlib.import_module(patch.module)
                *path, attr = patch.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if f"{patch.module}.{patch.attr}" not in self.missing:
                    self.missing.append(f"{patch.module}.{patch.attr}")
                continue
            own = attr in vars(owner)
            setattr(owner, attr, self.wrap(original, patch))
            self._patched.append((owner, attr, original, own))
            applied += 1
        return applied

    def uninstall(self, count: Optional[int] = None) -> None:
        """Undo the *count* most recent patches (all by default)."""
        remaining = len(self._patched) if count is None else count
        while self._patched and remaining > 0:
            remaining -= 1
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- processes ---------------------------------------------------

    def adopt_process(self) -> None:
        """In a forked child, drop the spans, samples and open stack
        inherited from the parent so only this process's own work is
        spooled, unpin it, and start sampling its speed."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self._local = threading.local()
            if self.cpus is not None:
                os.sched_setaffinity(0, self.cpus)
            if self.sampler is not None:
                self.sampler.start_in_child()

    def spool(self) -> None:
        """Append a child process's spans and samples to its spool file
        and clear them."""
        if self.pid == self._owner_pid or self.spool_dir is None:
            return
        lines = [json.dumps(s.to_dict()) for s in self.spans]
        if self.sampler is not None and self.sampler.samples:
            lines.append(json.dumps({"samples": self.sampler.samples}))
            self.sampler.samples = []
        if not lines:
            return
        path = os.path.join(self.spool_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        self.spans = []

    def collect_spool(self) -> None:
        """Fold every child's spool file into :attr:`spans` and the
        sampler's samples."""
        if self.spool_dir is None:
            return
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    if "samples" in record:
                        assert self.sampler is not None
                        self.sampler.samples.extend(map(tuple, record["samples"]))
                    else:
                        self.spans.append(Span.from_dict(record))
            os.remove(path)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.begin(self._name, **self._attrs)
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        assert self.span is not None
        self._tracer.end(self.span)


# ---------------------------------------------------------------------------
# What gets patched
# ---------------------------------------------------------------------------


def _submit_attrs(args, kwargs, result) -> Dict[str, Any]:
    if result is None:
        return {}
    payload, status = result
    attrs: Dict[str, Any] = {"status": status}
    if status == 202:
        attrs["campaign"] = payload.get("id")
    return attrs


def _run_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"campaign": args[1].id}


def _cache_get_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


_PROFILE_SITES = (
    "repro.core.detector",
    "repro.experiments.parallel",
    "repro.experiments.shard",
)

#: Always installed, traced or not: the per-run latency behind
#: ``op_p50_ms`` (and the printed tails) and the execution count behind
#: ``subject_executions``.  One span per injection run costs about a
#: microsecond against runs of a millisecond or more.
PROBE_PATCHES: List[Patch] = [
    Patch("repro.core.detector", "run_injection_point", "injection.run"),
    Patch("repro.experiments.parallel", "run_injection_point", "injection.run"),
    *(Patch(m, "call_through_boundary", "detector.profile") for m in _PROFILE_SITES),
    Patch("repro.experiments.parallel", "_init_worker", "parallel.worker_init",
          worker_entry=True),
    Patch("repro.experiments.parallel", "_run_chunk", "parallel.chunk",
          worker_entry=True),
]

#: Installed for ``--trace 1`` on top of the probes: one entry per layer.
LAYER_PATCHES: List[Patch] = [
    Patch("repro.core.weaver", "Weaver.weave_class", "weaver.weave"),
    Patch("repro.core.weaver", "Weaver.unweave_all", "weaver.unweave"),
    Patch("repro.core.detector", "_refine_run", "state.refine"),
    Patch("repro.experiments.campaign", "reclassify", "classify"),
    Patch("repro.experiments.validation", "reclassify", "classify"),
    Patch("repro.experiments.shard", "reclassify", "classify"),
    Patch("repro.core.runlog", "RunLog.to_json", "runlog.serialize"),
    Patch("repro.experiments.parallel", "ParallelDetector.detect", "parallel.detect"),
    Patch("multiprocessing.context", "BaseContext.Pool", "parallel.pool_start"),
    Patch("repro.experiments.parallel", "merge_logs", "parallel.merge"),
    Patch("repro.experiments.parallel", "CampaignJournal.append_run", "journal.append"),
    Patch("repro.experiments.shard", "ShardFragment.append_run", "journal.append"),
    Patch("repro.experiments.supervise", "ShardSupervisor.run", "supervise.run"),
    Patch("repro.experiments.supervise", "run_shard", "shard.run"),
    Patch("repro.experiments.supervise", "merge_fragments", "shard.merge"),
    Patch("repro.experiments.validation", "mask_and_redetect", "masking.redetect"),
    Patch("repro.core.state.backend", "StateBackend.checkpoint", "state.checkpoint"),
    Patch("repro.core.state.backend", "StateBackend.restore", "state.restore"),
    Patch("repro.core.state.backend", "UndoLogBackend.checkpoint", "state.checkpoint"),
    Patch("repro.core.state.backend", "UndoLogBackend.restore", "state.restore"),
]

#: The service layer, installed inside the traced server process.
SERVICE_PATCHES: List[Patch] = [
    Patch("repro.service.server", "CampaignService.submit", "service.submit",
          annotate=_submit_attrs),
    Patch("repro.service.server", "build_subject", "service.compile"),
    Patch("repro.service.server", "CampaignService._run", "service.campaign",
          annotate=_run_attrs),
    Patch("repro.service.cache", "ResultCache.get", "cache.get",
          annotate=_cache_get_attrs),
    Patch("repro.service.cache", "ResultCache.put", "cache.put"),
]


# ---------------------------------------------------------------------------
# Analysis and export
# ---------------------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[Tuple[int, int], float]:
    """Each span's duration minus the time its direct children cover."""
    covered: Dict[Tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[(span.pid, span.parent)] += span.dur
    return {(s.pid, s.id): s.dur - covered[(s.pid, s.id)] for s in spans}


def top_level(spans: List[Span], name: str) -> List[Span]:
    """Spans called *name* with no ancestor of the same name (an
    injection run that refines itself counts once)."""
    by_key = {(s.pid, s.id): s for s in spans}
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_key.get((span.pid, span.parent))
        while parent is not None and parent.name != name:
            parent = by_key.get((parent.pid, parent.parent))
        if parent is None:
            out.append(span)
    return out


def adopt_orphans(spans: List[Span]) -> None:
    """Parent the spans of short-lived threads under the span that spawned
    them: the shard supervisor runs each shard in a thread of its own,
    whose spans start with no parent on that thread.  All orphans of a
    thread are adopted by the innermost span of another thread of the same
    process that covers them all; a long-lived thread (an executor) whose
    orphans no single span covers keeps them as roots."""
    by_pid: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_pid[span.pid].append(span)
    for group in by_pid.values():
        threads: Dict[int, List[Span]] = defaultdict(list)
        for span in group:
            if span.parent is None:
                threads[span.tid].append(span)
        for tid, orphans in threads.items():
            lo = min(s.start for s in orphans)
            hi = max(s.end for s in orphans)
            hosts = [c for c in group if c.tid != tid and c.start <= lo and hi <= c.end]
            if hosts:
                host = max(hosts, key=lambda c: c.start)
                for span in orphans:
                    span.parent = host.id


def self_time_table(spans: List[Span], names: Dict[int, str]) -> List[Dict[str, Any]]:
    """Rows ``{process, layer, calls, total_s, self_s, share}`` per process
    kind (*names* maps pid to kind), largest self time first.  ``share`` is
    the self time over the summed root spans of that process kind."""
    selfs = self_times(spans)
    roots: Dict[str, float] = defaultdict(float)
    rows: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for span in spans:
        process = names.get(span.pid, "other")
        if span.parent is None:
            roots[process] += span.dur
        row = rows.setdefault(
            (process, span.name),
            {"process": process, "layer": span.name, "calls": 0,
             "total_s": 0.0, "self_s": 0.0},
        )
        row["calls"] += 1
        row["total_s"] += span.dur
        row["self_s"] += selfs[(span.pid, span.id)]
    for row in rows.values():
        whole = roots[row["process"]]
        row["share"] = row["self_s"] / whole if whole else 0.0
    return sorted(rows.values(), key=lambda r: (r["process"], -r["self_s"]))


def chrome_trace(spans: List[Span], process_names: Dict[int, str]) -> Dict[str, Any]:
    """Chrome trace-event JSON (``X`` complete events, microseconds)."""
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": label}}
        for pid, label in sorted(process_names.items())
    ]
    for span in sorted(spans, key=lambda s: s.start):
        args = {"id": f"{span.pid}:{span.id}"}
        if span.parent is not None:
            args["parent"] = f"{span.pid}:{span.parent}"
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.dur * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
