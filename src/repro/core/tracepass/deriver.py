"""One-trace-many-points derivation of injection-run verdicts.

The paper's detection step (§3) executes the subject once per injection
point: run *k* replays the workload deterministically, injects at point
*k*, and records one atomic/non-atomic mark per enclosing wrapper as the
exception propagates out.  RegionTrack-style trace checking observes
that a single instrumented reference execution already contains enough
information to decide most of those runs without replaying them.

The key alignment that makes derivation exact: the injection wrapper
raises in its repertoire loop **at entry, before the before-capture**.
So the program state at the moment point *p* (belonging to wrapper entry
*E*) would fire is precisely the state at *E*'s entry during the
reference execution — no later statement has run yet.  The mark an
enclosing wrapper *W* would record in run *p* is therefore::

    diff(capture(W's roots at W's entry), W's roots at E's entry)

both sides of which this pass sees during the ONE profiling run: it
captures *W*'s roots at *W*'s entry and, at *E*'s entry, walks the live
roots against that capture.  The trace-derived record for *p* is then

* one mark per genuine exception that escaped a wrapped call *before*
  *E* in the trace (the "ambient" marks — a dynamic run for *p* replays
  those failures identically and records the identical verdicts, since
  the dynamic run compares at the same program moment as this pass's
  escape-time comparison), in chronological order, followed by
* one mark per enclosing wrapper of *E*, innermost first (propagation
  order of the injected exception).

A point is **trace-decidable** only when every ingredient of that
reconstruction is certain:

* the stack walk from *E* reached the profile boundary and identified
  every wrapper frame (rule R1);
* every non-wrapper frame between *E* and the boundary is
  exception-transparent at its suspended line (rule R2) — the injected
  exception provably propagates through untouched, so the enclosing
  wrappers are exactly the marks;
* the active stack reconciled with the walk by frame identity, so every
  enclosing wrapper's entry-time capture is the right one (rule R3);
* the exception type passes the injectability probe (rule R4); and
* every ambient mark before *E* was itself derivable (rule R5).

Everything else falls back to real execution — derivation is sound by
construction, never by luck.  Every mark is decided by the one
comparison above, and comes in two flavors:

* **live-equal** — the live roots at *E*'s entry equal *W*'s entry
  capture: atomic (this is how handler-compensated writes — state
  restored by a finally/except block before the exception crossed *W* —
  are recognized as atomic, exactly as a dynamic run would);
* **live-differs** — an unreversed write precedes the point:
  non-atomic, with the same ``GraphDifference`` string a dynamic run
  under the graph backend would record.

Captures always use the graph backend with the pass's own
:class:`~repro.core.state.StateStats`, regardless of the campaign
backend: dynamic non-atomic runs are already graph-refined on lossy
backends, so derived records keep the log bit-identical across all
backends (modulo per-run ``provenance="trace"``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..analyzer import MethodSpec
from ..exceptions import is_injected, make_injected
from ..injection import INJ_WRAPPER_CODE, InjectionCampaign
from ..runlog import ATOMIC, NONATOMIC, RunRecord
from ..state import StateStats, get_backend
from .transparency import (
    PROFILE_BOUNDARY_CODE,
    TransparencyIndex,
    nested_boundary,
)

__all__ = ["PROVENANCE_TRACE", "TraceDeriver"]

PROVENANCE_TRACE = "trace"

#: A derived mark: (method key, verdict, difference-or-None).
_MarkTuple = Tuple[Any, str, Optional[str]]


@dataclass
class _ActiveEntry:
    """A wrapper invocation currently on the stack during the trace."""

    spec: MethodSpec
    #: The wrapper's own frame object — active-stack reconciliation
    #: compares these by identity, which spec matching cannot replace
    #: (the same method re-entered at the same depth is a new entry).
    frame: Any
    roots: List[Tuple[Any, Any]]
    #: Graph capture of the roots at entry.
    capture: Any


@dataclass(frozen=True)
class _TraceSpan:
    """The derivation outcome for one wrapper entry's repertoire."""

    base_point: int
    spec: MethodSpec
    decided: bool
    #: Ambient marks then enclosing marks, in dynamic-run record order.
    marks: Tuple[_MarkTuple, ...]
    #: Why the span is undecidable (telemetry/tests); None when decided.
    reason: Optional[str] = None


class TraceDeriver:
    """Derives injection-run records from one instrumented trace.

    Attaches to the campaign's profiling-only observer hooks and, per
    wrapper entry, decides the entry's whole repertoire immediately —
    captures happen at the exact moment the points would fire, so no
    state needs to be retained beyond the active stack.
    """

    def __init__(self, campaign: InjectionCampaign) -> None:
        started = time.perf_counter()
        self.campaign = campaign
        self.transparency = TransparencyIndex()
        #: The pass's own capture/compare accounting; deliberately not
        #: the campaign's StateStats, so the dynamic-run telemetry
        #: counters stay comparable with and without --trace-derive.
        self.stats = StateStats()
        self.spans: List[_TraceSpan] = []
        self._graph = get_backend("graph")
        self._stack: List[_ActiveEntry] = []
        #: One entry per escape event, chronological; None marks an
        #: escape whose verdict could not be derived — every span
        #: observed after it is undecidable (rule R5).
        self._ambient: List[Optional[_MarkTuple]] = []
        self._probe: Dict[type, bool] = {}
        self.seconds = time.perf_counter() - started

    # -- campaign hooks -------------------------------------------------

    def attach(self, campaign: InjectionCampaign) -> None:
        campaign.point_observer = self.observe
        campaign.escape_observer = self.observe_escape

    def detach(self, campaign: InjectionCampaign) -> None:
        campaign.point_observer = None
        campaign.escape_observer = None

    def observe(self, spec: MethodSpec, base_point: int) -> None:
        """``point_observer`` — record one wrapper entry.  Called from
        the wrapper itself, so the caller's frame is the wrapper frame."""
        started = time.perf_counter()
        wrapper_frame = sys._getframe(1)
        try:
            enclosing, frames, usable = self._walk(wrapper_frame.f_back)
            reconciled = self._reconcile(
                [frame for _, frame in reversed(enclosing)]
            )
            self._decide_span(spec, base_point, frames, usable, reconciled)
            self._stack.append(self._enter(spec, wrapper_frame))
        finally:
            del wrapper_frame
            self.seconds += time.perf_counter() - started

    def observe_escape(self, spec: MethodSpec) -> None:
        """``escape_observer`` — a genuine exception is crossing the
        innermost wrapper: pop its entry and record the ambient mark a
        dynamic run would record at this same moment."""
        started = time.perf_counter()
        wrapper_frame = sys._getframe(1)
        try:
            enclosing, _frames, usable = self._walk(wrapper_frame.f_back)
            expected = [frame for _, frame in reversed(enclosing)]
            expected.append(wrapper_frame)
            if not usable:
                # unknown true depth: distrust the whole active stack
                self._stack.clear()
                self._ambient.append(None)
                return
            if not self._reconcile(expected) or len(self._stack) != len(expected):
                if self._stack and self._stack[-1].frame is wrapper_frame:
                    self._stack.pop()
                self._ambient.append(None)
                return
            entry = self._stack.pop()
            self._ambient.append(self._verdict(entry))
        finally:
            del wrapper_frame
            self.seconds += time.perf_counter() - started

    # -- trace mechanics ------------------------------------------------

    def _walk(self, start):
        """Split the stack above *start* into enclosing wrapper frames
        (innermost first, as ``(spec, frame)``) and other frames (as
        ``(code, suspended line)``); ``usable`` is False when a wrapper
        frame could not be identified or the boundary was never found."""
        enclosing: List[Tuple[MethodSpec, Any]] = []
        frames: List[Tuple[Any, int]] = []
        usable = True
        complete = False
        frame = start
        try:
            while frame is not None:
                code = frame.f_code
                if code is PROFILE_BOUNDARY_CODE:
                    # An inner boundary called by subject code hides the
                    # real enclosing context, so the walk is not
                    # trustworthy.
                    complete = not nested_boundary(frame)
                    break
                if code is INJ_WRAPPER_CODE:
                    enclosing_spec = frame.f_locals.get("spec")
                    if isinstance(enclosing_spec, MethodSpec):
                        enclosing.append((enclosing_spec, frame))
                    else:
                        usable = False
                else:
                    frames.append((code, frame.f_lineno))
                frame = frame.f_back
        finally:
            del frame
        return enclosing, frames, usable and complete

    def _reconcile(self, outermost_first: List[Any]) -> bool:
        """Correct the active stack against the walked wrapper frames.

        Truncates to the walked depth, then keeps the longest prefix
        whose stored frames match the walked frames *by identity* —
        entries orphaned by an exception that bypassed the escape hook
        (or by a distrusted walk) are dropped here, before they can
        donate a stale capture to a verdict.  Returns True when the
        whole stack matches.
        """
        del self._stack[len(outermost_first):]
        matched = 0
        for entry, frame in zip(self._stack, outermost_first):
            if entry.frame is not frame:
                break
            matched += 1
        exact = matched == len(self._stack) == len(outermost_first)
        del self._stack[matched:]
        return exact

    def _enter(self, spec: MethodSpec, wrapper_frame) -> _ActiveEntry:
        args = wrapper_frame.f_locals.get("args", ())
        kwargs = wrapper_frame.f_locals.get("kwargs", {})
        roots = self.campaign.capture_roots(spec, args, kwargs)
        with self.campaign.suspend():
            capture = self._graph.capture_frame(roots, stats=self.stats)
        return _ActiveEntry(
            spec=spec, frame=wrapper_frame, roots=roots, capture=capture
        )

    def _verdict(
        self, entry: _ActiveEntry, reads: Optional[Dict[int, Any]] = None
    ) -> _MarkTuple:
        """The mark *entry*'s wrapper would record if an exception
        crossed it right now; the verdicts of one instant share *reads*
        (see :func:`~repro.core.state.graph.graph_diff_live`)."""
        with self.campaign.suspend():
            difference = self._graph.diff_live(
                entry.capture, entry.roots, stats=self.stats, reads=reads
            )
        if difference is None:
            return (entry.spec.key, ATOMIC, None)
        return (entry.spec.key, NONATOMIC, str(difference))

    def _decide_span(
        self,
        spec: MethodSpec,
        base_point: int,
        frames: List[Tuple[Any, int]],
        usable: bool,
        reconciled: bool,
    ) -> None:
        reason: Optional[str] = None
        if not usable:
            reason = "walk"  # R1: boundary/wrapper identification failed
        elif not reconciled:
            reason = "stack"  # R3: active stack disagrees with the walk
        elif any(
            not self.transparency.transparent_at(code, lineno)
            for code, lineno in frames
        ):
            reason = "transparency"  # R2
        marks: List[_MarkTuple] = []
        if reason is None:
            for ambient in self._ambient:
                if ambient is None:
                    reason = "ambient"  # R5
                    break
                marks.append(ambient)
        if reason is None:
            # Nothing runs between these verdicts, so one read of each
            # live object serves them all.
            reads: Dict[int, Any] = {}
            for entry in reversed(self._stack):  # innermost first
                marks.append(self._verdict(entry, reads))
        self.spans.append(
            _TraceSpan(
                base_point=base_point,
                spec=spec,
                decided=reason is None,
                marks=tuple(marks),
                reason=reason,
            )
        )

    # -- decision -------------------------------------------------------

    def _injectable(self, exc_type: type) -> bool:
        cached = self._probe.get(exc_type)
        if cached is None:
            try:
                probe = make_injected(
                    exc_type, method="<probe>", injection_point=0
                )
                cached = is_injected(probe)
            except Exception:
                cached = False
            self._probe[exc_type] = cached
        return cached

    def derive_map(self) -> Dict[int, RunRecord]:
        """Derived records keyed by injection point.

        Points whose exception type fails the injectability probe (R4)
        stay dynamic — an uninjectable type would surface as a *genuine*
        failure, which only execution can characterize.
        """
        started = time.perf_counter()
        records: Dict[int, RunRecord] = {}
        for span in self.spans:
            if not span.decided:
                continue
            for offset, exc_type in enumerate(span.spec.exceptions):
                if not self._injectable(exc_type):
                    continue
                point = span.base_point + offset + 1
                record = RunRecord(
                    injection_point=point,
                    injected_method=span.spec.key,
                    injected_exception=exc_type.__name__,
                    completed=False,
                    escaped=True,
                    provenance=PROVENANCE_TRACE,
                )
                for method, verdict, difference in span.marks:
                    record.add_mark(method, verdict, difference)
                records[point] = record
        self.seconds += time.perf_counter() - started
        return records

    @property
    def undecided_spans(self) -> int:
        return sum(1 for span in self.spans if not span.decided)
