"""Injection wrappers and campaign state (Listing 1, Steps 1 and 3).

The paper injects exceptions with a global counter ``Point`` that is
incremented at every potential injection point; when it equals the preset
threshold ``InjectionPoint`` the corresponding exception is thrown.  The
wrapper otherwise deep-copies the receiver's object graph, calls the real
method, and — if an exception propagates out — compares the graphs and
marks the method atomic or non-atomic for this call before re-throwing.

Here the counter pair lives in an :class:`InjectionCampaign` object rather
than in actual globals, so several campaigns can coexist (e.g. in tests)
without interfering.
"""

from __future__ import annotations

import functools
import threading
import types
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .analyzer import MethodSpec
from .exceptions import InjectionAbort, make_injected
from .runlog import ATOMIC, NONATOMIC, MethodKey, RunLog, RunRecord
from .state import GraphDifference, StateBackend, StateStats, get_backend
from .state.introspect import is_opaque, is_scalar

__all__ = ["INJ_WRAPPER_CODE", "InjectionCampaign", "make_injection_wrapper"]


class InjectionCampaign:
    """Shared state of one detection campaign.

    A campaign owns the ``Point`` counter, the ``InjectionPoint``
    threshold, and the run log.  The threshold semantics follow the paper
    exactly: the counter is incremented at every potential injection point
    and the exception fires when ``Point == InjectionPoint``; a threshold
    of 0 never fires (the counter only increases), which is how the
    profiling run counts the total number of injection points.

    Modes:

    * ``enabled=False`` — wrappers call through without any bookkeeping.
    * profiling (``injection_point == 0``) — wrappers count calls and
      injection points but skip state capture.
    * detecting (``injection_point > 0``) — full Listing-1 behavior.
    """

    def __init__(
        self,
        *,
        capture_args: bool = True,
        ignore_attrs: Optional[Callable[[str], bool]] = None,
        max_graph_nodes: Optional[int] = None,
        state_backend: Union[str, StateBackend, None] = None,
    ) -> None:
        self.point = 0
        self.injection_point = 0
        self.log = RunLog()
        self.enabled = False
        self.capture_args = capture_args
        self.ignore_attrs = ignore_attrs
        #: Optional node budget for state captures.  A capture that
        #: exceeds it raises CaptureLimitError *instead of* producing a
        #: partial graph, so no truncated-graph verdict can ever be
        #: recorded in the run log; the run surfaces as a genuine failure.
        self.max_graph_nodes = max_graph_nodes
        #: The state backend deciding how before/after summaries are
        #: materialized and compared.  Defaults to the graph backend (the
        #: reference semantics); the fingerprint backend answers the same
        #: question from a 128-bit digest compare.
        self.backend = get_backend(state_backend)
        #: Where the campaign's state-machinery time goes (telemetry).
        self.state_stats = StateStats()
        #: Profiling-only hook: called as ``observer(spec, point)`` at
        #: every wrapper entry with the base value of the point counter
        #: (the entry's repertoire occupies the next ``len(exceptions)``
        #: points).  The trace pass (:mod:`repro.core.tracepass`)
        #: attaches here to pair each injection point with its live call
        #: stack.
        self.point_observer: Optional[Callable[[MethodSpec, int], None]] = None
        #: Profiling-only hook: called as ``escape_observer(spec)`` when a
        #: wrapped call exits via an exception during profiling.  A genuine
        #: failure leaves a mark in every detection run that executes past
        #: it — the trace pass records that mark at this moment.
        self.escape_observer: Optional[Callable[[MethodSpec], None]] = None
        #: Optional per-campaign digest cache
        #: (:class:`repro.core.state.FingerprintCache`).  Installed by the
        #: engines for fingerprint-backend sweeps; ``capture_state``
        #: consults it only while the active backend supports digests, so
        #: graph-backend refinement re-runs bypass it.
        self.digest_cache = None
        self.current_run: Optional[RunRecord] = None
        self._suspended = 0
        self._owner_thread: Optional[int] = None

    # -- lifecycle -----------------------------------------------------

    def _check_thread(self) -> None:
        """Campaigns are single-threaded (paper Section 4.4); a counter
        shared across threads would make runs non-reproducible, so the
        violation is loud instead of silent."""
        current = threading.get_ident()
        if self._owner_thread is None:
            self._owner_thread = current
        elif self._owner_thread != current:
            raise RuntimeError(
                "InjectionCampaign used from multiple threads; the "
                "detection methodology is single-threaded (paper §4.4)"
            )

    def begin_profile(self) -> None:
        """Start a profiling run: count points and calls, never inject."""
        self._check_thread()
        self.point = 0
        self.injection_point = 0
        self.enabled = True
        self.current_run = None

    def end_profile(self) -> int:
        """Finish profiling; return the total number of injection points."""
        self.enabled = False
        return self.point

    def begin_run(self, injection_point: int) -> RunRecord:
        """Start one injection run with the given threshold."""
        if injection_point <= 0:
            raise ValueError("injection_point must be >= 1")
        self._check_thread()
        self.point = 0
        self.injection_point = injection_point
        self.enabled = True
        self.current_run = self.log.begin_run(injection_point)
        return self.current_run

    def end_run(self, *, completed: bool, escaped: bool) -> None:
        if self.current_run is not None:
            self.current_run.completed = completed
            self.current_run.escaped = escaped
        self.enabled = False
        self.current_run = None

    # -- wrapper services ------------------------------------------------

    @property
    def detecting(self) -> bool:
        """True while a real injection run (not profiling) is active."""
        return self.enabled and self.injection_point > 0

    @property
    def suspended(self) -> bool:
        return self._suspended > 0

    def suspend(self) -> "_Suspension":
        """Temporarily make wrappers transparent.

        Used while the campaign itself executes application code (state
        capture, comparison) so the observer does not perturb the counter.
        """
        return _Suspension(self)

    def note_call(self, method: MethodKey) -> None:
        # Call counts feed the call-weighted statistics (Figures 2b/3b);
        # they are taken from the profiling run only so that the repeated
        # detection executions do not inflate them.
        if self.injection_point == 0:
            self.log.record_call(method)

    def note_injection(self, method: MethodKey, exc: BaseException) -> None:
        if self.current_run is not None:
            self.current_run.injected_method = method
            self.current_run.injected_exception = type(exc).__name__

    def mark(
        self, method: MethodKey, verdict: str, difference: Optional[str] = None
    ) -> None:
        if self.current_run is not None:
            self.current_run.add_mark(method, verdict, difference)

    def capture_state(
        self, spec: MethodSpec, args: Tuple[Any, ...], kwargs: Dict[str, Any]
    ) -> Any:
        """Summarize the receiver and mutable arguments of a call.

        Mirrors Listing 1: the deep copy covers ``this`` plus all
        arguments passed as non-constant references.  In Python every
        argument is a reference, so we include each argument that holds
        mutable state.  The summary type is backend-specific (a full
        :class:`~repro.core.state.ObjectGraph` or a digest); callers only
        ever hand it back to :meth:`compare_states`.
        """
        with self.suspend():
            roots = self.capture_roots(spec, args, kwargs)
            cache = self.digest_cache
            if cache is not None and getattr(
                self.backend, "supports_digest_cache", False
            ):
                return cache.capture(
                    self.backend,
                    roots,
                    ignore_attrs=self.ignore_attrs,
                    max_nodes=self.max_graph_nodes,
                    stats=self.state_stats,
                )
            return self.backend.capture_frame(
                roots,
                ignore_attrs=self.ignore_attrs,
                max_nodes=self.max_graph_nodes,
                stats=self.state_stats,
            )

    def compare_states(self, before: Any, after: Any) -> Optional[GraphDifference]:
        """First difference between two state summaries, or None if equal."""
        with self.suspend():
            return self.backend.diff(before, after, stats=self.state_stats)

    def capture_roots(
        self, spec: MethodSpec, args: Tuple[Any, ...], kwargs: Dict[str, Any]
    ) -> List[Tuple[Any, Any]]:
        """The labeled roots a state capture of this call starts from:
        the receiver plus (under ``capture_args``) every non-scalar,
        non-opaque argument.  Public so the trace pass captures exactly
        the same frame a dynamic run would."""
        roots: List[Tuple[Any, Any]] = []
        positional = args
        if spec.has_receiver and args:
            roots.append(("self", args[0]))
            positional = args[1:]
        if self.capture_args:
            for index, value in enumerate(positional):
                if not is_scalar(value) and not is_opaque(value):
                    roots.append((("arg", index), value))
            for name in sorted(kwargs):
                value = kwargs[name]
                if not is_scalar(value) and not is_opaque(value):
                    roots.append((("kwarg", name), value))
        return roots


class _Suspension:
    def __init__(self, campaign: InjectionCampaign) -> None:
        self._campaign = campaign

    def __enter__(self) -> None:
        self._campaign._suspended += 1

    def __exit__(self, *exc_info: object) -> None:
        self._campaign._suspended -= 1


def make_injection_wrapper(
    spec: MethodSpec, campaign: InjectionCampaign
) -> Callable:
    """Build the injection wrapper of Listing 1 for one method.

    The wrapper (a) walks the method's injection repertoire, incrementing
    the campaign counter once per potential injection point and raising
    when the threshold is hit; (b) snapshots the object graph; (c) calls
    the original method; and (d) on exception, compares before/after
    graphs, marks the method, and re-throws.
    """
    original = spec.func
    exceptions = spec.exceptions

    @functools.wraps(original)
    def inj_wrapper(*args: Any, **kwargs: Any) -> Any:
        if not campaign.enabled or campaign.suspended:
            return original(*args, **kwargs)
        campaign.note_call(spec.key)
        observer = campaign.point_observer
        if observer is not None and campaign.injection_point == 0:
            observer(spec, campaign.point)
        for exc_type in exceptions:
            campaign.point += 1
            if campaign.point == campaign.injection_point:
                exc = make_injected(
                    exc_type, method=spec.key, injection_point=campaign.point
                )
                campaign.note_injection(spec.key, exc)
                raise exc
        if not campaign.detecting:
            escape = campaign.escape_observer
            if escape is None:
                return original(*args, **kwargs)
            try:
                return original(*args, **kwargs)
            except BaseException:
                escape(spec)
                raise
        before = campaign.capture_state(spec, args, kwargs)
        try:
            return original(*args, **kwargs)
        except InjectionAbort:
            raise
        except BaseException:
            after = campaign.capture_state(spec, args, kwargs)
            difference = campaign.compare_states(before, after)
            if difference is None:
                campaign.mark(spec.key, ATOMIC)
            else:
                campaign.mark(spec.key, NONATOMIC, str(difference))
            raise

    inj_wrapper._repro_wrapped = original  # type: ignore[attr-defined]
    inj_wrapper._repro_spec = spec  # type: ignore[attr-defined]
    inj_wrapper._repro_kind = "injection"  # type: ignore[attr-defined]
    return inj_wrapper


#: Code object shared by every injection wrapper — the trace pass
#: recognizes wrapper frames in a stack walk by identity against this
#: constant (closures share one code object across instantiations).
INJ_WRAPPER_CODE = next(
    const
    for const in make_injection_wrapper.__code__.co_consts
    if isinstance(const, types.CodeType) and const.co_name == "inj_wrapper"
)
