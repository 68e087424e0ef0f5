"""Injection wrappers and campaign state (Listing 1, Steps 1 and 3).

The paper injects exceptions with a global counter ``Point`` that is
incremented at every potential injection point; when it equals the preset
threshold ``InjectionPoint`` the corresponding exception is thrown.  The
wrapper otherwise deep-copies the receiver's object graph, calls the real
method, and — if an exception propagates out — compares that copy with
the receiver's state as it is now and marks the method atomic or
non-atomic for this call before re-throwing.  Only the copy is
materialized: the graph backend reads the after-state straight from the
live objects (:meth:`InjectionCampaign.diff_state`).

The copy is only ever compared when an exception leaves the call, so a
run skips it for every call the profiling run saw return normally before
the run's threshold (:meth:`InjectionCampaign.elides`).  Should such a
call raise after all, the run is flagged and replayed with every copy
taken (:func:`repro.core.detector.run_injection_point`), so skipping can
never change a run log.

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
from .state.introspect import call_roots

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
      injection points, and record where each call starts and ends
      (``call_entries``/``call_exits``), but skip state capture.
    * detecting (``injection_point > 0``) — full Listing-1 behavior,
      minus the before-captures :meth:`elides` proves unused.
    """

    def __init__(
        self, *, state_backend: Union[str, StateBackend, None] = None
    ) -> None:
        self.point = 0
        self.injection_point = 0
        self.log = RunLog()
        self.enabled = False
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
        #: Every wrapper entry of the profiling run, in entry order: the
        #: point counter at entry, and at normal return (``None`` when
        #: the call raised).  Runs consult them through :meth:`elides`;
        #: a shard process installs its parent's, and a replay runs with
        #: no exits, so it skips nothing.
        self.call_entries: List[int] = []
        self.call_exits: List[Optional[int]] = []
        #: Wrapper entries so far in the current run or profiling run
        #: (the ordinal of the next one).
        self.calls_entered = 0
        #: Set when a call whose before-capture was skipped raised: the
        #: run may lack that call's mark, so it must be replayed.
        self.elision_missed = False
        #: Runs replayed with every before-capture taken.
        self.runs_replayed = 0
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
        self.call_entries = []
        self.call_exits = []
        self.calls_entered = 0
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
        self.calls_entered = 0
        self.elision_missed = False
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

    def elides(self, ordinal: int, entry: int) -> bool:
        """Whether this run may skip the before-capture of its wrapper
        entry number *ordinal*, entered with the point counter at *entry*.

        Yes when the profiling run's entry of the same ordinal started at
        the same counter and returned normally with the counter below
        this run's threshold: the run has executed exactly like the
        profiling run so far, so the call returns before the injection
        fires, no exception leaves it, and its before-state is never
        compared.
        """
        if ordinal >= len(self.call_exits):
            return False
        finished = self.call_exits[ordinal]
        return (
            finished is not None
            and finished < self.injection_point
            and self.call_entries[ordinal] == entry
        )

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
        ever hand it back to :meth:`diff_state`.
        """
        with self.suspend():
            return self.backend.capture_frame(
                self.capture_roots(spec, args, kwargs), stats=self.state_stats
            )

    def diff_state(
        self,
        before: Any,
        spec: MethodSpec,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ) -> Optional[GraphDifference]:
        """First difference between *before* (a :meth:`capture_state` of
        this call) and the call's state now, or None if equal."""
        with self.suspend():
            return self.backend.diff_live(
                before,
                self.capture_roots(spec, args, kwargs),
                stats=self.state_stats,
            )

    def capture_roots(
        self, spec: MethodSpec, args: Tuple[Any, ...], kwargs: Dict[str, Any]
    ) -> List[Tuple[Any, Any]]:
        """The labeled roots a state capture of this call starts from
        (:func:`~repro.core.state.introspect.call_roots`).  Public so the
        trace pass captures exactly the same frame a dynamic run would."""
        return call_roots(spec.has_receiver, args, kwargs)


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
    when the threshold is hit; (b) snapshots the object graph, unless the
    campaign proves the snapshot unused; (c) calls the original method;
    and (d) on exception, compares the snapshot with the state now, marks
    the method, and re-throws.
    """
    original = spec.func
    exceptions = spec.exceptions

    @functools.wraps(original)
    def inj_wrapper(*args: Any, **kwargs: Any) -> Any:
        if not campaign.enabled or campaign.suspended:
            return original(*args, **kwargs)
        campaign.note_call(spec.key)
        ordinal = campaign.calls_entered
        campaign.calls_entered = ordinal + 1
        entry = campaign.point
        observer = campaign.point_observer
        if observer is not None and campaign.injection_point == 0:
            observer(spec, entry)
        for exc_type in exceptions:
            campaign.point += 1
            if campaign.point == campaign.injection_point:
                exc = make_injected(
                    exc_type, method=spec.key, injection_point=campaign.point
                )
                campaign.note_injection(spec.key, exc)
                raise exc
        if not campaign.detecting:
            campaign.call_entries.append(entry)
            exits = campaign.call_exits
            exits.append(None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                escape = campaign.escape_observer
                if escape is not None:
                    escape(spec)
                raise
            exits[ordinal] = campaign.point
            return result
        if campaign.elides(ordinal, entry):
            try:
                return original(*args, **kwargs)
            except InjectionAbort:
                raise
            except BaseException:
                campaign.elision_missed = True
                raise
        before = campaign.capture_state(spec, args, kwargs)
        try:
            return original(*args, **kwargs)
        except InjectionAbort:
            raise
        except BaseException:
            difference = campaign.diff_state(before, spec, args, kwargs)
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
