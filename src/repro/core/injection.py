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
run skips it (:meth:`InjectionCampaign.skips`) for every call the
profiling run saw return normally before the run's threshold, and for
every call entered after the injection fired, which it captures on
demand: if an exception leaves such a call, the run executes its point
again taking exactly those copies.  Should any other skipped call raise,
the run is replayed with every copy taken
(:func:`repro.core.detector.run_injection_point`), so skipping can never
change a run log.

Here the counter pair lives in an :class:`InjectionCampaign` object rather
than in actual globals, so several campaigns can coexist (e.g. in tests)
without interfering.
"""

from __future__ import annotations

import functools
import threading
import types
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Union

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
      minus the before-captures :meth:`skips` leaves out.
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
        #: the call raised).  Runs consult them through :meth:`skips`;
        #: a shard process installs its parent's, and a replay runs with
        #: no exits.
        self.call_entries: List[int] = []
        self.call_exits: List[Optional[int]] = []
        #: Wrapper entries so far in the current run or profiling run
        #: (the ordinal of the next one).
        self.calls_entered = 0
        #: Ordinals of the calls entered after the injection fired whose
        #: before-capture a run takes: none (captured on demand), the
        #: ones an execution of the same point needed, or every one
        #: (``None``, in a replay).
        self.captured_after_fire: Optional[FrozenSet[int]] = frozenset()
        #: Ordinals of this run's calls entered after the injection fired
        #: that an exception left uncaptured: the run lacks their marks.
        self.captures_missed: List[int] = []
        #: Set when a call skipped before the injection fired raised: the
        #: run may lack that call's mark, so it must be replayed.
        self.elision_missed = False
        #: Runs executed again to capture the calls in
        #: :attr:`captures_missed`.
        self.runs_recaptured = 0
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
        self.captures_missed = []
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

    def suspend(self) -> "_Suspension":
        """Temporarily make wrappers transparent.

        Used while the campaign itself executes application code (state
        capture, comparison) so the observer does not perturb the counter.
        """
        return _Suspension(self)

    def skips(self, ordinal: int, entry: int) -> bool:
        """Whether this run skips the before-capture of its wrapper entry
        number *ordinal*, entered with the point counter at *entry*.

        Before the injection fires: yes when the profiling run's entry of
        the same ordinal started at the same counter and returned
        normally with the counter below this run's threshold.  The run
        has executed exactly like the profiling run so far, so the call
        returns before the injection fires, no exception leaves it, and
        its before-state is never compared.

        Once it has fired (the entry's counter is at least the threshold:
        a handler, or code after the program caught the exception): yes
        unless the ordinal is in :attr:`captured_after_fire`.  Most such
        calls return normally, so they are captured on demand.
        """
        threshold = self.injection_point
        if entry >= threshold:
            captured = self.captured_after_fire
            return captured is not None and ordinal not in captured
        if ordinal >= len(self.call_exits):
            return False
        finished = self.call_exits[ordinal]
        return (
            finished is not None
            and finished < threshold
            and self.call_entries[ordinal] == entry
        )

    def note_missed(self, ordinal: int, entry: int) -> None:
        """An exception other than the run's abort left a call whose
        before-capture :meth:`skips` skipped: note what the run lacks."""
        if entry < self.injection_point:
            self.elision_missed = True
        else:
            self.captures_missed.append(ordinal)

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

    The wrapper (a) advances the campaign counter by the size of the
    method's injection repertoire, one point per exception, and raises
    the exception whose point equals the threshold, if one does (Listing
    1's ``if ++Point == InjectionPoint`` per exception, done as one
    comparison); (b) snapshots the object graph, unless the campaign
    skips it (:meth:`InjectionCampaign.skips`); (c) calls the original
    method; and (d) on exception, compares the snapshot with the state
    now, marks the method, and re-throws.  It reads the campaign's mode
    once per call: off or suspended, profiling, or detecting.

    The trace pass finds a wrapper frame by its code object
    (:data:`INJ_WRAPPER_CODE`) from inside the campaign's observers and
    reads ``spec``, ``args`` and ``kwargs`` from its locals.
    """
    original = spec.func
    key = spec.key
    exceptions = spec.exceptions
    repertoire = len(exceptions)

    @functools.wraps(original)
    def inj_wrapper(*args: Any, **kwargs: Any) -> Any:
        if not campaign.enabled or campaign._suspended:
            return original(*args, **kwargs)
        threshold = campaign.injection_point
        entry = campaign.point
        ordinal = campaign.calls_entered
        campaign.calls_entered = ordinal + 1
        if not threshold:
            # Profiling: count the call and its points, never inject.
            # Call counts feed the call-weighted statistics (Figures
            # 2b/3b); only the profiling run takes them, so repeated
            # detection runs do not inflate them.
            campaign.log.record_call(key)
            observer = campaign.point_observer
            if observer is not None:
                observer(spec, entry)
            campaign.point = entry + repertoire
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
        # This entry owns points entry+1 .. entry+repertoire, one per
        # exception in order; the one equal to the threshold fires.
        if entry < threshold <= entry + repertoire:
            campaign.point = threshold
            exc = make_injected(
                exceptions[threshold - entry - 1],
                method=key,
                injection_point=threshold,
            )
            campaign.note_injection(key, exc)
            raise exc
        campaign.point = entry + repertoire
        if campaign.skips(ordinal, entry):
            try:
                return original(*args, **kwargs)
            except InjectionAbort:
                raise
            except BaseException:
                campaign.note_missed(ordinal, entry)
                raise
        before = campaign.capture_state(spec, args, kwargs)
        try:
            return original(*args, **kwargs)
        except InjectionAbort:
            raise
        except BaseException:
            difference = campaign.diff_state(before, spec, args, kwargs)
            if difference is None:
                campaign.mark(key, ATOMIC)
            else:
                campaign.mark(key, NONATOMIC, str(difference))
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
