"""Write-trace recording for the one-trace-many-points pass.

The trace pass (:mod:`repro.core.tracepass`) derives per-point verdicts
from a single instrumented reference execution.  Its cheapest rule —
"no writes to the receiver's reachable state precede the point in its
span → trivially atomic" — needs to know whether *anything* was written
between a wrapper entry and a later injection moment.  This module
supplies that knowledge by riding the existing copy-on-write machinery
(:mod:`repro.core.cow`): the same class-level write barrier that feeds
undo logs feeds a :class:`TraceRecorder` during the profiling run,
producing a sequence-numbered log of every attribute write and delete
on the instrumented classes.

The barrier only sees attribute (re)assignment and deletion on classes
it is installed on; in-place container mutation (``list.append`` etc.)
bypasses it — the same documented limitation as the undo-log masking
strategy.  The trace pass therefore never trusts the write counter
alone: the zero-writes fast path additionally requires
:func:`barrier_covered` to certify, at wrapper entry, that everything
reachable from the captured roots is either immutable or an instance of
a barriered class.  Any mutation of a covered root set must pass
through the barrier, so "no events recorded since entry" is then a
sound proof that the reachable state is unchanged.  Root sets that a
stray list or foreign object makes uncoverable simply fall back to a
state comparison, which is sound unconditionally.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Set, Tuple

from ..cow import (
    active_log_top,
    install_write_barrier,
    pop_active_log,
    push_active_log,
    remove_write_barrier,
)
from ..state.introspect import (
    CAT_NODE,
    KIND_FROZENSET,
    KIND_OBJECT,
    KIND_TUPLE,
    list_children,
    type_info,
)

__all__ = ["TraceRecorder", "barrier_covered"]

#: Retained write events; the sequence counter keeps counting past it.
EVENT_CAP = 10_000


class TraceRecorder:
    """Sequence-numbered log of attribute writes/deletes during a trace.

    Duck-types the :class:`~repro.core.cow.UndoLog` protocol (``record``
    / ``absorb``) so the cow write barrier feeds it, but never dedups
    and never stores old values: the trace pass only needs to know
    *that* and *when* state was written, not how to undo it.
    """

    def __init__(self) -> None:
        #: Monotonic count of barrier events seen so far.  Wrapper-entry
        #: observations snapshot it; an unchanged value later proves no
        #: barrier-visible write happened in between.
        self.sequence = 0
        #: ``(sequence, type name, attribute)`` per event, capped at
        #: :data:`EVENT_CAP` entries (the counter is authoritative).
        self.events: List[Tuple[int, str, str]] = []
        #: Classes whose write barrier routes into this recorder.
        self.barriered: Set[type] = set()
        self._active = False

    # -- UndoLog protocol (fed by the cow write barrier) ----------------

    def record(self, obj: Any, name: str) -> None:
        self.sequence += 1
        if len(self.events) < EVENT_CAP:
            self.events.append((self.sequence, type(obj).__name__, name))

    def absorb(self, child: Any) -> None:
        """A nested undo log closed; count its writes as our own.

        While a subject-owned :class:`~repro.core.cow.UndoLog` region is
        open *above* this recorder, barrier events go to that log, not to
        us — so bump the sequence by the child's recorded writes when it
        commits back down.  Over-counting a rolled-back region is fine:
        a too-high counter only disables the zero-writes fast path.
        """
        self.sequence += max(1, int(getattr(child, "recorded_writes", 1)))

    @property
    def recorded_writes(self) -> int:
        return self.sequence

    @property
    def is_innermost(self) -> bool:
        """True when barrier events are currently routed to this recorder
        (no subject-owned undo-log region is open above it)."""
        return active_log_top() is self

    # -- lifecycle ------------------------------------------------------

    def start(self, classes: Iterable[type]) -> None:
        """Install write barriers and make this the active sink.

        A class that already carries a barrier (e.g. from an enclosing
        undo-log campaign) keeps it after :meth:`stop`: installs are
        counted, and :meth:`stop` drops only this recorder's.
        """
        if self._active:
            raise RuntimeError("TraceRecorder already started")
        self.barriered = set(classes)
        for cls in self.barriered:
            install_write_barrier(cls)
        push_active_log(self)
        self._active = True

    def stop(self) -> None:
        if not self._active:
            return
        pop_active_log(self)
        for cls in self.barriered:
            remove_write_barrier(cls)
        self._active = False


def barrier_covered(
    roots: Iterable[Tuple[Any, Any]],
    barriered: Set[type],
    *,
    max_objects: int = 10_000,
) -> bool:
    """True when every mutation of the roots' reachable state is
    barrier-visible.

    Walks the live objects reachable from ``roots`` (labeled exactly
    like a state capture): scalars and opaque leaves cannot mutate
    observably, tuples and frozensets are immutable shells whose
    children are walked, instances of barriered classes route every
    attribute write/delete through the recorder — and anything else
    (a plain list, dict, set, bytearray, or a non-barriered object)
    makes the set uncoverable, because it could change without an
    event.  Attaching a *new* mutable object to a covered set requires
    an attribute write on a barriered instance, which is itself an
    event, so coverage at entry plus an unchanged event counter is a
    sound unchanged-state proof for the whole window.
    """
    stack = [value for _, value in roots]
    seen: Set[int] = set()
    while stack:
        value = stack.pop()
        info = type_info(value)
        if info[0] != CAT_NODE:
            continue  # scalar or opaque leaf
        if id(value) in seen:
            continue
        seen.add(id(value))
        if len(seen) > max_objects:
            return False
        kind = info[1]
        if kind == KIND_OBJECT:
            if type(value) not in barriered:
                return False
        elif kind not in (KIND_TUPLE, KIND_FROZENSET):
            return False  # mutable container: bypasses the barrier
        stack.extend(child for _, child in list_children(value, info))
    return True
