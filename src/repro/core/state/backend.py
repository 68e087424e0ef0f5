"""The :class:`StateBackend` protocol and its three implementations.

Everything the pipeline ever does with reachable state fits five verbs —
*fingerprint*, *capture*, *diff*, *checkpoint*, *restore* — plus *commit*
for strategies (the undo log) whose checkpoints must be explicitly
retired.  A backend packages one coherent strategy for those verbs:

``GraphBackend``
    Today's semantics: full materialized :class:`ObjectGraph` snapshots
    compared by rooted isomorphism, eager :class:`Checkpoint` rollback.
    The reference implementation every other backend must agree with.

``FingerprintBackend``
    The fast path: state summaries are 128-bit structural digests
    computed in one traversal, so "did the state change?" is a 16-byte
    compare.  Its :meth:`~StateBackend.diff` is *lossy* — it knows the
    state changed but not where; callers wanting diagnostics fall back
    to a graph-backend re-run (see
    :func:`repro.core.detector.run_injection_point`).  Checkpointing
    delegates to the eager checkpoint: digests cannot restore state.

``UndoLogBackend``
    Checkpoints are write-barrier undo logs (cost ∝ writes, not object
    size); capture/diff delegate to graph semantics since the undo log
    has no summary representation of its own.

Backends are selected *by name* everywhere user-facing (CLI flags,
journal headers, multiprocessing initargs) so the choice is picklable
and survives ``--resume``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

from . import checkpoint as _checkpoint
from . import fingerprint as _fingerprint
from . import graph as _graph
from ..cow import UndoLog

__all__ = [
    "StateBackend",
    "GraphBackend",
    "FingerprintBackend",
    "UndoLogBackend",
    "StateStats",
    "BACKENDS",
    "DETECTION_BACKENDS",
    "get_backend",
]


@dataclass
class StateStats:
    """Counters for where a campaign's state-machinery time goes.

    Accumulated by every consumer that holds a backend (campaigns,
    maskers) and surfaced through
    :class:`~repro.core.telemetry.CampaignTelemetry` so ``repro detect``
    can show the capture/compare split before and after a backend swap.
    """

    captures: int = 0  #: full graph captures (and checkpoint captures)
    fingerprints: int = 0  #: one-pass digest computations
    compares: int = 0  #: state comparisons (graph diff or digest equality)
    seconds: float = 0.0  #: cumulative wall time inside the state layer

    def merge(self, other: "StateStats") -> None:
        self.captures += other.captures
        self.fingerprints += other.fingerprints
        self.compares += other.compares
        self.seconds += other.seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "captures": self.captures,
            "fingerprints": self.fingerprints,
            "compares": self.compares,
            "seconds": self.seconds,
        }


class StateBackend:
    """One strategy for materializing, comparing, and restoring state.

    Subclasses override the capture/diff quartet; the checkpoint trio
    defaults to the eager in-place checkpoint, which every strategy can
    fall back on.  All methods accept/return the backend's *own* summary
    type — callers treat summaries as opaque values and only ever hand
    them back to the same backend.
    """

    #: registry name; also what journals and CLI flags carry.
    name: str = "abstract"
    #: True when :meth:`diff` cannot localize a difference (digest-only).
    lossy_diff: bool = False
    #: ``_repro_kind`` tag stamped on atomicity wrappers using this backend.
    wrapper_kind: str = "atomicity"

    # -- summaries ----------------------------------------------------

    def capture(
        self,
        value: Any,
        *,
        ignore_attrs: Optional[Callable[[str], bool]] = None,
        max_nodes: Optional[int] = None,
        stats: Optional[StateStats] = None,
    ) -> Any:
        """Summarize the state reachable from *value*."""
        raise NotImplementedError

    def capture_frame(
        self,
        label_values: Iterable[Tuple[Any, Any]],
        *,
        ignore_attrs: Optional[Callable[[str], bool]] = None,
        max_nodes: Optional[int] = None,
        stats: Optional[StateStats] = None,
    ) -> Any:
        """Summarize several labeled roots under one synthetic frame."""
        raise NotImplementedError

    def fingerprint(
        self,
        value: Any,
        *,
        ignore_attrs: Optional[Callable[[str], bool]] = None,
        max_nodes: Optional[int] = None,
        stats: Optional[StateStats] = None,
    ) -> _fingerprint.StateFingerprint:
        """128-bit structural digest of the state reachable from *value*.

        Available on every backend (digests are universally useful for
        logs and cross-run comparison); only the fingerprint backend uses
        them as its primary summary.
        """
        started = time.perf_counter()
        try:
            return _fingerprint.fingerprint(
                value, ignore_attrs=ignore_attrs, max_nodes=max_nodes
            )
        finally:
            if stats is not None:
                stats.fingerprints += 1
                stats.seconds += time.perf_counter() - started

    def diff(
        self, a: Any, b: Any, *, stats: Optional[StateStats] = None
    ) -> Optional[_graph.GraphDifference]:
        """First difference between two summaries, or None when equal."""
        raise NotImplementedError

    def equal(
        self, a: Any, b: Any, *, stats: Optional[StateStats] = None
    ) -> bool:
        return self.diff(a, b, stats=stats) is None

    # -- checkpoints --------------------------------------------------

    def checkpoint(
        self,
        *roots: Any,
        ignore_attrs: Optional[Callable[[str], bool]] = None,
        max_objects: Optional[int] = None,
        stats: Optional[StateStats] = None,
    ) -> Any:
        """Checkpoint *roots* for in-place rollback (paper's ``deep_copy``)."""
        started = time.perf_counter()
        try:
            return _checkpoint.checkpoint(
                *roots, ignore_attrs=ignore_attrs, max_objects=max_objects
            )
        finally:
            if stats is not None:
                stats.captures += 1
                stats.seconds += time.perf_counter() - started

    def restore(self, cp: Any) -> None:
        """Roll the checkpointed objects back (paper's ``replace``)."""
        cp.restore()

    def commit(self, cp: Any) -> None:
        """Retire a checkpoint after a successful region (default no-op)."""

    def checkpoint_size(self, cp: Any) -> int:
        """Objects recorded *at checkpoint time* (for MaskingStats)."""
        return cp.recorded_count

    def rollback_size(self, cp: Any) -> int:
        """Extra objects counted *at rollback time* (for MaskingStats)."""
        return 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class GraphBackend(StateBackend):
    """Full object-graph snapshots compared by rooted isomorphism."""

    name = "graph"

    def capture(self, value, *, ignore_attrs=None, max_nodes=None, stats=None):
        started = time.perf_counter()
        try:
            return _graph.capture(
                value, ignore_attrs=ignore_attrs, max_nodes=max_nodes
            )
        finally:
            if stats is not None:
                stats.captures += 1
                stats.seconds += time.perf_counter() - started

    def capture_frame(
        self, label_values, *, ignore_attrs=None, max_nodes=None, stats=None
    ):
        started = time.perf_counter()
        try:
            return _graph.capture_frame(
                label_values, ignore_attrs=ignore_attrs, max_nodes=max_nodes
            )
        finally:
            if stats is not None:
                stats.captures += 1
                stats.seconds += time.perf_counter() - started

    def diff(self, a, b, *, stats=None):
        started = time.perf_counter()
        try:
            return _graph.graph_diff(a, b)
        finally:
            if stats is not None:
                stats.compares += 1
                stats.seconds += time.perf_counter() - started


class FingerprintBackend(StateBackend):
    """Digest summaries: equality is a 16-byte compare, diffs are lossy."""

    name = "fingerprint"
    lossy_diff = True

    def capture(self, value, *, ignore_attrs=None, max_nodes=None, stats=None):
        started = time.perf_counter()
        try:
            return _fingerprint.fingerprint(
                value, ignore_attrs=ignore_attrs, max_nodes=max_nodes
            )
        finally:
            if stats is not None:
                stats.fingerprints += 1
                stats.seconds += time.perf_counter() - started

    def capture_frame(
        self, label_values, *, ignore_attrs=None, max_nodes=None, stats=None
    ):
        started = time.perf_counter()
        try:
            return _fingerprint.fingerprint_frame(
                label_values, ignore_attrs=ignore_attrs, max_nodes=max_nodes
            )
        finally:
            if stats is not None:
                stats.fingerprints += 1
                stats.seconds += time.perf_counter() - started

    def diff(self, a, b, *, stats=None):
        started = time.perf_counter()
        try:
            if a == b:
                return None
            # A digest can witness that the state changed but not where.
            # Callers that need localization re-run the point under the
            # graph backend (run_injection_point's refinement pass).
            return _graph.GraphDifference(
                path="",
                reason=f"state fingerprint changed ({a} != {b})",
            )
        finally:
            if stats is not None:
                stats.compares += 1
                stats.seconds += time.perf_counter() - started


class UndoLogBackend(StateBackend):
    """Write-barrier undo logs for checkpointing; graph semantics otherwise.

    Requires :func:`repro.core.cow.install_write_barrier` on every class
    whose attribute writes must be undoable — the backend cannot verify
    that precondition, it is the caller's contract (documented limitation
    of the §6.2 copy-on-write strategy).
    """

    name = "undolog"
    wrapper_kind = "atomicity-undolog"

    _graph_delegate = GraphBackend()

    def capture(self, value, *, ignore_attrs=None, max_nodes=None, stats=None):
        return self._graph_delegate.capture(
            value, ignore_attrs=ignore_attrs, max_nodes=max_nodes, stats=stats
        )

    def capture_frame(
        self, label_values, *, ignore_attrs=None, max_nodes=None, stats=None
    ):
        return self._graph_delegate.capture_frame(
            label_values,
            ignore_attrs=ignore_attrs,
            max_nodes=max_nodes,
            stats=stats,
        )

    def diff(self, a, b, *, stats=None):
        return self._graph_delegate.diff(a, b, stats=stats)

    def checkpoint(
        self, *roots, ignore_attrs=None, max_objects=None, stats=None
    ):
        # Roots are implicit: the write barrier routes every attribute
        # write on barriered classes into the active log, whatever object
        # it lands on.  Cost at checkpoint time is therefore zero.
        if stats is not None:
            stats.captures += 1
        log = UndoLog()
        log.__enter__()
        return log

    def restore(self, cp: UndoLog) -> None:
        try:
            cp.rollback()
        finally:
            cp.__exit__(None, None, None)

    def commit(self, cp: UndoLog) -> None:
        # Exiting absorbs the log into any enclosing active log, keeping
        # nested-region rollback sound (see UndoLog.__exit__).
        cp.__exit__(None, None, None)

    def checkpoint_size(self, cp: UndoLog) -> int:
        return 0  # nothing is copied up front — that is the point

    def rollback_size(self, cp: UndoLog) -> int:
        return cp.recorded_writes


#: Singleton registry; backends are stateless so sharing instances is safe.
BACKENDS: Dict[str, StateBackend] = {
    backend.name: backend
    for backend in (GraphBackend(), FingerprintBackend(), UndoLogBackend())
}

#: The backends a detection campaign may use for before/after comparison.
#: (The undo-log backend is a *masking* strategy: it has no cheap summary
#: representation, so offering it on ``detect`` would silently run graph.)
DETECTION_BACKENDS: Tuple[str, ...] = ("graph", "fingerprint")


def get_backend(which: Union[str, StateBackend, None]) -> StateBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` resolves to the graph backend — the reference semantics.
    """
    if which is None:
        return BACKENDS["graph"]
    if isinstance(which, StateBackend):
        return which
    try:
        return BACKENDS[which]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(
            f"unknown state backend {which!r} (known: {known})"
        ) from None
