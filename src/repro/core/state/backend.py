"""The :class:`StateBackend` protocol and its two implementations.

Detection compares the state a call leaves behind with the state it
found (Definition 2).  A backend packages one way of doing that in three
verbs: *capture_frame* summarizes labeled roots, *diff* compares two
summaries, and *diff_live* compares a summary with the same roots as
they are now (by default it captures them and diffs the two summaries).

``GraphBackend``
    Full materialized :class:`ObjectGraph` snapshots compared by rooted
    isomorphism.  The reference implementation every other backend must
    agree with.  Its *diff_live* walks the live objects against the
    before-graph, so the after-state is never materialized.

``FingerprintBackend``
    The fast path: state summaries are 128-bit structural digests
    computed in one traversal, so "did the state change?" is a 16-byte
    compare.  Its :meth:`~StateBackend.diff` is *lossy* — it knows the
    state changed but not where; callers wanting diagnostics fall back
    to a graph-backend re-run (see
    :func:`repro.core.detector.run_injection_point`).

Checkpointing and rollback (Listing 2) are the masking phase's job: see
the checkpoint strategies of :mod:`repro.core.masking`.

Backends are selected *by name* everywhere user-facing (CLI flags,
fragment headers, service configs) so the choice is picklable and
survives ``--resume``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from . import fingerprint as _fingerprint
from . import graph as _graph

__all__ = [
    "StateBackend",
    "GraphBackend",
    "FingerprintBackend",
    "StateStats",
    "BACKENDS",
    "get_backend",
]


@dataclass
class StateStats:
    """Counters for where a campaign's state-machinery time goes.

    Accumulated by every consumer that holds a backend (campaigns, the
    trace pass) and surfaced through
    :class:`~repro.core.telemetry.CampaignTelemetry` so ``repro detect``
    can show the capture/compare split before and after a backend swap.
    """

    captures: int = 0  #: full graph captures
    fingerprints: int = 0  #: one-pass digest computations
    compares: int = 0  #: state comparisons (graph diff or digest equality)
    seconds: float = 0.0  #: cumulative wall time inside the state layer


class StateBackend:
    """One way to summarize state and compare summaries.

    All methods accept/return the backend's *own* summary type — callers
    treat summaries as opaque values and only ever hand them back to the
    same backend.
    """

    #: registry name; also what fragment headers and CLI flags carry.
    name: str = "abstract"
    #: True when :meth:`diff` cannot localize a difference (digest-only).
    lossy_diff: bool = False

    def capture_frame(
        self,
        label_values: Iterable[Tuple[Any, Any]],
        *,
        stats: Optional[StateStats] = None,
    ) -> Any:
        """Summarize several labeled roots under one synthetic frame."""
        raise NotImplementedError

    def diff(
        self, a: Any, b: Any, *, stats: Optional[StateStats] = None
    ) -> Optional[_graph.GraphDifference]:
        """First difference between two summaries, or None when equal."""
        raise NotImplementedError

    def diff_live(
        self,
        before: Any,
        label_values: Iterable[Tuple[Any, Any]],
        *,
        stats: Optional[StateStats] = None,
    ) -> Optional[_graph.GraphDifference]:
        """First difference between the frame summary *before* and the
        live state of the same labeled roots, or None when equal.

        The default captures the after-state and diffs the two summaries.
        """
        after = self.capture_frame(label_values, stats=stats)
        return self.diff(before, after, stats=stats)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class GraphBackend(StateBackend):
    """Full object-graph snapshots compared by rooted isomorphism."""

    name = "graph"

    def capture_frame(self, label_values, *, stats=None):
        started = time.perf_counter()
        try:
            return _graph.capture_frame(label_values)
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

    def diff_live(self, before, label_values, *, stats=None):
        started = time.perf_counter()
        try:
            return _graph.graph_diff_live(before, label_values)
        finally:
            if stats is not None:
                stats.compares += 1
                stats.seconds += time.perf_counter() - started


class FingerprintBackend(StateBackend):
    """Digest summaries: equality is a 16-byte compare, diffs are lossy."""

    name = "fingerprint"
    lossy_diff = True

    def capture_frame(self, label_values, *, stats=None):
        started = time.perf_counter()
        try:
            return _fingerprint.fingerprint_frame(label_values)
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


#: The detection registry; backends are stateless so sharing instances
#: is safe.
BACKENDS: Dict[str, StateBackend] = {
    backend.name: backend for backend in (GraphBackend(), FingerprintBackend())
}


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
