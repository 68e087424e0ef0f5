"""Per-campaign fingerprint digest cache (ROADMAP item 5 hot path).

A detection sweep fingerprints the same receiver graph over and over:
every wrapped entry takes a before-capture, and most runs visit the
same handful of objects hundreds of times while mutating them rarely.
This module memoizes frame digests between mutations, with the §6.2
write barrier as the invalidation oracle:

* a :class:`_VersionSink` sits at the *bottom* of the copy-on-write
  active-log stack for the whole sweep; every barriered attribute
  write (or absorbed undo-log region) bumps one version counter;
* an entry is stored only when the fingerprint traversal proved the
  captured state *barrier-covered* (every reachable object immutable,
  opaque, or an instance of a barriered class — the same rule the
  trace pass uses in :func:`~repro.core.tracepass.recorder.
  barrier_covered`), so any later mutation of that state must cross a
  barrier and bump the version;
* a hit additionally requires that the sink is still the innermost
  barrier sink (an open undo-log region diverts events, so the cache
  stands down inside one) and that every cached root is the *same
  live object* — entries hold weakrefs and compare ``ref() is root``,
  which rules out stale hits through ``id()`` reuse after collection.

Every guard failure degrades to a plain recompute; the cache can be
wrong in no direction, only useless.  The state-backend benchmark
asserts bit-identical campaign output cached vs uncached, and the
conformance/fuzz oracles sweep with the cache enabled.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..cow import (
    _BARRIER_ATTR,
    active_log_top,
    install_write_barrier,
    pop_active_log,
    push_active_log,
    remove_write_barrier,
)

__all__ = ["FingerprintCache", "campaign_digest_cache"]

#: Entry-count bound; crossing it drops the whole table (epoch reset) —
#: cheap, and unbounded fuzz campaigns cannot grow the cache forever.
_MAX_ENTRIES = 4096


class _VersionSink:
    """Write-barrier sink that counts mutations (no undo data).

    Duck-types the active-log protocol: ``record`` receives direct
    barrier events while the sink is innermost, ``absorb`` receives the
    commit of any undo-log region opened above it.  Both only bump the
    campaign-wide version counter — over-counting is harmless (a spare
    miss), under-counting would be unsound, and absorb counts even
    rolled-back regions for exactly that reason.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: "FingerprintCache") -> None:
        self._cache = cache

    def record(self, obj: Any, name: str) -> None:
        self._cache.version += 1

    def absorb(self, child: Any) -> None:
        self._cache.version += 1


class FingerprintCache:
    """Frame-digest memo keyed on root identity, versioned by writes."""

    def __init__(self) -> None:
        self.version = 0
        self.hits = 0
        self.misses = 0
        #: Captures that could not even consult the cache because the
        #: sink was not the innermost barrier sink (open undo-log
        #: region); they recompute without storing.
        self.bypasses = 0
        self.barriered: set = set()
        self._sink = _VersionSink(self)
        # key -> (version, digest, weakrefs-to-roots)
        self._entries: Dict[Tuple, Tuple[int, Any, Tuple]] = {}
        self._installed: List[type] = []
        self._active = False

    # -- lifecycle -----------------------------------------------------

    def start(self, classes: Iterable[type]) -> None:
        """Install barriers on *classes* and arm the version sink."""
        if self._active:
            raise RuntimeError("FingerprintCache already started")
        for cls in set(classes):
            if _BARRIER_ATTR not in vars(cls):
                install_write_barrier(cls)
                self._installed.append(cls)
            self.barriered.add(cls)
        push_active_log(self._sink)
        self._active = True

    def stop(self) -> None:
        """Disarm the sink and remove the barriers this cache added."""
        if not self._active:
            return
        pop_active_log(self._sink)
        for cls in self._installed:
            remove_write_barrier(cls)
        self._installed = []
        self._active = False

    def __enter__(self) -> "FingerprintCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- capture -------------------------------------------------------

    def capture(
        self,
        backend: Any,
        roots: List[Tuple[Any, Any]],
        *,
        ignore_attrs: Optional[Callable[[str], bool]],
        max_nodes: Optional[int],
        stats: Any,
    ) -> Any:
        """Frame capture through the cache; falls back to *backend*.

        Returns exactly what ``backend.capture_frame`` would return for
        the same roots: a hit replays a digest stored for the identical
        live objects with zero barrier events in between.
        """
        if active_log_top() is not self._sink:
            self.bypasses += 1
            return backend.capture_frame(
                roots,
                ignore_attrs=ignore_attrs,
                max_nodes=max_nodes,
                stats=stats,
            )
        key = tuple((label, id(value)) for label, value in roots)
        entry = self._entries.get(key)
        if entry is not None:
            version, digest, refs = entry
            if version == self.version and all(
                ref() is value
                for ref, (_, value) in zip(refs, roots)
            ):
                self.hits += 1
                return digest
        self.misses += 1
        digest, covered = backend.capture_frame_covered(
            roots,
            ignore_attrs=ignore_attrs,
            max_nodes=max_nodes,
            stats=stats,
            barriered=self.barriered,
        )
        if covered:
            try:
                refs = tuple(
                    weakref.ref(value) for _, value in roots
                )
            except TypeError:
                pass  # non-weakrefable root: stays uncacheable
            else:
                if len(self._entries) >= _MAX_ENTRIES:
                    self._entries.clear()
                self._entries[key] = (self.version, digest, refs)
        return digest


@contextlib.contextmanager
def campaign_digest_cache(
    campaign: Any, classes: Iterable[type], *, enabled: bool = True
):
    """Memoize *campaign*'s frame digests for the ``with`` block.

    Installs a :class:`FingerprintCache` with write barriers on the woven
    *classes* when *enabled*, the campaign has none yet, and its backend
    supports one; yields it (or ``None``) and removes it on exit.  Any
    attribute write to a woven class invalidates, so a cached digest is
    always the one the backend would recompute (bit-identical output).
    """
    classes = set(classes)
    if not (
        enabled
        and classes
        and campaign.digest_cache is None
        and getattr(campaign.backend, "supports_digest_cache", False)
    ):
        yield None
        return
    cache = FingerprintCache()
    cache.start(classes)
    campaign.digest_cache = cache
    try:
        yield cache
    finally:
        campaign.digest_cache = None
        cache.stop()
