"""Digest-keyed campaign result cache, with crash-safe disk persistence.

A detection campaign is a pure function of ``(subject source, campaign
config)``: the profiling run is deterministic and the plan, the sweep
and the classification all derive from it.  That makes whole campaign
results content-addressable — the same trick PR 7's
:class:`~repro.core.state.FingerprintCache` plays per-frame, lifted to
whole campaigns.  The service keys its cache on a 128-bit BLAKE2b digest
of the submitted source plus the *canonicalized* config (defaults
filled, keys sorted), so two submissions that mean the same campaign hit
the same entry even when they spell the config differently.

Passing ``path=`` adds a persistence layer: every ``put`` appends one
``{"kind": "entry", "digest": ..., "payload": ...}`` line to an
append-only JSONL journal (fsync'd, same crash-safe format as the
campaign's shard fragments), and a fresh cache replays the journal on
construction — so a restarted ``repro serve`` answers repeat
submissions with **zero** subject executions.  The replay reuses the
torn-tail reader of the shard fragments
(:func:`~repro.experiments.parallel.scan_jsonl`): a server killed
mid-append leaves a partial final line that is dropped *and* durably
truncated, so the next append starts on a fresh line.  A failed append
(disk full, injected chaos fault) degrades the cache to in-memory for
that entry instead of failing the campaign; the failure is counted in
``persist_errors``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional

from repro.resilience.chaos import fire as _fault_site

__all__ = ["ResultCache", "submission_digest"]

#: Cache journal schema version; bump when the line format changes.
CACHE_JOURNAL_VERSION = 1


def submission_digest(source: str, config: Mapping[str, Any]) -> str:
    """The cache key of one submission: BLAKE2b-128 over source + config.

    *config* must already be canonical (see
    :func:`repro.service.subjects.canonical_config`); it is serialized
    with sorted keys and compact separators so the digest is independent
    of dict ordering and whitespace.
    """
    canonical = json.dumps(
        dict(config), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.blake2b(digest_size=16)
    digest.update(source.encode("utf-8"))
    digest.update(b"\x00")  # unambiguous source/config boundary
    digest.update(canonical.encode("utf-8"))
    return digest.hexdigest()


class ResultCache:
    """Bounded LRU of finished campaign payloads, keyed by digest.

    Thread-safe: the service worker inserts from its executor thread
    while the asyncio handlers look up from the event loop.  Counters
    mirror the fingerprint cache's hit/miss telemetry and feed the
    ``result_cache_hits``/``result_cache_misses`` fields of
    :class:`~repro.core.telemetry.CampaignTelemetry`.

    With ``path=`` the cache is persistent: entries are journaled to
    disk as they are inserted and replayed on construction (see the
    module docstring).  ``persist_hits`` counts lookups answered by an
    entry that survived a restart — the ``cache_persist_hits``
    telemetry field.
    """

    def __init__(self, capacity: int = 128, path: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.path = path
        self.hits = 0
        self.misses = 0
        self.persist_hits = 0
        self.persist_errors = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: Digests replayed from the journal (vs inserted this process).
        self._persisted: set = set()
        if path is not None:
            self._replay()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Look up a finished campaign; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if key in self._persisted:
                self.persist_hits += 1
            return entry

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Look up without touching the counters or the LRU order."""
        with self._lock:
            return self._entries.get(key)

    def is_persisted(self, key: str) -> bool:
        """True when *key*'s entry was replayed from the disk journal
        (i.e. it survived a restart rather than being computed here)."""
        with self._lock:
            return key in self._persisted

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            self._persisted.discard(key)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._persisted.discard(evicted)
            if self.path is not None:
                self._append(key, payload)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            out = {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }
            if self.path is not None:
                out["persisted_entries"] = len(self._persisted)
                out["persist_hits"] = self.persist_hits
                out["persist_errors"] = self.persist_errors
            return out

    # -- persistence -------------------------------------------------

    def _append(self, key: str, payload: Dict[str, Any]) -> None:
        """Journal one entry; a write failure degrades to in-memory.

        Called with the lock held.  The campaign already ran — losing
        the durable copy must not lose the result, so every ``OSError``
        (a full disk, an injected chaos fault) is absorbed and counted.
        """
        line = json.dumps(
            {"kind": "entry", "digest": key, "payload": payload},
            sort_keys=True,
        )
        try:
            _fault_site("cache.persist", self.path)
            fresh = not os.path.exists(self.path)
            with open(self.path, "a", encoding="utf-8") as handle:
                if fresh:
                    handle.write(
                        json.dumps(
                            {
                                "kind": "header",
                                "format": "result-cache",
                                "version": CACHE_JOURNAL_VERSION,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            self.persist_errors += 1

    def _replay(self) -> None:
        """Load the journal written by a previous process, repairing a
        torn tail durably (truncate back to the last complete line)."""
        from repro.experiments.parallel import repair_jsonl_tail, scan_jsonl

        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        if not data:
            return
        entries, valid_end = scan_jsonl(data)
        try:
            repair_jsonl_tail(self.path, data, valid_end)
        except OSError:
            self.persist_errors += 1
        for entry in entries:
            if entry.get("kind") != "entry":
                continue  # header (and future line kinds) skipped
            digest = entry.get("digest")
            payload = entry.get("payload")
            if not isinstance(digest, str) or not isinstance(payload, dict):
                continue
            # Later lines win (a re-run overwrote the entry), and the
            # LRU capacity applies to the replay exactly like to puts.
            self._entries[digest] = payload
            self._entries.move_to_end(digest)
            self._persisted.add(digest)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._persisted.discard(evicted)
