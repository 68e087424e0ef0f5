"""The state layer: one subsystem for all reachable-state concerns.

Everything the pipeline does with object state — materialize it
(Definition 1), compare it (Definition 2), summarize it, checkpoint it,
and roll it back (Listing 2's ``deep_copy``/``replace``) — lives behind
the :class:`StateBackend` protocol defined here.  Consumers select a
backend by name (``graph``, ``fingerprint``, ``undolog``) and never touch
the underlying machinery directly.

Submodules:

* :mod:`~repro.core.state.introspect` — shared type introspection and the
  canonical child-ordering every backend agrees on.
* :mod:`~repro.core.state.graph` — materialized object graphs and
  rooted-isomorphism comparison.
* :mod:`~repro.core.state.checkpoint` — eager in-place checkpoints.
* :mod:`~repro.core.state.fingerprint` — one-pass 128-bit structural
  digests, the fast path for "did the state change?".
* :mod:`~repro.core.state.backend` — the protocol and its three
  implementations.
"""

from __future__ import annotations

from .backend import (
    BACKENDS,
    DETECTION_BACKENDS,
    FingerprintBackend,
    GraphBackend,
    StateBackend,
    StateStats,
    UndoLogBackend,
    get_backend,
)
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    RestoreError,
    checkpoint,
    restore,
)
from .fingerprint import (
    DIGEST_BITS,
    StateFingerprint,
    fingerprint,
    fingerprint_frame,
)
from .graph import (
    CaptureLimitError,
    GraphDifference,
    GraphNode,
    ObjectGraph,
    capture,
    capture_frame,
    graph_diff,
    graph_diff_all,
    graphs_equal,
)
from .introspect import (
    SCALAR_TYPES,
    default_ignore,
    is_opaque,
    is_scalar,
    iter_children,
    kind_of,
    slot_names,
)

__all__ = [
    # backend protocol
    "StateBackend",
    "GraphBackend",
    "FingerprintBackend",
    "UndoLogBackend",
    "StateStats",
    "BACKENDS",
    "DETECTION_BACKENDS",
    "get_backend",
    # graph
    "GraphNode",
    "ObjectGraph",
    "CaptureLimitError",
    "capture",
    "capture_frame",
    "graphs_equal",
    "graph_diff",
    "graph_diff_all",
    "GraphDifference",
    # fingerprint
    "StateFingerprint",
    "fingerprint",
    "fingerprint_frame",
    "DIGEST_BITS",
    # checkpoint
    "Checkpoint",
    "CheckpointError",
    "RestoreError",
    "checkpoint",
    "restore",
    # introspection
    "SCALAR_TYPES",
    "is_scalar",
    "is_opaque",
    "slot_names",
    "iter_children",
    "kind_of",
    "default_ignore",
]
