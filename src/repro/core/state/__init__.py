"""The state layer: one subsystem for all reachable-state concerns.

Everything the pipeline does with object state — materialize it
(Definition 1), compare it (Definition 2), summarize it, checkpoint it,
and roll it back (Listing 2's ``deep_copy``/``replace``) — lives here.
Detection compares states through the :class:`StateBackend` protocol,
selecting a backend by name (``graph`` or ``fingerprint``).  The
checkpoints here are eager copies; the masking phase
(:mod:`repro.core.masking`) chooses between them and the undo log of
:mod:`repro.core.cow`.  The package imports nothing else from
:mod:`repro.core`.

Submodules:

* :mod:`~repro.core.state.introspect` — shared type introspection and the
  canonical child-ordering every backend agrees on.
* :mod:`~repro.core.state.graph` — materialized object graphs and
  rooted-isomorphism comparison, against another graph or the live
  objects.
* :mod:`~repro.core.state.checkpoint` — eager in-place checkpoints.
* :mod:`~repro.core.state.fingerprint` — one-pass 128-bit structural
  digests, the fast path for "did the state change?".
* :mod:`~repro.core.state.backend` — the detection protocol and its two
  implementations.
"""

from __future__ import annotations

from .backend import (
    BACKENDS,
    FingerprintBackend,
    GraphBackend,
    StateBackend,
    StateStats,
    get_backend,
)
from .checkpoint import (
    Checkpoint,
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
    GraphDifference,
    GraphNode,
    ObjectGraph,
    capture,
    capture_frame,
    graph_diff,
    graph_diff_all,
    graph_diff_live,
    graphs_equal,
)
from .introspect import (
    SCALAR_TYPES,
    default_ignore,
    is_opaque,
    is_scalar,
    kind_of,
    list_children,
    slot_names,
    type_info,
)

__all__ = [
    # backend protocol
    "StateBackend",
    "GraphBackend",
    "FingerprintBackend",
    "StateStats",
    "BACKENDS",
    "get_backend",
    # graph
    "GraphNode",
    "ObjectGraph",
    "capture",
    "capture_frame",
    "graphs_equal",
    "graph_diff",
    "graph_diff_all",
    "graph_diff_live",
    "GraphDifference",
    # fingerprint
    "StateFingerprint",
    "fingerprint",
    "fingerprint_frame",
    "DIGEST_BITS",
    # checkpoint
    "Checkpoint",
    "RestoreError",
    "checkpoint",
    "restore",
    # introspection
    "SCALAR_TYPES",
    "is_scalar",
    "is_opaque",
    "slot_names",
    "list_children",
    "type_info",
    "kind_of",
    "default_ignore",
]
