"""Object graphs and structural graph comparison (paper Definitions 1–2).

This module implements Definition 1 of the paper: an *object graph* is a
graph whose nodes are objects or instances of basic data types, where the
values of instance variables appear as labeled children, and where aliasing
is preserved — two references to the same object share a single node.

An :class:`ObjectGraph` is a fully materialized snapshot: it holds no
references to the live objects it was captured from, so it doubles as the
``deep_copy`` used by the paper's injection wrappers (Listing 1).  Failure
atomicity of a method is judged by comparing the graph captured before the
call with the state when an exception propagates out (Definition 2).  The
comparison is a rooted isomorphism check that respects edge labels, node
types, scalar values, and sharing structure.  One walker implements it,
reading its second side either from another graph (:func:`graph_diff`,
:func:`graphs_equal`) or straight from the live objects
(:func:`graph_diff_live`), so the after-state need not be materialized.

Type introspection and the canonical child ordering live in
:mod:`repro.core.state.introspect`, shared with the fingerprint and
checkpoint backends so that all three agree on what "the reachable state"
is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .introspect import (
    KIND_BYTEARRAY,
    KIND_DEQUE,
    KIND_DICT,
    KIND_FRAME,
    KIND_FROZENSET,
    KIND_LIST,
    KIND_OBJECT,
    KIND_OPAQUE,
    KIND_SCALAR,
    KIND_SET,
    KIND_TUPLE,
    SCALAR_TYPES,
    is_opaque,
    is_scalar,
    iter_children,
    kind_of,
    opaque_token,
    safe_repr,
    type_name,
)

__all__ = [
    "GraphNode",
    "ObjectGraph",
    "capture",
    "capture_frame",
    "graphs_equal",
    "graph_diff",
    "graph_diff_all",
    "graph_diff_live",
    "GraphDifference",
    "SCALAR_TYPES",
    "is_scalar",
    "is_opaque",
]


@dataclass
class GraphNode:
    """A single node of an :class:`ObjectGraph`.

    Attributes:
        kind: one of the ``KIND_*`` tags (scalar, object, list, ...).
        type_name: qualified name of the runtime type of the value.
        value: the scalar value for ``scalar`` nodes, an identity token for
            ``opaque`` nodes, and ``None`` otherwise.
        edges: labeled edges to child node ids.  Labels are small tuples
            such as ``("attr", name)``, ``("index", i)``, ``("key", k)``.
    """

    kind: str
    type_name: str
    value: Any = None
    edges: List[Tuple[Tuple[str, Any], int]] = field(default_factory=list)


class ObjectGraph:
    """A materialized snapshot of the state reachable from a root object.

    The graph owns its nodes; it never references the live objects it was
    captured from.  Node 0 is always the root.
    """

    __slots__ = ("nodes", "root")

    def __init__(self) -> None:
        self.nodes: List[GraphNode] = []
        self.root: int = 0

    def add_node(self, node: GraphNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def node(self, node_id: int) -> GraphNode:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectGraph):
            return NotImplemented
        return graphs_equal(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # ObjectGraphs are mutable snapshots; keep them unhashable like lists.
    __hash__ = None  # type: ignore[assignment]

    def size(self) -> int:
        """Number of nodes in the graph."""
        return len(self.nodes)

    def describe(self, node_id: Optional[int] = None, depth: int = 2) -> str:
        """Human-readable sketch of the graph (for diagnostics)."""
        node_id = self.root if node_id is None else node_id
        lines: List[str] = []
        self._describe(node_id, depth, "", lines, set())
        return "\n".join(lines)

    def _describe(
        self,
        node_id: int,
        depth: int,
        indent: str,
        lines: List[str],
        seen: set,
    ) -> None:
        node = self.nodes[node_id]
        tag = f"{indent}#{node_id} {node.kind}:{node.type_name}"
        if node.kind == KIND_SCALAR:
            tag += f" = {node.value!r}"
        lines.append(tag)
        if node_id in seen or depth <= 0:
            return
        seen.add(node_id)
        for label, child in node.edges:
            lines.append(f"{indent}  [{label[0]}={safe_repr(label[1])}] ->")
            self._describe(child, depth - 1, indent + "    ", lines, seen)


class _Capturer:
    """Iterative, aliasing-preserving graph capture.

    The traversal is explicit-stack based so that deep structures such as
    long linked lists do not exhaust the interpreter recursion limit.
    """

    def __init__(self) -> None:
        self._graph = ObjectGraph()
        self._seen: Dict[int, int] = {}  # id(obj) -> node id
        # Keep captured objects alive for the duration of the capture so
        # id() values stay unique.
        self._pins: List[Any] = []

    def capture(self, value: Any) -> ObjectGraph:
        self._graph.root = self._visit(value)
        return self._graph

    def capture_many(self, label_values: Iterable[Tuple[Any, Any]]) -> ObjectGraph:
        """Capture several roots under a synthetic frame node.

        *label_values* yields ``(label_key, value)`` pairs; each becomes a
        labeled edge from the frame root.  Used for capturing a receiver
        together with its mutable arguments.
        """
        frame = GraphNode(kind=KIND_FRAME, type_name="<frame>")
        root_id = self._graph.add_node(frame)
        self._graph.root = root_id
        for key, value in label_values:
            child = self._visit(value)
            frame.edges.append((("slot", key), child))
        return self._graph

    # -- traversal ---------------------------------------------------

    def _visit(self, value: Any) -> int:
        """Capture *value*, returning its node id (two-phase, iterative)."""
        pending: List[Tuple[Any, int]] = []
        node_id = self._enter(value, pending)
        while pending:
            obj, nid = pending.pop()
            self._expand(obj, nid, pending)
        return node_id

    def _enter(self, value: Any, pending: List[Tuple[Any, int]]) -> int:
        """Create (or reuse) a node for *value*; queue expansion if needed."""
        if is_scalar(value):
            # Scalars are compared by value; interning makes identity
            # meaningless, so each occurrence gets its own leaf node.
            node = GraphNode(
                kind=KIND_SCALAR, type_name=type(value).__name__, value=value
            )
            return self._graph.add_node(node)
        oid = id(value)
        if oid in self._seen:
            return self._seen[oid]
        if is_opaque(value):
            node = GraphNode(
                kind=KIND_OPAQUE,
                type_name=type(value).__name__,
                value=opaque_token(value),
            )
            nid = self._graph.add_node(node)
            self._seen[oid] = nid
            self._pins.append(value)
            return nid
        kind = kind_of(value)
        node = GraphNode(kind=kind, type_name=type_name(value))
        nid = self._graph.add_node(node)
        self._seen[oid] = nid
        self._pins.append(value)
        pending.append((value, nid))
        return nid

    def _expand(self, obj: Any, nid: int, pending: List[Tuple[Any, int]]) -> None:
        node = self._graph.nodes[nid]
        if node.kind == KIND_BYTEARRAY:
            node.value = bytes(obj)
            return
        for label, child_value in iter_children(obj, node.kind):
            child = self._enter(child_value, pending)
            node.edges.append((label, child))


def capture(value: Any) -> ObjectGraph:
    """Capture the object graph rooted at *value* (paper Definition 1).

    The returned graph is a fully materialized snapshot: mutating *value*
    afterwards does not affect it, which is what lets the injection wrapper
    use it as the ``deep_copy`` of Listing 1.  Everything reachable is
    captured ("there is no upper bound on the size of objects", §6.2),
    except the instrumentation's own ``_repro_*`` attributes.
    """
    return _Capturer().capture(value)


def capture_frame(label_values: Iterable[Tuple[Any, Any]]) -> ObjectGraph:
    """Capture several labeled roots under one synthetic frame node.

    Used to snapshot a receiver together with its mutable arguments (the
    paper includes "arguments passed in as non-constant references" in the
    injection wrapper's copy).
    """
    return _Capturer().capture_many(label_values)


@dataclass
class GraphDifference:
    """First structural difference found between two graphs."""

    path: str
    reason: str

    def __str__(self) -> str:
        return f"at {self.path or '<root>'}: {self.reason}"


def graphs_equal(a: ObjectGraph, b: ObjectGraph) -> bool:
    """True if the two graphs are structurally identical.

    Equality is rooted isomorphism: same node kinds, types, scalar values,
    edge labels, and — crucially — the same *sharing* structure.  A method
    that replaces a shared child with an equal-valued private copy changes
    the graph and is therefore failure non-atomic under Definition 2.
    """
    return graph_diff(a, b) is None


def graph_diff(a: ObjectGraph, b: ObjectGraph) -> Optional[GraphDifference]:
    """Return the first difference between graphs, or None if equal."""
    differences = graph_diff_all(a, b, limit=1)
    return differences[0] if differences else None


def graph_diff_live(
    before: ObjectGraph, label_values: Iterable[Tuple[Any, Any]]
) -> Optional[GraphDifference]:
    """First difference between *before* and the live state of several
    labeled roots, or None if equal.

    Returns exactly what ``graph_diff(before, capture_frame(label_values))``
    returns, but reads the after side straight from the live objects, so
    no after-graph is ever built (Definition 2 needs only the graph
    *before* the call).  The walk stops at the first difference.
    """
    view = _LiveView(label_values)
    differences = _diff_walk(before, view, 1)
    return differences[0] if differences else None


def graph_diff_all(
    a: ObjectGraph, b: ObjectGraph, *, limit: int = 10
) -> List[GraphDifference]:
    """Collect up to *limit* structural differences between two graphs.

    Unlike :func:`graph_diff`, traversal continues past a mismatching
    subtree (the mismatching pair is simply not descended into), so the
    report shows every independently corrupted region — useful when
    deciding whether a non-atomic method has one defect or several.
    """
    return _diff_walk(a, _GraphView(b), limit)


class _GraphView:
    """The after side of a diff, read from a materialized graph.

    A view answers three questions about a handle (here a node id): its
    sharing key (None for a scalar leaf, which is never shared), its
    ``(kind, type_name, value)``, and its labeled edges.
    """

    __slots__ = ("_nodes", "root")

    def __init__(self, graph: ObjectGraph) -> None:
        self._nodes = graph.nodes
        self.root: Any = graph.root

    def key(self, node_id: int) -> Optional[int]:
        return None if self._nodes[node_id].kind == KIND_SCALAR else node_id

    def describe(self, node_id: int) -> Tuple[str, str, Any]:
        node = self._nodes[node_id]
        return node.kind, node.type_name, node.value

    def edges(self, node_id: int, kind: str) -> List[Tuple[Tuple[str, Any], Any]]:
        return self._nodes[node_id].edges


class _LiveView:
    """The after side of a diff, read from live objects.

    Each object reads exactly as :class:`_Capturer` would record it, and
    a handle is the object itself.  The root is a synthetic frame whose
    ``("slot", key)`` edges lead to the labeled roots; sharing is keyed
    by ``id()``, which stays unique because the walk keeps every object
    it maps alive until it ends.
    """

    __slots__ = ("root", "_frame_edges")

    def __init__(self, label_values: Iterable[Tuple[Any, Any]]) -> None:
        self.root: Any = object()
        self._frame_edges = [(("slot", key), value) for key, value in label_values]

    def key(self, obj: Any) -> Optional[int]:
        return None if isinstance(obj, SCALAR_TYPES) else id(obj)

    def describe(self, obj: Any) -> Tuple[str, str, Any]:
        if isinstance(obj, SCALAR_TYPES):  # is_scalar, inlined: the hot case
            return KIND_SCALAR, type(obj).__name__, obj
        if obj is self.root:
            return KIND_FRAME, "<frame>", None
        if is_opaque(obj):
            return KIND_OPAQUE, type(obj).__name__, opaque_token(obj)
        kind = kind_of(obj)
        if kind == KIND_BYTEARRAY:
            return kind, type_name(obj), bytes(obj)
        return kind, type_name(obj), None

    def edges(self, obj: Any, kind: str) -> List[Tuple[Tuple[str, Any], Any]]:
        if obj is self.root:
            return self._frame_edges
        if kind in (KIND_OPAQUE, KIND_BYTEARRAY):
            return []
        return list(iter_children(obj, kind))


#: A walk position's path: ``None`` at the root, else ``(parent, label)``.
_Trail = Optional[Tuple[Any, Tuple[str, Any]]]


def _diff_walk(a: ObjectGraph, view: Any, limit: int) -> List[GraphDifference]:
    """The one diff walker: *a* against the after side that *view* reads.

    A depth-first walk keeps a bijection between *a*'s mutable node ids
    and the view's sharing keys.  A mismatching pair is not descended
    into; the walk stops once *limit* differences are collected.  Paths
    are rendered from the parent trail only when a difference is noted.
    """
    differences: List[GraphDifference] = []
    a_nodes = a.nodes
    key_of, describe, edges_of = view.key, view.describe, view.edges
    a_to_b: Dict[int, Any] = {}
    # The view's mapped sharing keys, each with its handle: holding the
    # handle keeps a live object, and so its id(), alive for the walk.
    b_mapped: Dict[Any, Any] = {}
    stack: List[Tuple[int, Any, _Trail]] = [(a.root, view.root, None)]

    def note(trail: _Trail, reason: str) -> bool:
        """Record a difference; return True when the limit is reached."""
        differences.append(GraphDifference(_trail_path(trail), reason))
        return len(differences) >= limit

    while stack:
        a_id, handle, trail = stack.pop()
        na = a_nodes[a_id]
        b_key = key_of(handle)
        if b_key is None or na.kind == KIND_SCALAR:
            reason = _scalar_reason(na, *describe(handle))
            if reason is not None and note(trail, reason):
                return differences
            continue
        mapped = a_to_b.get(a_id)
        if mapped is not None:
            if mapped != b_key and note(trail, "sharing structure differs"):
                return differences
            continue  # already compared through another path
        if b_key in b_mapped:
            if note(trail, "sharing structure differs"):
                return differences
            continue
        a_to_b[a_id] = b_key
        b_mapped[b_key] = handle
        kind, tname, value = describe(handle)
        if na.kind != kind:
            if note(trail, f"kind {na.kind} != {kind}"):
                return differences
            continue
        if na.type_name != tname:
            if note(trail, f"type {na.type_name} != {tname}"):
                return differences
            continue
        if kind in (KIND_OPAQUE, KIND_BYTEARRAY) and na.value != value:
            if note(trail, f"value {na.value!r} != {value!r}"):
                return differences
            continue
        a_edges = na.edges
        b_edges = edges_of(handle, kind)
        if len(a_edges) != len(b_edges):
            if note(trail, f"child count {len(a_edges)} != {len(b_edges)}"):
                return differences
            continue
        children = []
        for (label_a, child_a), (label_b, child_b) in zip(a_edges, b_edges):
            if label_a != label_b:
                # safe_repr: a dict-key label embeds the raw key object,
                # whose __repr__ may raise — the diff must not.
                if note(
                    trail,
                    f"edge label {safe_repr(label_a)} != {safe_repr(label_b)}",
                ):
                    return differences
                break
            children.append((child_a, child_b, (trail, label_a)))
        else:
            stack.extend(children)
    return differences


def _trail_path(trail: _Trail) -> str:
    parts: List[str] = []
    while trail is not None:
        trail, label = trail
        parts.append(f"/{label[0]}={safe_repr(label[1])}")
    parts.reverse()
    return "".join(parts)


def _scalar_reason(
    na: GraphNode, kind: str, tname: str, value: Any
) -> Optional[str]:
    if na.kind != kind:
        return f"kind {na.kind} != {kind}"
    if na.type_name != tname:
        return f"type {na.type_name} != {tname}"
    va = na.value
    # bool is an int subclass; type_name already separated them.  NaN is
    # deliberately equal to itself here: the *state* did not change.
    if va != value and not (va != va and value != value):
        return f"value {va!r} != {value!r}"
    return None
