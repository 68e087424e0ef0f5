"""The child enumeration and graph capture as they were before the
classification table: the test oracle for :func:`list_children` and
:func:`capture`.

This is the generator chain that enumerated children with an
``isinstance`` test per value, and a capturer that classifies every value
with :func:`is_scalar`, :func:`is_opaque`, :func:`kind_of` and
:func:`type_name`.  It has no fast path: every shape takes the one general
code path, which makes it the reference the fast paths are held to.
"""

import collections

from repro.core.state.graph import GraphNode, ObjectGraph
from repro.core.state.introspect import (
    KIND_BYTEARRAY,
    KIND_DEQUE,
    KIND_DICT,
    KIND_FRAME,
    KIND_FROZENSET,
    KIND_LIST,
    KIND_OPAQUE,
    KIND_SCALAR,
    KIND_SET,
    KIND_TUPLE,
    default_ignore,
    is_opaque,
    is_scalar,
    kind_of,
    opaque_token,
    safe_repr,
    scalar_sort_key,
    slot_names,
    type_name,
)


def _iter_object_attrs(obj):
    attrs = {}
    obj_dict = getattr(obj, "__dict__", None)
    if isinstance(obj_dict, dict):
        attrs.update(obj_dict)
    for name in slot_names(type(obj)):
        try:
            attrs[name] = getattr(obj, name)
        except AttributeError:
            continue  # unset slot
    for name in sorted(attrs):
        if default_ignore(name):
            continue
        yield ("attr", name), attrs[name]


def _iter_dict_items(obj):
    scalar_items = []
    other_items = []
    for key, val in obj.items():
        if is_scalar(key):
            scalar_items.append((key, val))
        else:
            other_items.append((key, val))
    scalar_items.sort(key=lambda kv: scalar_sort_key(kv[0]))
    for key, val in scalar_items:
        yield ("key", (type(key).__name__, key)), val
    for position, (key, val) in enumerate(other_items):
        yield ("objkey", position), key
        yield ("objval", position), val


def _iter_set_members(obj):
    scalars = []
    others = []
    for item in obj:
        if is_scalar(item):
            scalars.append(item)
        else:
            others.append(item)
    scalars.sort(key=scalar_sort_key)
    for index, item in enumerate(scalars):
        yield ("member", index), item
    others.sort(key=lambda item: (type(item).__name__, safe_repr(item)))
    for index, item in enumerate(others):
        yield ("objmember", index), item


def iter_children(obj, kind):
    """Yield ``(label, child)`` pairs of *obj* in canonical order."""
    if kind in (KIND_LIST, KIND_TUPLE, KIND_DEQUE):
        for index, item in enumerate(obj):
            yield ("index", index), item
    elif kind == KIND_BYTEARRAY:
        return
    elif kind == KIND_DICT:
        for label, child in _iter_dict_items(obj):
            yield label, child
    elif kind in (KIND_SET, KIND_FROZENSET):
        for label, child in _iter_set_members(obj):
            yield label, child
    else:
        for label, child in _iter_object_attrs(obj):
            yield label, child
        return
    if type(obj).__module__ != "builtins" or hasattr(obj, "__dict__"):
        for label, child in _iter_object_attrs(obj):
            yield label, child
    if isinstance(obj, collections.defaultdict):
        yield ("attr", "default_factory"), obj.default_factory


class _Capturer:
    def __init__(self):
        self.graph = ObjectGraph()
        self.seen = {}
        self.pins = []

    def visit(self, value):
        pending = []
        node_id = self.enter(value, pending)
        while pending:
            obj, nid = pending.pop()
            node = self.graph.nodes[nid]
            if node.kind == KIND_BYTEARRAY:
                node.value = bytes(obj)
                continue
            for label, child_value in iter_children(obj, node.kind):
                node.edges.append((label, self.enter(child_value, pending)))
        return node_id

    def enter(self, value, pending):
        if is_scalar(value):
            return self.graph.add_node(
                GraphNode(kind=KIND_SCALAR, type_name=type(value).__name__, value=value)
            )
        oid = id(value)
        if oid in self.seen:
            return self.seen[oid]
        self.pins.append(value)
        if is_opaque(value):
            nid = self.graph.add_node(
                GraphNode(
                    kind=KIND_OPAQUE,
                    type_name=type(value).__name__,
                    value=opaque_token(value),
                )
            )
            self.seen[oid] = nid
            return nid
        nid = self.graph.add_node(GraphNode(kind=kind_of(value), type_name=type_name(value)))
        self.seen[oid] = nid
        pending.append((value, nid))
        return nid


def capture(value):
    """The graph the capturer recorded before the classification table."""
    capturer = _Capturer()
    capturer.graph.root = capturer.visit(value)
    return capturer.graph


def capture_frame(label_values):
    """:func:`capture` of several labeled roots under one frame node."""
    capturer = _Capturer()
    frame = GraphNode(kind=KIND_FRAME, type_name="<frame>")
    capturer.graph.root = capturer.graph.add_node(frame)
    for key, value in label_values:
        frame.edges.append((("slot", key), capturer.visit(value)))
    return capturer.graph


def reachable(roots):
    """Every non-leaf object reachable from *roots*, each once."""
    stack = list(roots)
    seen = {}
    while stack:
        value = stack.pop()
        if is_scalar(value) or is_opaque(value) or id(value) in seen:
            continue
        seen[id(value)] = value
        stack.extend(child for _, child in iter_children(value, kind_of(value)))
    return list(seen.values())
