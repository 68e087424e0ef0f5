"""Shared type introspection for every state backend.

The state layer has three ways of materializing "the state reachable from
an object" — the full :mod:`graph <repro.core.state.graph>` snapshot, the
in-place :mod:`checkpoint <repro.core.state.checkpoint>`, and the
:mod:`fingerprint <repro.core.state.fingerprint>` digest.  All three must
agree *exactly* on the questions answered here:

* which values are scalars (leaf nodes compared by value),
* which values are opaque (classes, functions, modules — identity leaves),
* which ``__slots__`` an instance carries,
* what kind a container is, and
* in what canonical order a value's children are visited.

Before this module existed those answers were private helpers inside
``objgraph.py`` that ``snapshot.py`` reached into (``_slot_names``); they
are now public API so no backend needs an underscore import.  The child
order of :func:`list_children` is the single source of truth: the
fingerprint of a value equals the fingerprint of another value if and
only if their captured object graphs are equal, *because* both traversals
share this code.

Every per-type answer is a function of the exact runtime type, so
:func:`type_info` computes them once per type, with the ``isinstance``
tests below, and memoizes them in a bounded table.  :func:`list_children`
builds a value's children as one list, taking a fast path for the shapes
that dominate real state (exact sequences, plain and slots-only
instances, dicts keyed by exact scalars) and the general code for every
other shape; both give the same list.

The checkpoint does not use :func:`list_children`: it reads each
object's children from the shallow copies it saves, in one pass per
object, and needs no canonical order.  It must still reach the same
objects (``default_factory`` and the attributes of container subclasses
included), or a restore would leave captured state changed;
``tests/core/state/test_checkpoint_roundtrip.py`` checks that a restore
returns random graphs to the state a capture recorded.
"""

from __future__ import annotations

import collections as _collections
import operator as _operator
import types as _types
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SCALAR_TYPES",
    "KIND_SCALAR",
    "KIND_OBJECT",
    "KIND_LIST",
    "KIND_TUPLE",
    "KIND_DICT",
    "KIND_SET",
    "KIND_FROZENSET",
    "KIND_BYTEARRAY",
    "KIND_DEQUE",
    "KIND_OPAQUE",
    "KIND_FRAME",
    "is_scalar",
    "is_opaque",
    "call_roots",
    "slot_names",
    "type_name",
    "opaque_token",
    "safe_repr",
    "scalar_sort_key",
    "default_ignore",
    "kind_of",
    "CAT_SCALAR",
    "CAT_OPAQUE",
    "CAT_NODE",
    "type_info",
    "list_children",
]


#: Types treated as *basic data types* (leaf nodes compared by value).
SCALAR_TYPES = (
    type(None),
    bool,
    int,
    float,
    complex,
    str,
    bytes,
)

#: Kind tags shared by graph nodes and fingerprint records.
KIND_SCALAR = "scalar"
KIND_OBJECT = "object"
KIND_LIST = "list"
KIND_TUPLE = "tuple"
KIND_DICT = "dict"
KIND_SET = "set"
KIND_FROZENSET = "frozenset"
KIND_BYTEARRAY = "bytearray"
KIND_DEQUE = "deque"
KIND_OPAQUE = "opaque"
KIND_FRAME = "frame"

#: isinstance-ordered container dispatch: subclasses of the builtin
#: containers (OrderedDict, defaultdict, user list subclasses, ...) are
#: captured as their container kind *plus* any instance attributes they
#: carry.  bool-before-int style pitfalls do not arise here because the
#: builtin container types are disjoint.
_CONTAINER_DISPATCH = (
    (list, KIND_LIST),
    (tuple, KIND_TUPLE),
    (dict, KIND_DICT),
    (set, KIND_SET),
    (frozenset, KIND_FROZENSET),
    (_collections.deque, KIND_DEQUE),
)

_FunctionTypes = (
    _types.FunctionType,
    _types.BuiltinFunctionType,
    _types.MethodType,
    _types.BuiltinMethodType,
    staticmethod,
    classmethod,
    property,
)


def is_scalar(value: Any) -> bool:
    """Return True if *value* is an instance of a basic data type."""
    return isinstance(value, SCALAR_TYPES)


def is_opaque(value: Any) -> bool:
    """Return True if *value* should be treated as an opaque leaf.

    Opaque values are runtime entities that are not part of an object's
    logical state: classes, functions, modules, and the like.  They are
    compared by identity and never traversed.  This mirrors the paper's
    scoping of object graphs to instance state (Section 3) and its
    external-side-effect limitation (Section 4.4).
    """
    return isinstance(value, (type, _FunctionTypes)) or isinstance(
        value, _types.ModuleType
    )


def call_roots(
    has_receiver: bool,
    args: Tuple[Any, ...],
    kwargs: Dict[str, Any],
    *,
    with_args: bool = True,
) -> List[Tuple[Any, Any]]:
    """The labeled roots of one call's state, in order: the receiver
    (``"self"``), then — with *with_args* — every non-scalar, non-opaque
    positional argument (``("arg", index)``) and keyword argument
    (``("kwarg", name)``, by sorted name).

    Listing 1's deep copy covers ``this`` plus every argument passed by
    non-constant reference, and Listing 2 checkpoints the same objects;
    detection captures these roots and masking checkpoints their values,
    so both always see the same state of a call.
    """
    roots: List[Tuple[Any, Any]] = []
    positional = args
    if has_receiver and args:
        roots.append(("self", args[0]))
        positional = args[1:]
    if with_args:
        for index, value in enumerate(positional):
            if not is_scalar(value) and not is_opaque(value):
                roots.append((("arg", index), value))
        for name in sorted(kwargs):
            value = kwargs[name]
            if not is_scalar(value) and not is_opaque(value):
                roots.append((("kwarg", name), value))
    return roots


#: ``__slots__`` are fixed at class creation, so the MRO walk caches per
#: class.  Bounded because fuzz campaigns synthesize classes freely.
_SLOT_CACHE: dict = {}
_SLOT_CACHE_MAX = 2048


def slot_names(cls: type) -> Tuple[str, ...]:
    """Collect slot names across the MRO of *cls* (cached per class)."""
    cached = _SLOT_CACHE.get(cls)
    if cached is not None:
        return cached
    names: List[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__")
        if slots is None:
            continue
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name in ("__dict__", "__weakref__"):
                continue
            names.append(name)
    result = tuple(names)
    if len(_SLOT_CACHE) < _SLOT_CACHE_MAX:
        _SLOT_CACHE[cls] = result
    return result


def type_name(value: Any) -> str:
    """Qualified name of the runtime type of *value*."""
    cls = type(value)
    module = getattr(cls, "__module__", "")
    qualname = getattr(cls, "__qualname__", cls.__name__)
    if module in ("builtins", ""):
        return qualname
    return f"{module}.{qualname}"


def opaque_token(value: Any) -> str:
    """A stable identity token for opaque leaves.

    Functions and classes are identified by qualified name rather than by
    ``id()`` so that two captures of the same program state compare equal.
    """
    name = getattr(value, "__qualname__", None) or getattr(value, "__name__", None)
    module = getattr(value, "__module__", "")
    if name is not None:
        return f"{module}:{name}"
    return f"{type(value).__name__}@?"


def safe_repr(value: Any) -> str:
    """``repr`` that never raises.

    A repr that raises must not abort a capture (the observer cannot be
    allowed to fail the experiment), so it falls back to a type tag.
    """
    try:
        return repr(value)
    except Exception:
        return f"<unreprable {type(value).__name__}>"


def scalar_sort_key(value: Any) -> Tuple[str, str]:
    """Canonical ordering key for scalar dict keys and set members.

    The repr is computed by the *base* scalar type, not the value's own
    ``__repr__``: a scalar subclass may override ``__repr__`` with one
    that raises, and ``safe_repr``'s ``<unreprable T>`` fallback would
    then collapse every instance of that type onto one key.  Colliding
    keys make the canonical sort fall back to insertion order, so two
    captures of the same set could disagree.  ``int.__repr__(value)``
    etc. read the underlying value directly and never raise.
    """
    for base in SCALAR_TYPES:
        if isinstance(value, base):
            return (type(value).__name__, base.__repr__(value))
    return (type(value).__name__, safe_repr(value))


def default_ignore(name: str) -> bool:
    """The attribute filter of every traversal: skip the
    instrumentation's own ``_repro_*`` attributes."""
    return name.startswith("_repro_")


def kind_of(value: Any) -> str:
    """Kind tag for a non-scalar, non-opaque value."""
    if isinstance(value, bytearray):
        return KIND_BYTEARRAY
    for container_type, container_kind in _CONTAINER_DISPATCH:
        if isinstance(value, container_type):
            return container_kind
    return KIND_OBJECT


#: Categories of :func:`type_info`: a scalar leaf (compared by value), an
#: opaque leaf (compared by identity token), or a node with children.
CAT_SCALAR, CAT_OPAQUE, CAT_NODE = 0, 1, 2

#: ``(category, kind, name, container_attrs, slots)``; see :func:`type_info`.
TypeInfo = Tuple[int, str, str, bool, Tuple[str, ...]]

#: ``type -> TypeInfo`` for every type seen so far.  Bounded because fuzz
#: campaigns synthesize classes freely; a type past the bound is answered
#: by the same tests, just not memoized.
_TYPE_TABLE: Dict[type, TypeInfo] = {}
_TYPE_TABLE_MAX = 4096


def type_info(value: Any) -> TypeInfo:
    """Every per-type answer the traversals need, for ``type(value)``.

    Returns ``(category, kind, name, container_attrs, slots)``:

    * *category* — :data:`CAT_SCALAR`, :data:`CAT_OPAQUE` or
      :data:`CAT_NODE` (:func:`is_scalar`, then :func:`is_opaque`);
    * *kind* — the ``KIND_*`` tag: ``KIND_SCALAR``, ``KIND_OPAQUE`` or
      :func:`kind_of`;
    * *name* — the display name a graph node carries: the type's
      ``__name__`` for a leaf, :func:`type_name` for a node;
    * *container_attrs* — whether a container kind also yields instance
      attributes (a container subclass, say);
    * *slots* — the sorted distinct :func:`slot_names`, minus the
      attributes :func:`default_ignore` hides.

    The answers are computed on the first value of each type and
    memoized, so a traversal asks its ``isinstance`` questions once per
    type instead of once per value.
    """
    tp = type(value)
    info = _TYPE_TABLE.get(tp)
    if info is not None:
        return info
    if is_scalar(value):
        info = (CAT_SCALAR, KIND_SCALAR, tp.__name__, False, ())
    elif is_opaque(value):
        info = (CAT_OPAQUE, KIND_OPAQUE, tp.__name__, False, ())
    else:
        kind = kind_of(value)
        container_attrs = kind not in (KIND_OBJECT, KIND_BYTEARRAY) and (
            tp.__module__ != "builtins" or hasattr(value, "__dict__")
        )
        slots = sorted({name for name in slot_names(tp) if not default_ignore(name)})
        info = (CAT_NODE, kind, type_name(value), container_attrs, tuple(slots))
    if len(_TYPE_TABLE) < _TYPE_TABLE_MAX:
        _TYPE_TABLE[tp] = info
    return info


#: ``("index", i)`` labels, grown on demand up to ``_INDEX_LABELS_MAX``;
#: a longer sequence builds all its labels afresh.
_INDEX_LABELS: List[Tuple[str, int]] = []
_INDEX_LABELS_MAX = 4096

#: ``name -> ("attr", name)`` for exact-``str`` attribute names.
_ATTR_LABELS: Dict[str, Tuple[str, str]] = {}
_ATTR_LABELS_MAX = 8192

#: Exact scalar types, whose ``repr`` is :func:`scalar_sort_key`'s.
_SCALAR_EXACT = frozenset(SCALAR_TYPES)
_TYPE_NAME_OF = _operator.attrgetter("__class__.__name__")
_deque = _collections.deque


def _attr_label(name: Any) -> Tuple[str, Any]:
    if type(name) is not str:  # a cached label would carry an equal str
        return ("attr", name)
    label = _ATTR_LABELS.get(name)
    if label is None:
        label = ("attr", name)
        if len(_ATTR_LABELS) < _ATTR_LABELS_MAX:
            _ATTR_LABELS[name] = label
    return label


def _indexed(sequence: Any) -> List[Tuple[Tuple[str, int], Any]]:
    size = len(sequence)
    if size > len(_INDEX_LABELS):
        if size > _INDEX_LABELS_MAX:
            return [(("index", index), item) for index, item in enumerate(sequence)]
        _INDEX_LABELS.extend(("index", index) for index in range(len(_INDEX_LABELS), size))
    return list(zip(_INDEX_LABELS, sequence))


def _plain_attrs(obj_dict: dict) -> List[Tuple[Tuple[str, Any], Any]]:
    children = []
    for name in sorted(obj_dict):
        label = _ATTR_LABELS.get(name) if type(name) is str else None
        if label is None:
            if default_ignore(name):
                continue
            label = _attr_label(name)
        children.append((label, obj_dict[name]))
    return children


def _slot_attrs(obj: Any, slots: Tuple[str, ...]) -> List[Tuple[Tuple[str, Any], Any]]:
    children = []
    for name in slots:
        try:
            value = getattr(obj, name)
        except AttributeError:
            continue  # unset slot
        children.append((_attr_label(name), value))
    return children


def _object_attrs(obj: Any, obj_dict: Any) -> List[Tuple[Tuple[str, Any], Any]]:
    attrs = {}
    if isinstance(obj_dict, dict):
        attrs.update(obj_dict)
    for name in slot_names(type(obj)):
        try:
            attrs[name] = getattr(obj, name)
        except AttributeError:
            continue  # unset slot
    return [
        (("attr", name), attrs[name]) for name in sorted(attrs) if not default_ignore(name)
    ]


def _dict_items(obj: dict) -> List[Tuple[Tuple[str, Any], Any]]:
    scalar_items = []
    other_items = []
    for key, val in obj.items():
        if is_scalar(key):
            scalar_items.append((key, val))
        else:
            other_items.append((key, val))
    # Scalar-keyed entries are labeled by key value and sorted so that
    # insertion order does not affect state equality: the *mapping* is
    # the state, not the ordering bookkeeping.
    scalar_items.sort(key=lambda kv: scalar_sort_key(kv[0]))
    children = [(("key", (type(key).__name__, key)), val) for key, val in scalar_items]
    for position, (key, val) in enumerate(other_items):
        children.append((("objkey", position), key))
        children.append((("objval", position), val))
    return children


def _exact_scalar_items(obj: dict, key_types: set) -> List[Tuple[Tuple[str, Any], Any]]:
    # For an exact scalar type, (type name, repr) *is* scalar_sort_key;
    # two stable C-keyed sorts order by it, ties in insertion order.
    keys = sorted(obj, key=repr)
    if len(key_types) > 1:
        keys.sort(key=_TYPE_NAME_OF)
    return [(("key", (type(key).__name__, key)), obj[key]) for key in keys]


def _set_members(obj: Any) -> List[Tuple[Tuple[str, Any], Any]]:
    scalars = []
    others = []
    for item in obj:
        if is_scalar(item):
            scalars.append(item)
        else:
            others.append(item)
    scalars.sort(key=scalar_sort_key)
    children = [(("member", index), item) for index, item in enumerate(scalars)]
    # Non-scalar set members are canonicalized by repr: set elements must
    # be hashable, which in practice means they expose a stable textual
    # identity.  This is a documented approximation.
    others.sort(key=lambda item: (type(item).__name__, safe_repr(item)))
    children.extend((("objmember", index), item) for index, item in enumerate(others))
    return children


def list_children(
    obj: Any, info: Optional[TypeInfo] = None
) -> List[Tuple[Tuple[str, Any], Any]]:
    """The ``(label, child)`` pairs of *obj*, in canonical order.

    This is the one ordering every backend shares: labeled edges exactly
    as an :class:`~repro.core.state.graph.ObjectGraph` node would carry
    them.  *info* is ``type_info(obj)``, looked up when not given.  An
    instance yields its ``__dict__`` and slot attributes in name order;
    a sequence its items; a dict its scalar keys' values in
    :func:`scalar_sort_key` order, then each other key and its value; a
    set its scalar members, then the others.  Container *subclasses*
    additionally yield their instance attributes, and ``defaultdict``
    its ``default_factory``.  Leaves and ``KIND_BYTEARRAY`` values (whose
    payload is ``bytes(obj)``) have no children.
    """
    tp = type(obj)
    if tp is list or tp is tuple or tp is _deque:
        return _indexed(obj)
    if info is None:
        info = type_info(obj)
    kind = info[1]
    if kind == KIND_OBJECT:
        obj_dict = getattr(obj, "__dict__", None)
        slots = info[4]
        if not slots:
            if type(obj_dict) is dict:
                return _plain_attrs(obj_dict)
        elif obj_dict is None:
            return _slot_attrs(obj, slots)
        return _object_attrs(obj, obj_dict)
    if kind == KIND_DICT:
        if tp is dict:
            key_types = set(map(type, obj))
            if key_types <= _SCALAR_EXACT:
                return _exact_scalar_items(obj, key_types)
        children = _dict_items(obj)
    elif kind in (KIND_LIST, KIND_TUPLE, KIND_DEQUE):
        children = [(("index", index), item) for index, item in enumerate(obj)]
    elif kind in (KIND_SET, KIND_FROZENSET):
        children = _set_members(obj)
    else:
        return []
    if info[3]:
        children.extend(_object_attrs(obj, getattr(obj, "__dict__", None)))
    if isinstance(obj, _collections.defaultdict):
        children.append((("attr", "default_factory"), obj.default_factory))
    return children
