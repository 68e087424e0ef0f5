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
iteration order in :func:`iter_children` is the single source of truth:
the fingerprint of a value equals the fingerprint of another value if and
only if their captured object graphs are equal, *because* both traversals
share this code.

The checkpoint does not use :func:`iter_children`: it reads each
object's children from the shallow copies it saves, in one pass per
object, and needs no canonical order.  It must still reach the same
objects (``default_factory`` and the attributes of container subclasses
included), or a restore would leave captured state changed;
``tests/core/state/test_checkpoint_roundtrip.py`` checks that a restore
returns random graphs to the state a capture recorded.
"""

from __future__ import annotations

import collections as _collections
import types as _types
from typing import Any, Callable, Iterator, List, Tuple

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
    "CaptureLimitError",
    "is_scalar",
    "is_opaque",
    "slot_names",
    "type_name",
    "opaque_token",
    "safe_repr",
    "scalar_sort_key",
    "default_ignore",
    "kind_of",
    "iter_children",
]


class CaptureLimitError(RuntimeError):
    """The reachable state exceeded the configured node budget.

    Capturing an unexpectedly huge reachable state (the paper notes
    "there is no upper bound on the size of objects", Section 6.2) is
    usually a sign the wrong class was instrumented; the optional
    ``max_nodes`` budget turns a silent multi-second stall into an
    explicit error.  Raised by graph captures and fingerprints alike, so
    the campaign's no-partial-state guarantee holds under every backend.
    """


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
    """Default attribute filter: skip instrumentation-internal attributes."""
    return name.startswith("_repro_")


def kind_of(value: Any) -> str:
    """Kind tag for a non-scalar, non-opaque value."""
    if isinstance(value, bytearray):
        return KIND_BYTEARRAY
    for container_type, container_kind in _CONTAINER_DISPATCH:
        if isinstance(value, container_type):
            return container_kind
    return KIND_OBJECT


def _iter_object_attrs(
    obj: Any, ignore_attrs: Callable[[str], bool]
) -> Iterator[Tuple[Tuple[str, Any], Any]]:
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
        if ignore_attrs(name):
            continue
        yield ("attr", name), attrs[name]


def _iter_dict_items(obj: dict) -> Iterator[Tuple[Tuple[str, Any], Any]]:
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
    for key, val in scalar_items:
        yield ("key", (type(key).__name__, key)), val
    for position, (key, val) in enumerate(other_items):
        yield ("objkey", position), key
        yield ("objval", position), val


def _iter_set_members(obj: Any) -> Iterator[Tuple[Tuple[str, Any], Any]]:
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
    # Non-scalar set members are canonicalized by repr: set elements must
    # be hashable, which in practice means they expose a stable textual
    # identity.  This is a documented approximation.
    others.sort(key=lambda item: (type(item).__name__, safe_repr(item)))
    for index, item in enumerate(others):
        yield ("objmember", index), item


def iter_children(
    obj: Any, kind: str, ignore_attrs: Callable[[str], bool]
) -> Iterator[Tuple[Tuple[str, Any], Any]]:
    """Yield ``(label, child)`` pairs of *obj* in canonical order.

    This is the one ordering every backend shares: labeled edges exactly
    as an :class:`~repro.core.state.graph.ObjectGraph` node would carry
    them.  ``KIND_BYTEARRAY`` values have no children (their payload is
    ``bytes(obj)``); container *subclasses* additionally yield their
    instance attributes; ``defaultdict`` yields its ``default_factory``.
    """
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
        for label, child in _iter_object_attrs(obj, ignore_attrs):
            yield label, child
        return
    # container *subclasses* may carry instance attributes too
    if type(obj).__module__ != "builtins" or hasattr(obj, "__dict__"):
        for label, child in _iter_object_attrs(obj, ignore_attrs):
            yield label, child
    if isinstance(obj, _collections.defaultdict):
        yield ("attr", "default_factory"), obj.default_factory
