"""Checkpoint and in-place rollback of object state (paper Listing 2).

This module implements the ``deep_copy`` / ``replace`` pair used by the
paper's atomicity wrapper (Listing 2):

.. code-block:: none

    objgraph = deep_copy(this);
    try { return m(...); }
    catch (...) { replace(this, objgraph); throw; }

A :class:`Checkpoint` records, for every mutable object reachable from its
roots, both a reference to the original object and a *shallow* copy of its
state whose references still point at the original children.  Restoring
then rewrites each recorded object's state in place.  This design has two
properties the paper's ``replace`` needs:

* The identity of the receiver — and of every interior object that existed
  at checkpoint time — survives the rollback, so references held by
  callers and by sibling objects remain valid.
* Aliasing is preserved exactly: restored containers point back at the
  original (also restored) child objects, never at copies.

Objects created after the checkpoint become unreachable after restore and
are reclaimed by Python's garbage collector; this subsumes the reference
counting / GC discussion in Section 5.1 of the paper.

Every atomicity wrapper pays for a checkpoint on every call, so the
traversal visits each reachable object once: one step saves its record
and returns its children, read from the copies it has just saved.  A run
of children that are all exact scalars (a list of ints, say) is skipped
in one C-level pass instead of being pushed and popped one by one.

The scalar, opaque and slot answers are shared with the other state
backends via :mod:`repro.core.state.introspect`; the children are not
read through ``iter_children``, but the traversal must reach the objects
a graph capture reaches, ``defaultdict.default_factory`` and the
attributes of tuple and frozenset subclasses included.
"""

from __future__ import annotations

import collections as _collections
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .introspect import (
    SCALAR_TYPES,
    default_ignore,
    is_opaque,
    is_scalar,
    slot_names,
)

__all__ = [
    "Checkpoint",
    "RestoreError",
    "checkpoint",
    "restore",
]


class RestoreError(RuntimeError):
    """Raised when a checkpoint cannot be restored in place."""


_UNSET = object()


class _ObjectRecord:
    """Saved shallow state of one mutable object."""

    __slots__ = ("obj", "kind", "state")

    def __init__(self, obj: Any, kind: str, state: Any) -> None:
        self.obj = obj
        self.kind = kind
        self.state = state


_KIND_LIST = "list"
_KIND_DICT = "dict"
_KIND_SET = "set"
_KIND_DEQUE = "deque"
_KIND_BYTEARRAY = "bytearray"
_KIND_OBJECT = "object"
_KIND_IMMUTABLE = "immutable"  # tuple/frozenset subclasses: attributes only

#: Exact scalar types.  A group of children made only of these is skipped
#: by one C-level pass (``issuperset(map(type, group))``) instead of being
#: pushed and popped one by one; a subclass of a scalar type is not in the
#: set, so it still reaches :func:`is_scalar`.
_SCALAR_EXACT = frozenset(SCALAR_TYPES)

#: Exact builtin containers: they carry no attribute state, so neither
#: ``__dict__`` nor ``__slots__`` is read.
_BARE_CONTAINERS = frozenset((list, dict, set, _collections.deque))


class Checkpoint:
    """A restorable snapshot of the state reachable from one or more roots.

    Use :func:`checkpoint` to create one and :meth:`restore` to roll the
    recorded objects back to their checkpointed state.  A checkpoint may be
    restored any number of times (each restore rewinds to the same state).
    """

    def __init__(self, roots: Iterable[Any]) -> None:
        self._records: List[_ObjectRecord] = []
        self._seen: Dict[int, Optional[_ObjectRecord]] = {}
        self._roots = list(roots)
        # Pin originals so ids stay unique while the checkpoint lives.
        self._pins: List[Any] = []
        for root in self._roots:
            self._record(root)

    # -- capture -----------------------------------------------------

    def _record(self, value: Any) -> None:
        stack = [value]
        while stack:
            current = stack.pop()
            if is_scalar(current) or is_opaque(current):
                continue
            oid = id(current)
            if oid in self._seen:
                continue
            record, groups = self._visit(current)
            self._seen[oid] = record
            self._pins.append(current)
            if record is not None:
                self._records.append(record)
            for group in groups:
                if not _SCALAR_EXACT.issuperset(map(type, group)):
                    stack.extend(group)

    def _visit(
        self, obj: Any
    ) -> Tuple[Optional[_ObjectRecord], Tuple[Iterable[Any], ...]]:
        """Build *obj*'s restore record; return it with *obj*'s children.

        The children come in groups read from the shallow copies the record
        has just saved: the items (a dict's keys, then its values), then
        the attribute values.  A set's members are read from the live set,
        whose iteration order its copy need not share.  Container
        *subclasses* are recorded as (items, attribute state) pairs so both
        their contents and any extra instance attributes are rolled back.
        """
        cls = type(obj)
        if cls is tuple or cls is frozenset:
            return None, (obj,)  # immutable, no attributes: never restored
        if isinstance(obj, bytearray):
            return _ObjectRecord(obj, _KIND_BYTEARRAY, bytes(obj)), ()
        if cls in _BARE_CONTAINERS:
            attrs, children = None, ()
        else:
            attrs = self._attr_state(obj)
            dict_copy, slot_values = attrs
            children = (
                () if dict_copy is None else dict_copy.values(),
                [value for _, value in slot_values if value is not _UNSET],
            )
        if isinstance(obj, (list, _collections.deque)):
            items = list(obj)
            kind = _KIND_LIST if isinstance(obj, list) else _KIND_DEQUE
            record = _ObjectRecord(obj, kind, (items, attrs))
            return record, (items,) + children
        if isinstance(obj, dict):
            items = dict(obj)
            record = _ObjectRecord(obj, _KIND_DICT, (items, attrs))
            return record, (items.keys(), items.values()) + children
        if isinstance(obj, set):
            record = _ObjectRecord(obj, _KIND_SET, (set(obj), attrs))
            return record, (obj,) + children
        if isinstance(obj, (tuple, frozenset)):
            if dict_copy is None and not slot_values:
                return None, (obj,) + children  # e.g. a namedtuple
            record = _ObjectRecord(obj, _KIND_IMMUTABLE, attrs)
            return record, (obj,) + children
        return _ObjectRecord(obj, _KIND_OBJECT, attrs), children

    def _attr_state(
        self, obj: Any
    ) -> Tuple[Optional[dict], List[Tuple[str, Any]]]:
        """``(copy of __dict__ or None, [(slot, value or _UNSET)])``.

        A ``defaultdict``'s ``default_factory`` is state too (the graph
        capture yields it as an attribute), so it is saved and restored
        like a slot.
        """
        obj_dict = getattr(obj, "__dict__", None)
        dict_copy = None
        if isinstance(obj_dict, dict):
            dict_copy = {
                k: v for k, v in obj_dict.items() if not default_ignore(k)
            }
        slot_values: List[Tuple[str, Any]] = []
        for name in slot_names(type(obj)):
            if default_ignore(name):
                continue
            slot_values.append((name, getattr(obj, name, _UNSET)))
        if isinstance(obj, _collections.defaultdict):
            slot_values.append(("default_factory", obj.default_factory))
        return (dict_copy, slot_values)

    # -- restore -----------------------------------------------------

    def restore(self) -> None:
        """Rewrite every recorded object's state back to checkpoint time.

        Restoration is in place: object identities are preserved, so every
        reference that existed at checkpoint time remains valid afterwards.
        """
        for record in self._records:
            self._restore_one(record)

    def _restore_one(self, record: _ObjectRecord) -> None:
        obj, kind, state = record.obj, record.kind, record.state
        if kind == _KIND_LIST:
            items, attrs = state
            obj[:] = items
        elif kind == _KIND_DICT:
            items, attrs = state
            obj.clear()
            obj.update(items)
        elif kind == _KIND_SET:
            items, attrs = state
            obj.clear()
            obj.update(items)
        elif kind == _KIND_DEQUE:
            items, attrs = state
            obj.clear()
            obj.extend(items)
        elif kind == _KIND_BYTEARRAY:
            obj[:] = state
            return
        else:  # an object, or the attributes of an immutable subclass
            self._restore_object(obj, state)
            return
        if attrs is not None:
            self._restore_object(obj, attrs)

    def _restore_object(
        self, obj: Any, state: Tuple[Optional[dict], List[Tuple[str, Any]]]
    ) -> None:
        dict_copy, slot_values = state
        obj_dict = getattr(obj, "__dict__", None)
        if dict_copy is not None and isinstance(obj_dict, dict):
            preserved = {k: v for k, v in obj_dict.items() if default_ignore(k)}
            obj_dict.clear()
            obj_dict.update(dict_copy)
            obj_dict.update(preserved)
        for name, value in slot_values:
            try:
                if value is _UNSET:
                    if hasattr(obj, name):
                        delattr(obj, name)
                else:
                    setattr(obj, name, value)
            except (AttributeError, TypeError) as exc:
                raise RestoreError(
                    f"cannot restore slot {name!r} of {type(obj).__name__}"
                ) from exc

    # -- introspection -----------------------------------------------

    @property
    def recorded_count(self) -> int:
        """Number of mutable objects whose state was saved."""
        return len(self._records)

    @property
    def roots(self) -> List[Any]:
        return list(self._roots)


def checkpoint(*roots: Any) -> Checkpoint:
    """Checkpoint the state reachable from *roots* (paper's ``deep_copy``).

    Everything reachable is recorded ("there is no upper bound on the
    size of objects", paper §6.2), except the instrumentation's own
    ``_repro_*`` attributes, which a restore leaves as they are.
    """
    return Checkpoint(roots)


def restore(saved: Checkpoint) -> None:
    """Restore a checkpoint in place (paper's ``replace``)."""
    saved.restore()
