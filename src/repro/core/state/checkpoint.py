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

Type introspection is shared with the other state backends via
:mod:`repro.core.state.introspect`.
"""

from __future__ import annotations

import collections as _collections
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .introspect import default_ignore, is_opaque, is_scalar, slot_names

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "RestoreError",
    "checkpoint",
    "restore",
]


class CheckpointError(RuntimeError):
    """Raised when an object's state cannot be checkpointed."""


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
_KIND_IMMUTABLE = "immutable"  # tuples/frozensets: traversed, not restored


class Checkpoint:
    """A restorable snapshot of the state reachable from one or more roots.

    Use :func:`checkpoint` to create one and :meth:`restore` to roll the
    recorded objects back to their checkpointed state.  A checkpoint may be
    restored any number of times (each restore rewinds to the same state).
    """

    def __init__(
        self,
        roots: Iterable[Any],
        ignore_attrs: Callable[[str], bool],
        max_objects: Optional[int] = None,
    ) -> None:
        self._records: List[_ObjectRecord] = []
        self._seen: Dict[int, Optional[_ObjectRecord]] = {}
        self._ignore_attrs = ignore_attrs
        self._max_objects = max_objects
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
            if (
                self._max_objects is not None
                and len(self._seen) >= self._max_objects
            ):
                raise CheckpointError(
                    f"reachable state exceeds {self._max_objects} objects"
                )
            record = self._make_record(current)
            self._seen[oid] = record
            self._pins.append(current)
            if record is not None:
                self._records.append(record)
            stack.extend(self._children(current))

    def _make_record(self, obj: Any) -> Optional[_ObjectRecord]:
        """Build the restore record for one object.

        Container *subclasses* are recorded as (items, attribute state)
        pairs so both their contents and any extra instance attributes
        are rolled back.
        """
        if isinstance(obj, (tuple, frozenset)):
            return None  # immutable: traversed for children, never restored
        if isinstance(obj, list):
            return _ObjectRecord(
                obj, _KIND_LIST, (list(obj), self._subclass_state(obj))
            )
        if isinstance(obj, dict):
            return _ObjectRecord(
                obj, _KIND_DICT, (dict(obj), self._subclass_state(obj))
            )
        if isinstance(obj, set):
            return _ObjectRecord(
                obj, _KIND_SET, (set(obj), self._subclass_state(obj))
            )
        if isinstance(obj, _collections.deque):
            return _ObjectRecord(
                obj, _KIND_DEQUE, (list(obj), self._subclass_state(obj))
            )
        if isinstance(obj, bytearray):
            return _ObjectRecord(obj, _KIND_BYTEARRAY, bytes(obj))
        return _ObjectRecord(obj, _KIND_OBJECT, self._object_state(obj))

    def _subclass_state(self, obj: Any):
        """Attribute state of a container subclass (None for builtins)."""
        if type(obj).__module__ == "builtins" and not hasattr(obj, "__dict__"):
            return None
        return self._object_state(obj)

    def _object_state(self, obj: Any) -> Tuple[Optional[dict], List[Tuple[str, Any]]]:
        obj_dict = getattr(obj, "__dict__", None)
        dict_copy = None
        if isinstance(obj_dict, dict):
            dict_copy = {
                k: v for k, v in obj_dict.items() if not self._ignore_attrs(k)
            }
        slot_values: List[Tuple[str, Any]] = []
        for name in slot_names(type(obj)):
            if self._ignore_attrs(name):
                continue
            slot_values.append((name, getattr(obj, name, _UNSET)))
        return (dict_copy, slot_values)

    def _children(self, obj: Any) -> List[Any]:
        children: List[Any] = []
        if isinstance(obj, (list, tuple, set, frozenset, _collections.deque)):
            children.extend(obj)
        elif isinstance(obj, dict):
            children.extend(obj.keys())
            children.extend(obj.values())
        elif isinstance(obj, bytearray):
            return []
        obj_dict = getattr(obj, "__dict__", None)
        if isinstance(obj_dict, dict):
            children.extend(
                v for k, v in obj_dict.items() if not self._ignore_attrs(k)
            )
        for name in slot_names(type(obj)):
            if self._ignore_attrs(name):
                continue
            value = getattr(obj, name, _UNSET)
            if value is not _UNSET:
                children.append(value)
        return children

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
        else:
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
            preserved = {
                k: v for k, v in obj_dict.items() if self._ignore_attrs(k)
            }
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


def checkpoint(
    *roots: Any,
    ignore_attrs: Optional[Callable[[str], bool]] = None,
    max_objects: Optional[int] = None,
) -> Checkpoint:
    """Checkpoint the state reachable from *roots* (paper's ``deep_copy``).

    Args:
        max_objects: optional budget on the number of mutable objects to
            record; exceeding it raises :class:`CheckpointError` ("there
            is no upper bound on the size of objects", paper §6.2 — this
            makes the bound explicit when one is required).
    """
    return Checkpoint(roots, ignore_attrs or default_ignore, max_objects)


def restore(saved: Checkpoint) -> None:
    """Restore a checkpoint in place (paper's ``replace``)."""
    saved.restore()
