"""The checkpoint traversal as it was before the type table: the test
oracle for :class:`~repro.core.state.checkpoint.Checkpoint`'s records.

This is the loop that asked :func:`is_scalar` and :func:`is_opaque` of
every value and sent every object through one ``isinstance`` chain.  It
has no fast path: every shape takes the one general code path, which
makes it the reference the fast paths are held to.  Restoring is
inherited unchanged.
"""

import collections

from repro.core.state.checkpoint import (
    _KIND_BYTEARRAY,
    _KIND_DEQUE,
    _KIND_DICT,
    _KIND_IMMUTABLE,
    _KIND_LIST,
    _KIND_OBJECT,
    _KIND_SET,
    _UNSET,
    Checkpoint,
    _ObjectRecord,
)
from repro.core.state.introspect import (
    SCALAR_TYPES,
    default_ignore,
    is_opaque,
    is_scalar,
    slot_names,
)

_SCALAR_EXACT = frozenset(SCALAR_TYPES)
_BARE_CONTAINERS = frozenset((list, dict, set, collections.deque))


class OracleCheckpoint(Checkpoint):
    """A :class:`Checkpoint` whose records come from the old traversal."""

    def _record(self, value):
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

    def _visit(self, obj):
        cls = type(obj)
        if cls is tuple or cls is frozenset:
            return None, (obj,)
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
        if isinstance(obj, (list, collections.deque)):
            items = list(obj)
            kind = _KIND_LIST if isinstance(obj, list) else _KIND_DEQUE
            return _ObjectRecord(obj, kind, (items, attrs)), (items,) + children
        if isinstance(obj, dict):
            items = dict(obj)
            record = _ObjectRecord(obj, _KIND_DICT, (items, attrs))
            return record, (items.keys(), items.values()) + children
        if isinstance(obj, set):
            return _ObjectRecord(obj, _KIND_SET, (set(obj), attrs)), (obj,) + children
        if isinstance(obj, (tuple, frozenset)):
            if dict_copy is None and not slot_values:
                return None, (obj,) + children
            return _ObjectRecord(obj, _KIND_IMMUTABLE, attrs), (obj,) + children
        return _ObjectRecord(obj, _KIND_OBJECT, attrs), children

    def _attr_state(self, obj):
        obj_dict = getattr(obj, "__dict__", None)
        dict_copy = None
        if isinstance(obj_dict, dict):
            dict_copy = {k: v for k, v in obj_dict.items() if not default_ignore(k)}
        slot_values = []
        for name in slot_names(type(obj)):
            if default_ignore(name):
                continue
            slot_values.append((name, getattr(obj, name, _UNSET)))
        if isinstance(obj, collections.defaultdict):
            slot_values.append(("default_factory", obj.default_factory))
        return (dict_copy, slot_values)


def checkpoint(*roots):
    """The checkpoint the old traversal took of *roots*."""
    return OracleCheckpoint(roots)
