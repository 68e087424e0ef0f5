"""Undo-log ("copy-on-write") checkpointing — the paper's §6.2 extension.

The eager :mod:`checkpoint <repro.core.state.checkpoint>` copies the
whole reachable state up front, so its cost grows with object size even
when the method barely writes anything.  The paper suggests copy-on-write
to speed up checkpointing of very large objects; this module implements
the standard realization: a **write barrier** on instrumented classes
records the old value of each attribute the first time it is written
inside a checkpointed region, and rollback replays the undo log in
reverse.  Cost is proportional to the number of *writes*, not to the
object size.

Limitations (documented, checked by tests): only attribute writes on
barrier-installed classes are covered.  Mutations of plain containers
(``list.append`` etc.) bypass the barrier, so the undo-log wrapper is
only safe for classes whose state lives in attributes of barriered
objects — exactly the trade-off a production system would document.

The atomicity wrappers that use this log are the masking phase's
``undolog`` checkpoint strategy (:mod:`repro.core.masking`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from .state.introspect import slot_names

__all__ = ["UndoLog", "install_write_barrier", "remove_write_barrier"]

_MISSING = object()

#: Stack of active undo logs (innermost last).  Single-threaded by
#: design, like the paper's infrastructure (Section 4.4).
_ACTIVE_LOGS: List["UndoLog"] = []


class UndoLog:
    """Records (object, attribute, old value) triples for rollback."""

    def __init__(self) -> None:
        self._entries: List[Tuple[Any, str, Any]] = []
        self._seen: set = set()

    def record(self, obj: Any, name: str) -> None:
        """Save the current value of ``obj.name`` (first write only)."""
        key = (id(obj), name)
        if key in self._seen:
            return
        self._seen.add(key)
        if hasattr(obj, "__dict__") and name not in slot_names(type(obj)):
            old = obj.__dict__.get(name, _MISSING)
        else:
            old = getattr(obj, name, _MISSING)
        self._entries.append((obj, name, old))

    def rollback(self) -> None:
        """Undo every recorded write, newest first."""
        for obj, name, old in reversed(self._entries):
            if old is _MISSING:
                try:
                    object.__delattr__(obj, name)
                except AttributeError:
                    pass
            else:
                object.__setattr__(obj, name, old)

    def absorb(self, child: "UndoLog") -> None:
        """Adopt a nested log's entries (the oldest saved value wins).

        When a nested checkpointed region commits, its writes become part
        of the enclosing region's tentative state: if the enclosing region
        later fails, those writes must be rolled back too.  Keys this log
        already recorded keep their own (older) saved value.  Absorbing a
        child that was rolled back is harmless — restoring an attribute to
        its pre-child value a second time is idempotent.
        """
        for obj, name, old in child._entries:
            key = (id(obj), name)
            if key in self._seen:
                continue
            self._seen.add(key)
            self._entries.append((obj, name, old))

    @property
    def recorded_writes(self) -> int:
        return len(self._entries)

    # -- context management ------------------------------------------------

    def __enter__(self) -> "UndoLog":
        _ACTIVE_LOGS.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE_LOGS.pop()
        # Commit-to-parent: without this, a nested masked method that
        # completes successfully would leave the enclosing log blind to
        # its writes, making the *outer* method's rollback incomplete.
        if _ACTIVE_LOGS:
            _ACTIVE_LOGS[-1].absorb(self)


#: Every class that carries a write barrier: its install count, then the
#: ``__setattr__`` and ``__delattr__`` the class defined itself
#: (``_MISSING`` where it inherited them), which the last
#: :func:`remove_write_barrier` puts back exactly.
_BARRIERS: Dict[type, List[Any]] = {}


def install_write_barrier(cls: type) -> None:
    """Route attribute writes *and deletes* through the active undo log.

    Both ``__setattr__`` and ``__delattr__`` record the old value before
    mutating — a delete is a write as far as rollback is concerned.
    Installs are counted: a class keeps its barrier until every install
    has been matched by a :func:`remove_write_barrier`.
    """
    if cls in _BARRIERS:
        _BARRIERS[cls][0] += 1
        return
    own = vars(cls)
    _BARRIERS[cls] = [
        1,
        own.get("__setattr__", _MISSING),
        own.get("__delattr__", _MISSING),
    ]
    original_set = cls.__setattr__
    original_del = cls.__delattr__

    def barrier_setattr(self: Any, name: str, value: Any) -> None:
        if _ACTIVE_LOGS:
            _ACTIVE_LOGS[-1].record(self, name)
        original_set(self, name, value)

    def barrier_delattr(self: Any, name: str) -> None:
        if _ACTIVE_LOGS:
            _ACTIVE_LOGS[-1].record(self, name)
        original_del(self, name)

    cls.__setattr__ = barrier_setattr  # type: ignore[method-assign]
    cls.__delattr__ = barrier_delattr  # type: ignore[method-assign]


def remove_write_barrier(cls: type) -> None:
    """Drop one install of *cls*'s barrier; the last one restores the
    class's own ``__setattr__`` / ``__delattr__``, or their absence."""
    entry = _BARRIERS.get(cls)
    if entry is None:
        return
    entry[0] -= 1
    if entry[0]:
        return
    del _BARRIERS[cls]
    for name, own in (("__setattr__", entry[1]), ("__delattr__", entry[2])):
        if own is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, own)
