"""Line-level exception-transparency certificates for stack frames.

A derived injection point must reproduce the dynamic run's record
without executing it, and the record depends on what the in-flight
exception meets on its way out: a frame suspended *inside* a ``try`` (or
``with``) statement may catch or transform it, changing marks, escape
status and everything downstream.  A frame is certified
*exception-transparent* at a given line when its source is available and
the line falls outside every ``try``/``with`` span of the enclosing code
block — then the only thing the frame can do with a propagating
exception is pass it on.

The whole statement span (handlers, ``else``, ``finally``, context
managers) is treated as guarded even though e.g. an ``else`` clause is
not actually covered by its handlers: over-approximating the guarded
region can only keep points dynamic, never derive one wrongly.

Source is not the only certificate.  On CPython 3.11+ (zero-cost
exceptions, PEP 626 era bytecode) every handler span of a code object —
``try``, ``with``, ``async with``, generator cleanup — lives in
``co_exceptiontable``; an *empty* table proves the frame cannot catch,
transform, or run cleanup for a propagating exception at any line.
That certifies the sourceless adapters real programs route calls
through (``exec``-built decorator glue carrying ``functools.wraps``
metadata, plugin trampolines) which the AST certificate can never
reach.  Frames with a non-empty table and no retrievable source stay
non-transparent, as do all sourceless frames on older interpreters.

Only the frames between an injection point and the profile boundary
(:func:`call_through_boundary`, through which every engine runs its
profiling execution) need a certificate; the walk stops there.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Dict, Optional, Tuple

__all__ = [
    "PROFILE_BOUNDARY_CODE",
    "TransparencyIndex",
    "call_through_boundary",
    "nested_boundary",
]


def call_through_boundary(program) -> None:
    """Invoke the test program under the profile-boundary sentinel.

    The trace pass's stack walk terminates at this function's code
    object; frames below it (engine, test runner) are harness machinery
    the detection run reproduces identically and need no certificate.
    Every engine routes its profiling run through here.
    """
    return program()


PROFILE_BOUNDARY_CODE = call_through_boundary.__code__


def nested_boundary(boundary_frame) -> bool:
    """True when another profiling-boundary frame lies *outward* of
    *boundary_frame*.

    Stack walks stop at the first boundary frame they meet.  When
    subject code itself calls :func:`call_through_boundary`, that inner
    boundary truncates the walk: the real enclosing wrappers and
    suspended lines sit above it and would silently go missing, turning
    a "complete" walk into an unsound one.  Walkers call this at their
    stopping frame and treat the walk as unusable when it returns True.
    """
    outer = boundary_frame.f_back
    try:
        while outer is not None:
            if outer.f_code is PROFILE_BOUNDARY_CODE:
                return True
            outer = outer.f_back
        return False
    finally:
        del outer

_GUARD_NODES = tuple(
    getattr(ast, name)
    for name in ("Try", "TryStar", "With", "AsyncWith")
    if hasattr(ast, name)
)

#: Cache sentinel distinguishing "not computed" from "uncertifiable".
_MISSING = object()

_Spans = Optional[Tuple[Tuple[int, int], ...]]


def _guarded_spans(code) -> _Spans:
    """Absolute line spans of every guarded statement in *code*'s block,
    or None when the block cannot be certified at all."""
    if getattr(code, "co_exceptiontable", None) == b"":
        # Zero-cost exceptions: an empty handler table is a bytecode-
        # level proof the frame is exception-transparent everywhere —
        # no source needed.
        return ()
    try:
        lines, start = inspect.getsourcelines(code)
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except (SyntaxError, ValueError):
        return None
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _GUARD_NODES):
            end = getattr(node, "end_lineno", None)
            if end is None:
                return None
            spans.append((start + node.lineno - 1, start + end - 1))
    return tuple(spans)


class TransparencyIndex:
    """Memoized per-code-object transparency queries."""

    def __init__(self) -> None:
        self._spans: Dict[object, _Spans] = {}

    def transparent_at(self, code, lineno: int) -> bool:
        spans = self._spans.get(code, _MISSING)
        if spans is _MISSING:
            spans = _guarded_spans(code)
            self._spans[code] = spans
        if spans is None:
            return False
        return not any(low <= lineno <= high for low, high in spans)
