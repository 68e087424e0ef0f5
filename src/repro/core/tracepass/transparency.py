"""Exception-transparency certificates for stack frames.

A derived injection point must reproduce the dynamic run's record
without executing it, and the record depends on what the in-flight
exception meets on its way out: a frame suspended inside a ``try`` (or
``with``) statement may catch or transform it, changing marks, escape
status and everything downstream.  The certificate is decided per
exception type: :meth:`TransparencyIndex.catchers` names the classes
whose ``except`` clauses an exception passes on its way out of a
frame, and a type that none of them catches (:func:`caught_by`)
propagates through the frame untouched.

On CPython 3.11+ (zero-cost exceptions) the certificate is the code
object's exception table, not its source, so sourceless frames
(``exec``-built decorator glue, plugin trampolines) are certified like
any other.  ``co_exceptiontable`` maps every instruction to the handler
an exception raised there jumps to; the index reads the entry at the
suspended instruction (``f_lasti``), then follows the handlers outward
(``RERAISE`` of an unmatched clause run, cleanup blocks ``COPY 3;
POP_EXCEPT; RERAISE 1``) until no entry covers the re-raise.  A handler
is accepted only when it is a run of ``except`` clauses whose
expressions are names, attribute chains, or tuples of them; at the
trace instant each must resolve, by exact-dict lookups in the frame's
locals, globals and builtins and in module or class ``__dict__``s (no
code runs), to exception classes.  Nothing runs between the point
firing and the exception reaching the frame, so those are the classes
the dynamic run matches against.  Every other shape certifies no type
at all: ``finally`` (even ``finally: pass``), ``with``, ``except*``, a
bare ``except``, an unresolvable expression, or bytecode the decoder
does not recognise.  A wrong guess therefore costs a run, never a
verdict.

Interpreters without ``co_exceptiontable`` keep the line-level source
certificate: a frame is transparent to every type when its source is
available and its line falls outside every ``try``/``with`` span of
the enclosing code block, and certifies no type otherwise.  The whole
statement span (handlers, ``else``, ``finally``, context managers)
counts as guarded, which can only keep points dynamic.

Only the frames between an injection point and the profile boundary
(:func:`call_through_boundary`, through which every engine runs its
profiling execution) need a certificate; the walk stops there.
"""

from __future__ import annotations

import ast
import dis
import inspect
import textwrap
import types
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "PROFILE_BOUNDARY_CODE",
    "TransparencyIndex",
    "call_through_boundary",
    "caught_by",
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


#: True on interpreters whose code objects carry an exception table.
_HAS_TABLE = hasattr(PROFILE_BOUNDARY_CODE, "co_exceptiontable")

#: A class's real ``tp_mro``, read past any metaclass attribute hook.
_MRO = type.__dict__["__mro__"].__get__

#: Cache and lookup sentinel distinguishing "absent" from any value.
_MISSING = object()


def caught_by(exc_type: type, classes: Sequence[type]) -> bool:
    """True when an ``except`` naming any of *classes* catches an
    exception of *exc_type*: one of them is in ``exc_type.__mro__``, by
    identity, as CPython's ``PyErr_GivenExceptionMatches`` decides
    (``issubclass`` would consult a metaclass's ``__subclasscheck__``)."""
    mro = _MRO(exc_type)
    return any(cls is base for cls in classes for base in mro)


# -- source certificate (interpreters without co_exceptiontable) ---------

_GUARD_NODES = tuple(
    getattr(ast, name)
    for name in ("Try", "TryStar", "With", "AsyncWith")
    if hasattr(ast, name)
)

_Spans = Optional[Tuple[Tuple[int, int], ...]]


def _guarded_spans(code) -> _Spans:
    """Absolute line spans of every guarded statement in *code*'s block,
    or None when the block cannot be certified at all."""
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


# -- exception-table certificate (CPython 3.11+) -------------------------

#: Loads an ``except`` expression may start from, and where each looks.
_NAME_LOADS = frozenset(
    {"LOAD_GLOBAL", "LOAD_NAME", "LOAD_FAST", "LOAD_DEREF"}
)
_JUMPS_IF_FALSE = frozenset({"POP_JUMP_FORWARD_IF_FALSE", "POP_JUMP_IF_FALSE"})

#: Attribute names a module's or class's type answers before the
#: instance ``__dict__`` is read: never resolved.
_MODULE_TYPE_NAMES = frozenset(dir(types.ModuleType))
_TYPE_NAMES = frozenset(dir(type))

#: Decoded ``except`` expressions: ``(op, name)`` for a name load,
#: ``("LOAD_ATTR", base, name)`` and ``("BUILD_TUPLE", items)``.
_Expr = Tuple[Any, ...]
_Clauses = Optional[Tuple[_Expr, ...]]


def _exception_table(code) -> Tuple[Tuple[int, int, int], ...]:
    """``(start, end, target)`` byte offsets of *code*'s exception table
    entries, as CPython's ``get_exception_handler`` reads them: each
    entry is four varints of 6-bit chunks (bit 6 continues a value) in
    code units, the last one packing the stack depth and lasti flag."""
    data = code.co_exceptiontable
    position = 0

    def varint() -> int:
        nonlocal position
        byte = data[position]
        position += 1
        value = byte & 63
        while byte & 64:
            byte = data[position]
            position += 1
            value = (value << 6) | (byte & 63)
        return value

    entries = []
    while position < len(data):
        start = varint() * 2
        end = start + varint() * 2
        target = varint() * 2
        varint()  # depth and lasti: how the handler is entered
        entries.append((start, end, target))
    return tuple(entries)


class _CodeTable:
    """One code object's exception table and instructions, decoded once,
    with the clause expressions decoded per suspended offset."""

    __slots__ = ("code", "entries", "instructions", "position", "clauses")

    def __init__(self, code) -> None:
        #: Held so the ``id(code)`` key stays this code's while cached.
        self.code = code
        self.entries = _exception_table(code)
        self.instructions: List[dis.Instruction] = []
        self.position: Dict[int, int] = {}
        self.clauses: Dict[int, _Clauses] = {}

    def clauses_at(self, offset: int) -> _Clauses:
        clauses = self.clauses.get(offset, _MISSING)
        if clauses is _MISSING:
            clauses = self.clauses[offset] = self._decode(offset)
        return clauses

    def _handler(self, offset: int) -> Optional[int]:
        for start, end, target in self.entries:
            if start <= offset < end:
                return target
        return None

    def _decode(self, offset: int) -> _Clauses:
        """The ``except`` expressions an exception raised at *offset*
        is matched against before it leaves the frame, in order; None
        when a handler on the way is not a recognised shape."""
        clauses: List[_Expr] = []
        # Each step leaves one handler outward, so no entry is met twice.
        for _ in range(len(self.entries) + 1):
            target = self._handler(offset)
            if target is None:
                return tuple(clauses)
            if not self.instructions:
                self.instructions = list(dis.get_instructions(self.code))
                self.position = {
                    ins.offset: index
                    for index, ins in enumerate(self.instructions)
                }
            index = self.position.get(target)
            if index is None:
                return None
            if self._is_cleanup(index):
                offset = self.instructions[index + 2].offset
                continue
            found = self._clause_run(index)
            if found is None:
                return None
            run, offset = found
            clauses.extend(run)
        return None

    def _is_cleanup(self, index: int) -> bool:
        """``COPY 3; POP_EXCEPT; RERAISE 1`` at *index*: restore the
        handled exception and re-raise, running nothing else."""
        shape = [
            (ins.opname, ins.arg)
            for ins in self.instructions[index:index + 3]
        ]
        return shape == [("COPY", 3), ("POP_EXCEPT", None), ("RERAISE", 1)]

    def _clause_run(self, index: int) -> Optional[Tuple[List[_Expr], int]]:
        """The clause expressions of the handler at *index* and the
        offset of the ``RERAISE 0`` an unmatched exception leaves by;
        None unless the handler is one or more ``except <expr>:``
        clauses (a ``finally`` body is zero clauses before its
        ``RERAISE 0``)."""
        instructions = self.instructions
        if instructions[index].opname != "PUSH_EXC_INFO":
            return None
        index += 1
        run: List[_Expr] = []
        while index < len(instructions):
            ins = instructions[index]
            if ins.opname == "RERAISE" and ins.arg == 0:
                return (run, ins.offset) if run else None
            parsed = self._expression(index)
            if parsed is None:
                return None
            expr, index = parsed
            jump = instructions[index] if index < len(instructions) else None
            if (
                jump is None
                or jump.opname not in _JUMPS_IF_FALSE
                or jump.argval <= jump.offset
            ):
                return None
            run.append(expr)
            index = self.position.get(jump.argval, len(instructions))
        return None

    def _expression(self, index: int) -> Optional[Tuple[_Expr, int]]:
        """The expression loaded from *index* up to its
        ``CHECK_EXC_MATCH``, and the index after that; None for any
        instruction but a name load, ``LOAD_ATTR`` or ``BUILD_TUPLE``."""
        stack: List[_Expr] = []
        for index in range(index, len(self.instructions)):
            ins = self.instructions[index]
            op = ins.opname
            # A plain load shows its name alone; a load that also
            # pushes NULL or self for a call shows more.
            named = isinstance(ins.argval, str) and ins.argrepr == ins.argval
            if op == "EXTENDED_ARG":
                continue
            if op == "CHECK_EXC_MATCH":
                return (stack[0], index + 1) if len(stack) == 1 else None
            if op in _NAME_LOADS and named:
                stack.append((op, ins.argval))
            elif op == "LOAD_ATTR" and named and stack:
                stack.append((op, stack.pop(), ins.argval))
            elif op == "BUILD_TUPLE" and 0 < ins.arg <= len(stack):
                items = tuple(stack[len(stack) - ins.arg:])
                del stack[len(stack) - ins.arg:]
                stack.append((op, items))
            else:
                return None
        return None


def _lookup(frame, op: str, name: str) -> Any:
    """What the name load *op* of *name* reads in *frame* now, or
    _MISSING when it would raise or reach past an exact dict."""
    if op == "LOAD_GLOBAL":
        scopes = (frame.f_globals, frame.f_builtins)
    elif op == "LOAD_NAME":
        scopes = (frame.f_locals, frame.f_globals, frame.f_builtins)
    else:  # LOAD_FAST, LOAD_DEREF: a snapshot holding cells' contents
        scopes = (frame.f_locals,)
    for scope in scopes:
        if type(scope) is not dict:
            return _MISSING
        value = scope.get(name, _MISSING)
        if value is not _MISSING:
            return value
    return _MISSING


def _attribute(base: Any, name: str) -> Any:
    """``base.name`` when *base* is a plain module or a class of
    metaclass ``type`` and the attribute is a plain dict entry; else
    _MISSING."""
    if type(base) is types.ModuleType:
        if name in _MODULE_TYPE_NAMES:
            return _MISSING
        return base.__dict__.get(name, _MISSING)
    if type(base) is type and name not in _TYPE_NAMES:
        for klass in base.__mro__:
            value = klass.__dict__.get(name, _MISSING)
            if value is not _MISSING:
                # Neither a class of metaclass type nor a tuple is a
                # descriptor, so attribute access returns it as stored.
                kind = type(value)
                return value if kind is type or kind is tuple else _MISSING
    return _MISSING


def _evaluate(expr: _Expr, frame) -> Any:
    op = expr[0]
    if op == "LOAD_ATTR":
        return _attribute(_evaluate(expr[1], frame), expr[2])
    if op == "BUILD_TUPLE":
        return tuple(_evaluate(item, frame) for item in expr[1])
    return _lookup(frame, op, expr[1])


def _is_exception_class(value: Any) -> bool:
    return issubclass(type(value), type) and any(
        base is BaseException for base in _MRO(value)
    )


class TransparencyIndex:
    """Memoized transparency certificates, one index per campaign.

    Decoded exception tables and clause shapes are kept per code object
    and suspended offset (source spans where there is no table); what
    the clause expressions name is read anew at every query.
    """

    def __init__(self) -> None:
        self._tables: Dict[int, _CodeTable] = {}
        self._spans: Dict[object, _Spans] = {}

    def catchers(self, frame) -> Optional[Tuple[type, ...]]:
        """The exception classes whose ``except`` clauses an exception
        raised at *frame*'s suspended instruction is matched against
        before it leaves the frame, resolved now; ``()`` when no
        handler covers the instruction, None when the frame certifies
        no exception type."""
        code = frame.f_code
        if not _HAS_TABLE:
            return () if self._line_transparent(code, frame.f_lineno) else None
        table = self._tables.get(id(code))
        if table is None:
            table = self._tables[id(code)] = _CodeTable(code)
        if not table.entries:
            return ()
        clauses = table.clauses_at(frame.f_lasti)
        if not clauses:
            return clauses
        classes: List[type] = []
        for expr in clauses:
            value = _evaluate(expr, frame)
            items = value if type(value) is tuple else (value,)
            if not all(_is_exception_class(item) for item in items):
                return None
            classes.extend(items)
        return tuple(classes)

    def _line_transparent(self, code, lineno: int) -> bool:
        spans = self._spans.get(code, _MISSING)
        if spans is _MISSING:
            spans = self._spans[code] = _guarded_spans(code)
        if spans is None:
            return False
        return not any(low <= lineno <= high for low, high in spans)
