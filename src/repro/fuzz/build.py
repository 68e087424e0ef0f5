"""Materialize a :class:`ProgramSpec` into a runnable subject program.

The spec is rendered to ordinary Python source and ``exec``'d in a fresh
namespace whose ``__name__`` is the fixed :data:`FUZZ_MODULE_NAME`, so
type names — which appear inside run-log ``difference`` strings and are
therefore part of the bit-identical engine comparison — are the same in
every build of the spec.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Any, Callable, Dict, List

from repro.core.exceptions import exception_free, throws
from repro.core.virtualsource import register_virtual_source
from repro.experiments.programs import AppProgram

from .spec import (
    ALIAS_NAME,
    ALIAS_TARGETS,
    GUARD_ALIAS,
    GUARD_DECLARED,
    GUARD_EXCEPTION,
    GUARD_FINALLY,
    GUARD_SUBCLASS,
    GUARD_TUPLE,
    GUARD_WITH,
    OP_APPEND,
    OP_CALL,
    OP_GUARDED_CALL,
    OP_INC,
    OP_NOOP_WRITE,
    OP_RAISE,
    OP_REBIND,
    OP_SELF_CALL,
    ProgramSpec,
)

__all__ = [
    "FUZZ_MODULE_NAME",
    "FuzzDeclaredError",
    "FuzzSubclassError",
    "render_source",
    "build_classes",
    "build_namespace",
    "build_program",
    "make_workload",
]

#: ``__module__`` of every generated class — fixed so graph type names
#: ("repro_fuzz_subject.F0") are identical in every build of a spec.
FUZZ_MODULE_NAME = "repro_fuzz_subject"

#: Language tag of generated programs (the registry uses "C++"/"Java").
FUZZ_LANGUAGE = "Fuzz"


class FuzzDeclaredError(Exception):
    """The declared exception of generated methods.

    Generated workloads catch it per statement; the generic
    ``InjectedRuntimeError`` is deliberately left uncaught there, so an
    injected runtime fault escapes the program (``RunRecord.escaped``)
    unless a guarded call's ``except Exception`` (or the alias bound to
    ``Exception``) catches it first.
    """


class FuzzSubclassError(FuzzDeclaredError):
    """A subclass of the declared exception that nothing raises: a
    handler naming it catches neither injected type."""


#: The ``except`` expression of each handler guard; ``finally`` and
#: ``with`` guards have none.
_HANDLERS = {
    GUARD_DECLARED: "FuzzDeclaredError",
    GUARD_EXCEPTION: "Exception",
    GUARD_TUPLE: "(KeyError, FuzzDeclaredError)",
    GUARD_SUBCLASS: "FuzzSubclassError",
    GUARD_ALIAS: ALIAS_NAME,
}


def _guarded_lines(call: str, guard: str) -> List[str]:
    if guard == GUARD_WITH:
        return ["with suppress(FuzzDeclaredError):", f"    {call}"]
    if guard == GUARD_FINALLY:
        return ["try:", f"    {call}", "finally:",
                "    self.count = self.count + 1"]
    return ["try:", f"    {call}", f"except {_HANDLERS[guard]}:", "    pass"]


def _op_lines(spec: ProgramSpec, class_index: int, method_index: int) -> List[str]:
    cd = spec.classes[class_index]
    md = cd.methods[method_index]
    lines: List[str] = []
    for position, op in enumerate(md.ops):
        kind = op[0]
        if kind == OP_INC:
            lines.append("self.count = self.count + 1")
        elif kind == OP_APPEND:
            lines.append(f"self.items = self.items + [{op[1]}]")
        elif kind == OP_NOOP_WRITE:
            lines.append("self.count = self.count + 0")
        elif kind in (OP_CALL, OP_GUARDED_CALL):
            slot, target = op[1], op[2]
            child = spec.classes[cd.children[slot]]
            call = f"self.kid{slot}.{child.methods[target].name}()"
            if kind == OP_CALL:
                lines.append(call)
            else:
                lines.extend(_guarded_lines(call, op[3]))
        elif kind == OP_SELF_CALL:
            lines.append(f"self.{cd.methods[op[1]].name}()")
        elif kind == OP_RAISE:
            message = f"genuine {cd.name}.{md.name}#{position}"
            lines.append(f"raise FuzzDeclaredError({message!r})")
        elif kind == OP_REBIND:
            lines.append(f"{ALIAS_NAME} = {ALIAS_TARGETS[op[1]]}")
        else:
            raise ValueError(f"unknown op {op!r}")
    if any(op[0] == OP_REBIND for op in md.ops):
        lines.insert(0, f"global {ALIAS_NAME}")
    return lines


def render_source(spec: ProgramSpec) -> str:
    """Render the spec's classes as Python source (the subject program)."""
    out: List[str] = []
    for class_index, cd in enumerate(spec.classes):
        out.append(f"class {cd.name}:")
        out.append("    def __init__(self):")
        scalar_lines = ["self.count = 0", "self.items = []"]
        child_lines = [
            f"self.kid{slot} = {spec.classes[child].name}()"
            for slot, child in enumerate(cd.children)
        ]
        body = (
            scalar_lines + child_lines
            if cd.scalars_first
            else child_lines + scalar_lines
        )
        out.extend(f"        {line}" for line in body)
        for method_index, md in enumerate(cd.methods):
            out.append("")
            if md.declares:
                out.append("    @throws(FuzzDeclaredError)")
            if md.exception_free:
                out.append("    @exception_free")
            out.append(f"    def {md.name}(self):")
            lines = _op_lines(spec, class_index, method_index) or ["pass"]
            out.extend(f"        {line}" for line in lines)
        out.append("")
        out.append("")
    return "\n".join(out)


def build_namespace() -> Dict[str, Any]:
    """The exec namespace every generated subject module runs in."""
    return {
        "__name__": FUZZ_MODULE_NAME,
        "throws": throws,
        "exception_free": exception_free,
        "suppress": suppress,
        "FuzzDeclaredError": FuzzDeclaredError,
        "FuzzSubclassError": FuzzSubclassError,
        ALIAS_NAME: FuzzDeclaredError,
    }


def build_classes(spec: ProgramSpec) -> List[type]:
    """Exec the rendered source; return fresh class objects, spec order."""
    namespace = build_namespace()
    source = render_source(spec)
    # Register the rendered source so inspect.getsource works on the
    # generated methods — the trace pass's source certificate (where
    # code objects carry no exception table) reads method bodies.
    filename = register_virtual_source(f"<{spec.name}>", source)
    exec(compile(source, filename, "exec"), namespace)
    return [namespace[cd.name] for cd in spec.classes]


def make_workload(spec: ProgramSpec, root_cls: type) -> Callable[[], None]:
    """The workload over the freshly built (not yet woven) *root_cls*."""
    method_names = [
        spec.classes[0].methods[index].name for index in spec.workload
    ]
    # The subject module's globals, where OP_REBIND rebinds the alias.
    namespace = vars(root_cls)["__init__"].__globals__

    def body() -> None:
        namespace[ALIAS_NAME] = FuzzDeclaredError  # same start every run
        root = root_cls()  # outside any try: constructor injections escape
        for name in method_names:
            try:
                getattr(root, name)()
            except FuzzDeclaredError:
                pass

    return body


def build_program(spec: ProgramSpec) -> AppProgram:
    """Build a fresh :class:`AppProgram` (fresh classes) from *spec*.

    Every engine runs the result as it is: the shard engine's processes
    inherit it through the fork.
    """
    classes = build_classes(spec)
    return AppProgram(
        name=spec.name,
        language=FUZZ_LANGUAGE,
        classes=classes,
        body=make_workload(spec, classes[0]),
    )
