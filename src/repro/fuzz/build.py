"""Materialize a :class:`ProgramSpec` into a runnable subject program.

The spec is rendered to ordinary Python source and ``exec``'d in a fresh
namespace whose ``__name__`` is the fixed :data:`FUZZ_MODULE_NAME`, so
type names — which appear inside run-log ``difference`` strings and are
therefore part of the bit-identical engine comparison — are the same in
every build of the spec.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.core.exceptions import exception_free, throws
from repro.core.virtualsource import register_virtual_source
from repro.experiments.programs import AppProgram

from .spec import (
    OP_APPEND,
    OP_CALL,
    OP_INC,
    OP_NOOP_WRITE,
    OP_RAISE,
    OP_SELF_CALL,
    ProgramSpec,
)

__all__ = [
    "FUZZ_MODULE_NAME",
    "FuzzDeclaredError",
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
    ``InjectedRuntimeError`` is deliberately left uncaught so injected
    runtime faults escape the program (``RunRecord.escaped``).
    """


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
        elif kind == OP_CALL:
            slot, target = op[1], op[2]
            child = spec.classes[cd.children[slot]]
            lines.append(f"self.kid{slot}.{child.methods[target].name}()")
        elif kind == OP_SELF_CALL:
            lines.append(f"self.{cd.methods[op[1]].name}()")
        elif kind == OP_RAISE:
            message = f"genuine {cd.name}.{md.name}#{position}"
            lines.append(f"raise FuzzDeclaredError({message!r})")
        else:
            raise ValueError(f"unknown op {op!r}")
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
        "FuzzDeclaredError": FuzzDeclaredError,
    }


def build_classes(spec: ProgramSpec) -> List[type]:
    """Exec the rendered source; return fresh class objects, spec order."""
    namespace = build_namespace()
    source = render_source(spec)
    # Register the rendered source so inspect.getsource works on the
    # generated methods — the trace pass's transparency certificates
    # read method bodies.
    filename = register_virtual_source(f"<{spec.name}>", source)
    exec(compile(source, filename, "exec"), namespace)
    return [namespace[cd.name] for cd in spec.classes]


def make_workload(spec: ProgramSpec, root_cls: type) -> Callable[[], None]:
    method_names = [
        spec.classes[0].methods[index].name for index in spec.workload
    ]

    def body() -> None:
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
