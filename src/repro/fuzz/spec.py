"""Specifications of randomly generated subject programs.

A :class:`ProgramSpec` is a complete, picklable, JSON-round-trippable
description of one synthetic subject program: a small DAG of classes
(instances form a tree — every constructor builds fresh children, so no
aliasing ever arises), straight-line method bodies built from a tiny op
vocabulary, and a workload calling root-class methods.

Two properties of the vocabulary are load-bearing for the ground-truth
oracle (:mod:`repro.fuzz.oracle`):

* **No data-dependent control flow.**  Bodies are straight-line op
  sequences, so every execution of a program takes the same path until
  an exception fires, and injection-point numbering is identical across
  runs and across masked/unmasked variants of the program.
* **Attribute reassignment only.**  State lives in instance attributes
  (``count``, ``items``, ``kid<i>``) and lists are extended by
  *reassignment* (``self.items = self.items + [tag]``), never mutated in
  place.  That keeps the undo-log (write-barrier) masking strategy sound
  for every generated program — its documented limitation is exactly
  in-place container mutation.

Guarded calls (:data:`OP_GUARDED_CALL`) put handlers inside method
bodies.  Which handler catches what is decided by the exception's type
and, for the :data:`GUARD_ALIAS` handler, by the module-level name
:data:`ALIAS_NAME`, which :data:`OP_REBIND` reassigns mid-run; every
execution of the workload starts from the same binding, so runs stay
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

__all__ = [
    "OP_INC",
    "OP_APPEND",
    "OP_NOOP_WRITE",
    "OP_CALL",
    "OP_SELF_CALL",
    "OP_RAISE",
    "OP_GUARDED_CALL",
    "OP_REBIND",
    "GUARDS",
    "GUARD_ALIAS",
    "GUARD_DECLARED",
    "GUARD_EXCEPTION",
    "GUARD_FINALLY",
    "GUARD_SUBCLASS",
    "GUARD_TUPLE",
    "GUARD_WITH",
    "ALIAS_NAME",
    "ALIAS_TARGETS",
    "MethodDef",
    "ClassDef",
    "ProgramSpec",
]

#: ``self.count = self.count + 1`` — a visible mutation of the receiver.
OP_INC = "inc"
#: ``self.items = self.items + [tag]`` — list growth by reassignment.
OP_APPEND = "append"
#: ``self.count = self.count + 0`` — a write with no visible effect
#: (exercises the write barrier's first-write bookkeeping, invisible to
#: object-graph comparison).
OP_NOOP_WRITE = "noop_write"
#: ``self.kid<slot>.m<idx>()`` — call a method on a child instance.
OP_CALL = "call"
#: ``self.m<idx>()`` — call a later method on the same receiver
#: (targets only higher method indices, so no recursion).
OP_SELF_CALL = "self_call"
#: ``raise FuzzDeclaredError(...)`` — a genuine error site.
OP_RAISE = "raise"
#: ``self.kid<slot>.m<idx>()`` inside the handler shape ``GUARD_*`` —
#: ``("guarded_call", slot, idx, guard)``.
OP_GUARDED_CALL = "guarded_call"
#: ``ALIAS_NAME = ALIAS_TARGETS[i]`` — ``("rebind", i)``.
OP_REBIND = "rebind"

#: ``try: ... except FuzzDeclaredError: pass``
GUARD_DECLARED = "declared"
#: ``try: ... except Exception: pass``
GUARD_EXCEPTION = "exception"
#: ``try: ... except (KeyError, FuzzDeclaredError): pass``
GUARD_TUPLE = "tuple"
#: ``try: ... except FuzzSubclassError: pass`` — a subclass of the
#: declared error that nothing raises.
GUARD_SUBCLASS = "subclass"
#: ``try: ... except <ALIAS_NAME>: pass``
GUARD_ALIAS = "alias"
#: ``try: ... finally: self.count = self.count + 1``
GUARD_FINALLY = "finally"
#: ``with suppress(FuzzDeclaredError): ...``
GUARD_WITH = "with"
GUARDS = (
    GUARD_DECLARED,
    GUARD_EXCEPTION,
    GUARD_TUPLE,
    GUARD_SUBCLASS,
    GUARD_ALIAS,
    GUARD_FINALLY,
    GUARD_WITH,
)

#: The module-level handler alias and the classes it can be bound to;
#: each workload execution binds it to the first.
ALIAS_NAME = "FuzzAlias"
ALIAS_TARGETS = ("FuzzDeclaredError", "Exception", "FuzzSubclassError")


@dataclass(frozen=True)
class MethodDef:
    """One generated method: a name and a straight-line op sequence.

    Attributes:
        name: attribute name (``m0``, ``m1``, ...).
        ops: op tuples — see the ``OP_*`` constants.
        declares: render with ``@throws(FuzzDeclaredError)``; the method
            then has *two* injection points per call (declared exception
            first, then the generic runtime exception).
        exception_free: render with ``@exception_free``; the policy layer
            drops runs injected inside the method before classification.
            The generator only sets this on methods that genuinely cannot
            raise (no raise/call ops), keeping the assertion honest.
    """

    name: str
    ops: Tuple[Tuple[Any, ...], ...]
    declares: bool = False
    exception_free: bool = False


@dataclass(frozen=True)
class ClassDef:
    """One generated class.

    Attributes:
        name: class name (``F0``, ``F1``, ...).
        children: indices (into ``ProgramSpec.classes``) of the child
            instances the constructor builds, one per ``kid<slot>``
            attribute.  Children always have a strictly larger index, so
            the class graph is a DAG and instance graphs are trees.
        methods: the class's methods, in index order.
        scalars_first: initialize ``count``/``items`` before constructing
            children (varies which constructor prefix is visible when an
            injection aborts construction).
    """

    name: str
    children: Tuple[int, ...]
    methods: Tuple[MethodDef, ...]
    scalars_first: bool = False


@dataclass(frozen=True)
class ProgramSpec:
    """A complete generated subject program.

    ``classes[0]`` is the root class; the workload constructs one root
    instance (outside any try block — injections during construction
    escape the program) and then executes one
    ``try: root.m<i>() except FuzzDeclaredError: pass`` statement per
    ``workload`` entry.
    """

    name: str
    classes: Tuple[ClassDef, ...]
    workload: Tuple[int, ...]

    # -- structure queries -------------------------------------------

    def method_key(self, class_index: int, method_index: int) -> str:
        cd = self.classes[class_index]
        return f"{cd.name}.{cd.methods[method_index].name}"

    def constructor_key(self, class_index: int) -> str:
        return f"{self.classes[class_index].name}.__init__"

    def depth(self) -> int:
        """Longest root-to-leaf chain in the class DAG (0 = leaf root)."""
        memo: Dict[int, int] = {}

        def walk(index: int) -> int:
            if index not in memo:
                cd = self.classes[index]
                memo[index] = (
                    1 + max(walk(child) for child in cd.children)
                    if cd.children
                    else 0
                )
            return memo[index]

        return walk(0)

    # -- (de)serialization -------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "workload": list(self.workload),
            "classes": [
                {
                    "name": cd.name,
                    "children": list(cd.children),
                    "scalars_first": cd.scalars_first,
                    "methods": [
                        {
                            "name": md.name,
                            "ops": [list(op) for op in md.ops],
                            "declares": md.declares,
                            "exception_free": md.exception_free,
                        }
                        for md in cd.methods
                    ],
                }
                for cd in self.classes
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProgramSpec":
        classes: List[ClassDef] = []
        for cd in data["classes"]:
            methods = tuple(
                MethodDef(
                    name=md["name"],
                    ops=tuple(tuple(op) for op in md["ops"]),
                    declares=md.get("declares", False),
                    exception_free=md.get("exception_free", False),
                )
                for md in cd["methods"]
            )
            classes.append(
                ClassDef(
                    name=cd["name"],
                    children=tuple(cd.get("children", ())),
                    methods=methods,
                    scalars_first=cd.get("scalars_first", False),
                )
            )
        return cls(
            name=data["name"],
            classes=tuple(classes),
            workload=tuple(data.get("workload", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProgramSpec":
        return cls.from_dict(json.loads(text))
