"""Ground-truth oracle: what the detection pipeline *must* report.

This is an independent re-implementation of the campaign semantics on
the spec level — it never imports the detector, the injection wrapper,
or the classifier it cross-checks.  Object state is modelled as plain
nested dicts, the injected/genuine exceptions as private sentinel
classes, and before/after comparison as deep-copied dict equality
(equivalent to ``graphs_equal`` for the tree-shaped int/list states
generated programs can reach).  If the oracle and the pipeline agree on
every run, mark, and category, two unrelated encodings of the paper's
Listing 1 + Definitions 2/3 reached the same answer; when the harness's
self-check plants a defect in one side, the other catches it.

The simulation leans on the two vocabulary guarantees documented in
:mod:`repro.fuzz.spec`: bodies have no data-dependent control flow (so
point numbering is a pure function of the threshold) and constructors
build trees (so a receiver's dict covers its whole reachable state).
Handlers are modelled by the name of the class they catch: each
exception is the declared error or the generic runtime one, and a
handler class catches the names in :data:`_CATCHES`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .spec import (
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

__all__ = ["ExpectedRun", "OracleResult", "simulate", "classify_runs"]

#: Mark verdict strings, duplicated from the run log on purpose — the
#: oracle must not import the module it validates.
ATOMIC = "atomic"
NONATOMIC = "nonatomic"

CATEGORY_ATOMIC = "atomic"
CATEGORY_CONDITIONAL = "conditional"
CATEGORY_PURE = "pure"

_DECLARED = "FuzzDeclaredError"
_RUNTIME = "InjectedRuntimeError"

#: The simulated exceptions a handler naming each class catches: the
#: declared error, both, or none (nothing raises FuzzSubclassError).
_CATCHES = {
    "FuzzDeclaredError": (_DECLARED,),
    "Exception": (_DECLARED, _RUNTIME),
    "FuzzSubclassError": (),
}
#: The class each guard's handler names; the alias's is read at the
#: moment it matches, and a ``finally`` guard names none.
_GUARD_CLASS = {
    GUARD_DECLARED: "FuzzDeclaredError",
    GUARD_EXCEPTION: "Exception",
    GUARD_TUPLE: "FuzzDeclaredError",  # (KeyError, FuzzDeclaredError)
    GUARD_SUBCLASS: "FuzzSubclassError",
    GUARD_WITH: "FuzzDeclaredError",  # suppress(FuzzDeclaredError)
}


class _SimInjected(Exception):
    """Stands in for an injected exception (tagged, any type)."""

    def __init__(self, exc_name: str) -> None:
        super().__init__(exc_name)
        self.exc_name = exc_name


class _SimGenuine(Exception):
    """Stands in for a genuine ``FuzzDeclaredError`` raised by OP_RAISE."""


@dataclass
class ExpectedRun:
    """What one injection run must record."""

    injection_point: int
    injected_method: Optional[str]
    injected_exception: Optional[str]
    completed: bool
    escaped: bool
    #: ``(method, verdict)`` in mark order (innermost frame first — marks
    #: are appended while the exception unwinds).
    marks: Tuple[Tuple[str, str], ...]


@dataclass
class OracleResult:
    """The complete expected outcome of a campaign over one spec."""

    total_points: int
    call_counts: Dict[str, int]
    methods_seen: List[str]
    runs: List[ExpectedRun]
    #: Per-method category after the exception-free policy filter.
    categories: Dict[str, str]
    #: Methods the masking step must wrap (sorted pure methods).
    to_wrap: List[str]
    exception_free: frozenset


class _Ctx:
    """Counter + log state of one simulated execution."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.point = 0
        self.marks: List[Tuple[str, str]] = []
        self.injected: Optional[Tuple[str, str]] = None
        self.call_counts: Dict[str, int] = {}
        self.methods_seen: List[str] = []
        #: The class the handler alias names; every run starts alike.
        self.alias = ALIAS_TARGETS[0]

    def catches(self, guard: str, exc: Exception) -> bool:
        """Whether *guard*'s handler catches the simulated *exc*."""
        cls = self.alias if guard == GUARD_ALIAS else _GUARD_CLASS.get(guard)
        name = exc.exc_name if isinstance(exc, _SimInjected) else _DECLARED
        return name in _CATCHES.get(cls, ())

    def note_call(self, key: str) -> None:
        if key not in self.call_counts:
            self.methods_seen.append(key)
            self.call_counts[key] = 0
        self.call_counts[key] += 1


def _invoke(ctx: _Ctx, key: str, repertoire: Tuple[str, ...], body, state) -> None:
    """One woven call: repertoire walk, snapshot, body, mark-on-unwind."""
    if ctx.threshold == 0:
        ctx.note_call(key)
    for exc_name in repertoire:
        ctx.point += 1
        if ctx.point == ctx.threshold:
            ctx.injected = (key, exc_name)
            raise _SimInjected(exc_name)
    if ctx.threshold == 0:
        body()
        return
    before = copy.deepcopy(state)
    try:
        body()
    except (_SimInjected, _SimGenuine):
        ctx.marks.append((key, NONATOMIC if state != before else ATOMIC))
        raise


def _construct(spec: ProgramSpec, ctx: _Ctx, class_index: int) -> Dict[str, Any]:
    """Simulate ``F<i>()``: blank state exists before the woven __init__."""
    cd = spec.classes[class_index]
    state: Dict[str, Any] = {}

    def body() -> None:
        def scalars() -> None:
            state["count"] = 0
            state["items"] = []

        def children() -> None:
            for slot, child in enumerate(cd.children):
                state[f"kid{slot}"] = _construct(spec, ctx, child)

        if cd.scalars_first:
            scalars()
            children()
        else:
            children()
            scalars()

    _invoke(ctx, spec.constructor_key(class_index), (_RUNTIME,), body, state)
    return state


def _run_method(
    spec: ProgramSpec,
    ctx: _Ctx,
    class_index: int,
    method_index: int,
    state: Dict[str, Any],
) -> None:
    cd = spec.classes[class_index]
    md = cd.methods[method_index]
    repertoire = (_DECLARED, _RUNTIME) if md.declares else (_RUNTIME,)

    def body() -> None:
        for op in md.ops:
            kind = op[0]
            if kind == OP_INC:
                state["count"] = state["count"] + 1
            elif kind == OP_APPEND:
                state["items"] = state["items"] + [op[1]]
            elif kind == OP_NOOP_WRITE:
                state["count"] = state["count"] + 0
            elif kind == OP_CALL:
                slot, target = op[1], op[2]
                _run_method(
                    spec, ctx, cd.children[slot], target, state[f"kid{slot}"]
                )
            elif kind == OP_GUARDED_CALL:
                slot, target, guard = op[1], op[2], op[3]
                try:
                    _run_method(
                        spec, ctx, cd.children[slot], target,
                        state[f"kid{slot}"],
                    )
                except (_SimInjected, _SimGenuine) as exc:
                    if not ctx.catches(guard, exc):
                        raise
                finally:
                    if guard == GUARD_FINALLY:
                        state["count"] = state["count"] + 1
            elif kind == OP_REBIND:
                ctx.alias = ALIAS_TARGETS[op[1]]
            elif kind == OP_SELF_CALL:
                _run_method(spec, ctx, class_index, op[1], state)
            elif kind == OP_RAISE:
                raise _SimGenuine(f"{cd.name}.{md.name}")
            else:  # pragma: no cover - specs are generated, not hand-made
                raise ValueError(f"unknown op {op!r}")

    _invoke(ctx, spec.method_key(class_index, method_index), repertoire, body, state)


def _simulate_run(spec: ProgramSpec, threshold: int) -> Tuple[_Ctx, bool, bool]:
    """Simulate one program execution; returns ``(ctx, completed, escaped)``."""
    ctx = _Ctx(threshold)
    completed = False
    escaped = False
    try:
        root = _construct(spec, ctx, 0)
        for method_index in spec.workload:
            try:
                _run_method(spec, ctx, 0, method_index, root)
            except _SimGenuine:
                pass
            except _SimInjected as exc:
                # The workload's ``except FuzzDeclaredError`` clause also
                # catches *injected* declared exceptions — injection does
                # not change an exception's type.
                if exc.exc_name != _DECLARED:
                    raise
        completed = True
    except _SimInjected:
        escaped = True
    except _SimGenuine as exc:  # pragma: no cover - impossible by construction
        raise AssertionError(
            f"genuine exception escaped the simulated workload: {exc}"
        )
    return ctx, completed, escaped


def classify_runs(
    runs: List[ExpectedRun],
    methods_seen: List[str],
    exception_free: frozenset,
) -> Dict[str, str]:
    """Definitions 2/3 over expected runs, after the §4.3 policy filter."""
    kept = [r for r in runs if r.injected_method not in exception_free]
    universe: List[str] = list(methods_seen)
    for run in kept:
        for method, _ in run.marks:
            if method not in universe:
                universe.append(method)
    nonatomic = {m: 0 for m in universe}
    first_marked = {m: False for m in universe}
    for run in kept:
        seen_nonatomic = False
        for method, verdict in run.marks:
            if verdict == NONATOMIC:
                nonatomic[method] += 1
                if not seen_nonatomic:
                    # first *non-atomic* mark of the run — atomic marks
                    # earlier on the unwind path do not spoil purity
                    first_marked[method] = True
                seen_nonatomic = True
    categories: Dict[str, str] = {}
    for method in universe:
        if nonatomic[method] == 0:
            categories[method] = CATEGORY_ATOMIC
        elif first_marked[method]:
            categories[method] = CATEGORY_PURE
        else:
            categories[method] = CATEGORY_CONDITIONAL
    return categories


def simulate(spec: ProgramSpec) -> OracleResult:
    """Compute the full expected campaign outcome for *spec*."""
    profile, completed, escaped = _simulate_run(spec, 0)
    if not completed or escaped or profile.marks:
        raise AssertionError(f"profiling simulation misbehaved for {spec.name}")
    total = profile.point

    runs: List[ExpectedRun] = []
    for threshold in list(range(1, total + 1)) + [total + 1]:
        ctx, run_completed, run_escaped = _simulate_run(spec, threshold)
        injected_method, injected_exception = ctx.injected or (None, None)
        runs.append(
            ExpectedRun(
                injection_point=threshold,
                injected_method=injected_method,
                injected_exception=injected_exception,
                completed=run_completed,
                escaped=run_escaped,
                marks=tuple(ctx.marks),
            )
        )

    exception_free = frozenset(
        spec.method_key(ci, mi)
        for ci, cd in enumerate(spec.classes)
        for mi, md in enumerate(cd.methods)
        if md.exception_free
    )
    categories = classify_runs(runs, profile.methods_seen, exception_free)
    to_wrap = sorted(
        m for m, category in categories.items() if category == CATEGORY_PURE
    )
    return OracleResult(
        total_points=total,
        call_counts=dict(profile.call_counts),
        methods_seen=list(profile.methods_seen),
        runs=runs,
        categories=categories,
        to_wrap=to_wrap,
        exception_free=exception_free,
    )
