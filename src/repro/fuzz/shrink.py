"""Greedy shrinking of a failing spec to a minimal reproducer.

Given a spec on which some differential check fails, repeatedly try
structure-reducing transformations (drop a workload statement, drop an
op, clear a flag, drop an unreferenced trailing method/child/class) and
keep any candidate on which the *same check* still fails, until no
transformation helps or the evaluation budget runs out.  The failure
predicate re-runs the full harness, so shrinking is slow but honest —
the reported reproducer really does reproduce.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Iterator, Optional, Set

from .spec import (
    OP_CALL,
    OP_GUARDED_CALL,
    OP_SELF_CALL,
    ClassDef,
    MethodDef,
    ProgramSpec,
)

__all__ = ["shrink", "make_failure_predicate"]


def _with_class(spec: ProgramSpec, ci: int, cd: ClassDef) -> ProgramSpec:
    classes = list(spec.classes)
    classes[ci] = cd
    return replace(spec, classes=tuple(classes))


def _with_method(
    spec: ProgramSpec, ci: int, mi: int, md: MethodDef
) -> ProgramSpec:
    cd = spec.classes[ci]
    methods = list(cd.methods)
    methods[mi] = md
    return _with_class(spec, ci, replace(cd, methods=tuple(methods)))


def _valid(spec: ProgramSpec) -> bool:
    """All indices a reduced spec refers to are still in range."""
    count = len(spec.classes)
    if count == 0 or not spec.classes[0].methods:
        return False
    for ci, cd in enumerate(spec.classes):
        if not cd.methods:
            return False
        for child in cd.children:
            if not ci < child < count:
                return False
        for mi, md in enumerate(cd.methods):
            for op in md.ops:
                if op[0] in (OP_CALL, OP_GUARDED_CALL):
                    slot, target = op[1], op[2]
                    if slot >= len(cd.children):
                        return False
                    if target >= len(spec.classes[cd.children[slot]].methods):
                        return False
                elif op[0] == OP_SELF_CALL:
                    if not mi < op[1] < len(cd.methods):
                        return False
    return all(w < len(spec.classes[0].methods) for w in spec.workload)


def _candidates(spec: ProgramSpec) -> Iterator[ProgramSpec]:
    """Reduced variants of *spec*, simplest reductions first.

    Only trailing methods/children/classes are dropped so surviving
    indices keep their meaning; invalid candidates (a dropped element
    something still referred to) are filtered by :func:`_valid`.
    """
    for i in range(len(spec.workload)):
        yield replace(
            spec, workload=spec.workload[:i] + spec.workload[i + 1 :]
        )
    if len(spec.classes) > 1:
        yield replace(spec, classes=spec.classes[:-1])
    for ci, cd in enumerate(spec.classes):
        if len(cd.methods) > 1:
            yield _with_class(spec, ci, replace(cd, methods=cd.methods[:-1]))
        if cd.children:
            yield _with_class(spec, ci, replace(cd, children=cd.children[:-1]))
        if cd.scalars_first:
            yield _with_class(spec, ci, replace(cd, scalars_first=False))
        for mi, md in enumerate(cd.methods):
            for oi in range(len(md.ops)):
                yield _with_method(
                    spec, ci, mi, replace(md, ops=md.ops[:oi] + md.ops[oi + 1 :])
                )
            if md.declares:
                yield _with_method(spec, ci, mi, replace(md, declares=False))
            if md.exception_free:
                yield _with_method(
                    spec, ci, mi, replace(md, exception_free=False)
                )


def shrink(
    spec: ProgramSpec,
    fails: Callable[[ProgramSpec], bool],
    *,
    max_evals: int = 200,
) -> ProgramSpec:
    """Greedily minimize *spec* while ``fails(candidate)`` stays true.

    Args:
        fails: the failure predicate; must be true for *spec* itself
            (the caller established the failure before shrinking).
        max_evals: budget of predicate evaluations — each one re-runs
            full campaigns, so this bounds shrinking wall-clock.

    Returns:
        A locally minimal failing spec (no single candidate reduction of
        it still fails, or the budget ran out).
    """
    current = spec
    evals = 0
    progressed = True
    while progressed and evals < max_evals:
        progressed = False
        for candidate in _candidates(current):
            if evals >= max_evals:
                break
            if not _valid(candidate):
                continue
            evals += 1
            if fails(candidate):
                current = candidate
                progressed = True
                break
    return current


def make_failure_predicate(
    check_names: Iterable[str],
    *,
    engine: str = "both",
    workers: int = 2,
    defect: Optional[str] = None,
    state_backend: str = "graph",
    trace_derive: bool = False,
    variants: int = 0,
    variant_seed: int = 0,
) -> Callable[[ProgramSpec], bool]:
    """Predicate: does any of the *same* checks still fail on a spec?

    Matching on check name (not exact detail) lets the reducer keep a
    candidate whose mismatch message changed cosmetically while the
    underlying disagreement is intact.
    """
    from .harness import check_program

    wanted: Set[str] = set(check_names)

    def fails(candidate: ProgramSpec) -> bool:
        verdict = check_program(
            candidate,
            engine=engine,
            workers=workers,
            defect=defect,
            state_backend=state_backend,
            trace_derive=trace_derive,
            variants=variants,
            variant_seed=variant_seed,
        )
        return any(m.check in wanted for m in verdict.mismatches)

    return fails
