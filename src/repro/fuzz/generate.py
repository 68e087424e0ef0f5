"""Seeded, deterministic generation of random subject programs.

Each program is derived from ``random.Random(seed * 1000003 + index)``,
so program *index* of a batch is a pure function of ``(seed, index)`` —
the same seed always yields byte-identical specs (and therefore
byte-identical campaign logs and fuzz reports), independent of batch
size or which other programs ran before it.

A batch program (:func:`generate_guarded`) is :func:`generate_program`'s
spec with handlers put inside method bodies from a second stream of its
own, so the specs :func:`generate_program` returns never change.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Tuple

from .spec import (
    ALIAS_TARGETS,
    GUARD_ALIAS,
    GUARDS,
    OP_APPEND,
    OP_CALL,
    OP_GUARDED_CALL,
    OP_INC,
    OP_NOOP_WRITE,
    OP_RAISE,
    OP_REBIND,
    OP_SELF_CALL,
    ClassDef,
    MethodDef,
    ProgramSpec,
)

__all__ = ["generate_program", "generate_guarded", "generate_batch"]

#: Multiplier decorrelating per-program streams derived from one seed.
_STREAM_STRIDE = 1000003

#: Upper bound on classes per program (small keeps campaigns fast while
#: still producing every category mix).
_MAX_CLASSES = 4
_MAX_METHODS = 2
_MAX_OPS = 3
_MAX_CHILDREN = 2
_MAX_WORKLOAD = 3
#: Share of a batch program's child calls that get a handler of their own.
_GUARD_SHARE = 0.5


def _gen_ops(
    rng: random.Random,
    method_index: int,
    method_count: int,
    children: Tuple[int, ...],
    method_counts: List[int],
) -> Tuple[Tuple, ...]:
    """A random straight-line body for method ``m<method_index>``."""
    ops: List[Tuple] = []
    for _ in range(rng.randint(1, _MAX_OPS)):
        choices = [(OP_INC, 30), (OP_APPEND, 15), (OP_NOOP_WRITE, 10), (OP_RAISE, 10)]
        if children:
            choices.append((OP_CALL, 30))
        if method_index < method_count - 1:
            choices.append((OP_SELF_CALL, 10))
        total = sum(weight for _, weight in choices)
        pick = rng.randrange(total)
        for kind, weight in choices:
            if pick < weight:
                break
            pick -= weight
        if kind == OP_APPEND:
            ops.append((OP_APPEND, rng.randint(0, 9)))
        elif kind == OP_CALL:
            slot = rng.randrange(len(children))
            target = rng.randrange(method_counts[children[slot]])
            ops.append((OP_CALL, slot, target))
        elif kind == OP_SELF_CALL:
            ops.append((OP_SELF_CALL, rng.randint(method_index + 1, method_count - 1)))
        else:
            ops.append((kind,))
    return tuple(ops)


def generate_program(seed: int, index: int, *, max_depth: int = 3) -> ProgramSpec:
    """Generate program *index* of the batch for *seed*.

    Args:
        max_depth: bound on the class-DAG depth (children always have a
            strictly larger class index, so capping the class count at
            ``max_depth + 1`` caps every root-to-leaf chain).
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    rng = random.Random(seed * _STREAM_STRIDE + index)
    class_count = rng.randint(1, min(_MAX_CLASSES, max_depth + 1))

    classes: List[ClassDef] = []
    method_counts: List[int] = [
        rng.randint(1, _MAX_METHODS) for _ in range(class_count)
    ]
    for i in range(class_count):
        child_budget = min(_MAX_CHILDREN, class_count - 1 - i)
        children = tuple(
            rng.randint(i + 1, class_count - 1)
            for _ in range(rng.randint(0, child_budget))
        )
        methods: List[MethodDef] = []
        for m in range(method_counts[i]):
            declares = rng.random() < 0.3
            ops = _gen_ops(rng, m, method_counts[i], children, method_counts)
            raises = any(
                op[0] in (OP_RAISE, OP_CALL, OP_SELF_CALL) for op in ops
            )
            methods.append(
                MethodDef(
                    name=f"m{m}",
                    ops=ops,
                    declares=declares,
                    exception_free=(
                        not declares and not raises and rng.random() < 0.3
                    ),
                )
            )
        classes.append(
            ClassDef(
                name=f"F{i}",
                children=children,
                methods=tuple(methods),
                scalars_first=rng.random() < 0.5,
            )
        )

    workload = tuple(
        rng.randrange(method_counts[0])
        for _ in range(rng.randint(1, _MAX_WORKLOAD))
    )
    return ProgramSpec(
        name=f"fuzz-{seed}-{index}",
        classes=tuple(classes),
        workload=workload,
    )


def _guarded_ops(
    rng: random.Random, md: MethodDef, children: Tuple[int, ...],
    method_counts: List[int],
) -> Tuple[Tuple, ...]:
    """*md*'s ops with about half its child calls guarded, and, in a
    method that may raise and has children to call, a guarded call
    inserted at a random position half the time."""
    ops = [
        (OP_GUARDED_CALL, op[1], op[2], rng.choice(GUARDS))
        if op[0] == OP_CALL and rng.random() < _GUARD_SHARE
        else op
        for op in md.ops
    ]
    if children and not md.exception_free and rng.random() < _GUARD_SHARE:
        slot = rng.randrange(len(children))
        target = rng.randrange(method_counts[children[slot]])
        ops.insert(
            rng.randint(0, len(ops)),
            (OP_GUARDED_CALL, slot, target, rng.choice(GUARDS)),
        )
    return tuple(ops)


def generate_guarded(
    seed: int, index: int, *, max_depth: int = 3
) -> ProgramSpec:
    """Program *index* of the batch for *seed*: :func:`generate_program`'s
    spec with handlers inside method bodies (:func:`_guarded_ops`) and,
    when a guard names the handler alias, the alias rebound right after
    the first such guard."""
    spec = generate_program(seed, index, max_depth=max_depth)
    rng = random.Random(f"guards-{seed}-{index}")
    method_counts = [len(cd.methods) for cd in spec.classes]
    classes = [
        replace(cd, methods=tuple(
            replace(md, ops=_guarded_ops(rng, md, cd.children, method_counts))
            for md in cd.methods
        ))
        for cd in spec.classes
    ]
    aliased = [
        (ci, mi, oi)
        for ci, cd in enumerate(classes)
        for mi, md in enumerate(cd.methods)
        for oi, op in enumerate(md.ops)
        if op[0] == OP_GUARDED_CALL and op[3] == GUARD_ALIAS
    ]
    if aliased:
        # Rebind right after the first alias guard, so the guard's next
        # execution matches against another class.
        ci, mi, oi = aliased[0]
        cd = classes[ci]
        md = cd.methods[mi]
        rebind = (OP_REBIND, rng.randrange(1, len(ALIAS_TARGETS)))
        methods = list(cd.methods)
        methods[mi] = replace(
            md, ops=md.ops[:oi + 1] + (rebind,) + md.ops[oi + 1:]
        )
        classes[ci] = replace(cd, methods=tuple(methods))
        if ci == 0:
            # The workload then runs the guard again after the rebind.
            return replace(
                spec, classes=tuple(classes), workload=spec.workload + (mi,)
            )
    return replace(spec, classes=tuple(classes))


def generate_batch(
    seed: int, count: int, *, max_depth: int = 3
) -> List[ProgramSpec]:
    """Generate ``count`` independent batch programs for *seed*."""
    return [
        generate_guarded(seed, index, max_depth=max_depth)
        for index in range(count)
    ]
