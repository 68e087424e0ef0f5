"""Tests of the independent oracle on handcrafted specs.

Each spec here is small enough to reason about by hand, so the expected
category of every method is stated in the test — the oracle must match
the hand analysis, and (via ``check_program``) the real pipeline must
match the oracle.
"""

import pytest

from repro.fuzz import ProgramSpec, check_program, simulate
from repro.fuzz.spec import (
    GUARD_ALIAS,
    GUARD_DECLARED,
    GUARD_EXCEPTION,
    GUARD_FINALLY,
    GUARD_SUBCLASS,
    GUARD_TUPLE,
    GUARD_WITH,
    GUARDS,
    OP_CALL,
    OP_GUARDED_CALL,
    OP_INC,
    OP_RAISE,
    OP_REBIND,
    OP_SELF_CALL,
    ClassDef,
    MethodDef,
)


def _spec(name, classes, workload):
    return ProgramSpec(name=name, classes=tuple(classes), workload=tuple(workload))


def _assert_pipeline_agrees(spec):
    verdict = check_program(spec, engine="sequential")
    assert verdict.ok, [m.to_dict() for m in verdict.mismatches]


def test_pure_write_then_raise_is_never_marked():
    """A method whose only injection point is at entry is never active
    when an exception fires inside it, so it stays atomic."""
    spec = _spec(
        "hand-atomic",
        [ClassDef("F0", (), (MethodDef("m0", ((OP_INC,),)),))],
        [0],
    )
    oracle = simulate(spec)
    assert oracle.categories == {
        "F0.__init__": "atomic",
        "F0.m0": "atomic",
    }
    assert oracle.to_wrap == []
    # __init__ (1 point) + m0 (1 point)
    assert oracle.total_points == 2
    _assert_pipeline_agrees(spec)


def test_dirty_write_before_genuine_raise_is_pure():
    spec = _spec(
        "hand-pure",
        [ClassDef("F0", (), (MethodDef("m0", ((OP_INC,), (OP_RAISE,))),))],
        [0],
    )
    oracle = simulate(spec)
    assert oracle.categories["F0.m0"] == "pure"
    assert oracle.categories["F0.__init__"] == "atomic"
    assert oracle.to_wrap == ["F0.m0"]
    _assert_pipeline_agrees(spec)


def test_caller_dirty_only_through_callee_is_conditional():
    """The parent writes nothing itself; its graph changes only because
    the child's state is reachable from it.  The child's failure is
    always marked first (innermost), so the parent is conditional."""
    spec = _spec(
        "hand-conditional",
        [
            ClassDef("F0", (1,), (MethodDef("m0", ((OP_CALL, 0, 0),)),)),
            ClassDef("F1", (), (MethodDef("m0", ((OP_INC,), (OP_RAISE,))),)),
        ],
        [0],
    )
    oracle = simulate(spec)
    assert oracle.categories["F1.m0"] == "pure"
    assert oracle.categories["F0.m0"] == "conditional"
    assert oracle.to_wrap == ["F1.m0"]
    _assert_pipeline_agrees(spec)


def test_declared_exception_doubles_injection_points():
    plain = _spec(
        "hand-plain",
        [ClassDef("F0", (), (MethodDef("m0", ((OP_INC,),)),))],
        [0],
    )
    declared = _spec(
        "hand-declared",
        [ClassDef("F0", (), (MethodDef("m0", ((OP_INC,),), declares=True),))],
        [0],
    )
    assert simulate(declared).total_points == simulate(plain).total_points + 1
    _assert_pipeline_agrees(declared)


def test_exception_free_runs_are_dropped_before_classification():
    """Injecting at the entry of an ``@exception_free`` method would mark
    the caller non-atomic; the policy filter discards those runs, so the
    caller stays atomic."""
    template = [
        ClassDef(
            "F0",
            (),
            (
                MethodDef("m0", ((OP_INC,), (OP_SELF_CALL, 1))),
                MethodDef("m1", ((OP_INC,),), exception_free=True),
            ),
        )
    ]
    spec = _spec("hand-excfree", template, [0])
    oracle = simulate(spec)
    assert set(oracle.exception_free) == {"F0.m1"}
    assert oracle.categories["F0.m0"] == "atomic"

    unfiltered = _spec(
        "hand-excfree-off",
        [
            ClassDef(
                "F0",
                (),
                (
                    MethodDef("m0", ((OP_INC,), (OP_SELF_CALL, 1))),
                    MethodDef("m1", ((OP_INC,),)),
                ),
            )
        ],
        [0],
    )
    assert simulate(unfiltered).categories["F0.m0"] == "pure"
    _assert_pipeline_agrees(spec)
    _assert_pipeline_agrees(unfiltered)


def test_simulation_is_deterministic():
    from repro.fuzz import generate_batch

    for spec in generate_batch(17, 5):
        first = simulate(spec)
        second = simulate(spec)
        assert first.categories == second.categories
        assert first.runs == second.runs
        assert first.total_points == second.total_points


def _guarded_spec(guard, *, rebind=None, declares=True, raises=False):
    """F0.m0 calls F1.m0 under *guard*, then writes; F1.m0 declares the
    fuzz error (two injection points) and may raise it genuinely.  With
    *rebind*, F0.m0 rebinds the alias after the guarded call and the
    workload runs it twice."""
    ops = [(OP_GUARDED_CALL, 0, 0, guard)]
    if rebind is not None:
        ops.append((OP_REBIND, rebind))
    ops.append((OP_INC,))
    leaf = ((OP_INC,), (OP_RAISE,)) if raises else ((OP_INC,),)
    return _spec(
        f"hand-guard-{guard}",
        [
            ClassDef("F0", (1,), (MethodDef("m0", tuple(ops)),)),
            ClassDef("F1", (), (MethodDef("m0", leaf, declares=declares),)),
        ],
        [0, 0] if rebind is not None else [0],
    )


#: Per guard, the exceptions injected at F1.m0 that F0.m0 catches.
_CAUGHT = {
    GUARD_DECLARED: {"FuzzDeclaredError"},
    GUARD_EXCEPTION: {"FuzzDeclaredError", "InjectedRuntimeError"},
    GUARD_TUPLE: {"FuzzDeclaredError"},
    GUARD_SUBCLASS: set(),
    GUARD_ALIAS: {"FuzzDeclaredError"},
    GUARD_FINALLY: set(),
    GUARD_WITH: {"FuzzDeclaredError"},
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guarded_call_catches_by_handler_class(guard):
    oracle = simulate(_guarded_spec(guard))
    # An exception F0.m0 catches never crosses its wrapper, so never
    # marks it.
    caught = {
        r.injected_exception
        for r in oracle.runs
        if r.injected_method == "F1.m0"
        and "F0.m0" not in {method for method, _ in r.marks}
    }
    assert caught == _CAUGHT[guard]
    _assert_pipeline_agrees(_guarded_spec(guard))
    _assert_pipeline_agrees(_guarded_spec(guard, raises=True))


def test_writing_finally_marks_the_caller_non_atomic():
    oracle = simulate(_guarded_spec(GUARD_FINALLY))
    crossing = [r for r in oracle.runs if r.injected_method == "F1.m0"]
    assert crossing
    for run in crossing:
        assert ("F0.m0", "nonatomic") in run.marks


def test_rebound_alias_catches_by_its_binding_at_the_time():
    # m0 runs twice: the first call's guard names the declared error,
    # the second's names Exception, which also catches the runtime one.
    spec = _guarded_spec(GUARD_ALIAS, rebind=1)
    oracle = simulate(spec)
    runtime = [
        r for r in oracle.runs
        if r.injected_method == "F1.m0"
        and r.injected_exception == "InjectedRuntimeError"
    ]
    assert [r.completed for r in runtime] == [False, True]
    verdict = check_program(spec, engine="sequential", trace_derive=True)
    assert verdict.ok, [m.to_dict() for m in verdict.mismatches]
