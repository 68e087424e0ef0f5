"""Tests for the greedy spec shrinker."""

from repro.fuzz import generate_guarded, generate_program, shrink
from repro.fuzz.shrink import _candidates, _valid
from repro.fuzz.spec import OP_INC, OP_RAISE, ClassDef, MethodDef, ProgramSpec


def _size(spec):
    return (
        len(spec.classes)
        + sum(len(cd.methods) for cd in spec.classes)
        + sum(len(md.ops) for cd in spec.classes for md in cd.methods)
        + len(spec.workload)
    )


def test_all_candidates_of_generated_specs_stay_wellformed():
    for index in range(20):
        generate = generate_program if index < 10 else generate_guarded
        spec = generate(23, index)
        assert _valid(spec)
        for candidate in _candidates(spec):
            if _valid(candidate):
                # a valid candidate must build & simulate without error
                from repro.fuzz import build_program, simulate

                simulate(candidate)
                build_program(candidate).body()


def test_shrink_minimizes_synthetic_predicate():
    """With 'fails iff any raise op present' the minimum is one class,
    one method, one op."""
    spec = generate_program(29, 4)

    def has_raise(candidate):
        return any(
            op[0] == OP_RAISE
            for cd in candidate.classes
            for md in cd.methods
            for op in md.ops
        )

    # pick a seed/index combination that actually contains a raise
    index = 0
    while not has_raise(spec):
        index += 1
        spec = generate_program(29, index)

    small = shrink(spec, has_raise, max_evals=400)
    assert has_raise(small)
    assert _valid(small)
    assert _size(small) <= _size(spec)
    # locally minimal: exactly the raise op survives (only trailing
    # classes can be dropped, so earlier classes remain as empty husks)
    all_ops = [
        op for cd in small.classes for md in cd.methods for op in md.ops
    ]
    assert all_ops == [(OP_RAISE,)]
    assert all(len(cd.methods) == 1 for cd in small.classes)
    assert len(small.workload) == 0


def test_shrink_respects_eval_budget():
    spec = generate_program(29, 0)
    evals = []

    def pred(candidate):
        evals.append(candidate)
        return True

    shrink(spec, pred, max_evals=7)
    assert len(evals) <= 7


def test_shrink_returns_spec_when_nothing_smaller_fails():
    minimal = ProgramSpec(
        name="already-minimal",
        classes=(ClassDef("F0", (), (MethodDef("m0", ((OP_INC,),)),)),),
        workload=(),
    )
    # a predicate matching only the original cannot shrink it
    result = shrink(minimal, lambda s: s == minimal, max_evals=50)
    assert result == minimal


def test_shrunk_real_failure_still_fails():
    """End-to-end: plant a masking defect, find a failing program, shrink
    it with the real predicate, and confirm the reproducer reproduces."""
    from repro.fuzz import check_program
    from repro.fuzz.shrink import make_failure_predicate

    defect = "mask_no_rollback"
    spec = None
    for index in range(10):
        candidate = generate_program(7, index)
        verdict = check_program(candidate, engine="sequential", defect=defect)
        if not verdict.ok:
            spec = candidate
            checks = sorted({m.check for m in verdict.mismatches})
            break
    assert spec is not None, "no failing program in the first 10 — defect inert?"

    fails = make_failure_predicate(checks, engine="sequential", defect=defect)
    small = shrink(spec, fails, max_evals=40)
    assert _valid(small)
    assert _size(small) <= _size(spec)
    assert fails(small)  # the reproducer really does reproduce
