"""Tests for the spec generator and the spec → program builder."""

import hashlib

import pytest

from repro.fuzz import (
    FuzzDeclaredError,
    ProgramSpec,
    build_program,
    generate_batch,
    generate_guarded,
    generate_program,
    render_source,
)
from repro.fuzz.spec import (
    GUARDS,
    OP_CALL,
    OP_GUARDED_CALL,
    OP_RAISE,
    OP_REBIND,
    OP_SELF_CALL,
    ClassDef,
    MethodDef,
)


def test_same_seed_same_spec():
    assert generate_program(7, 3) == generate_program(7, 3)
    assert generate_program(7, 3).to_json() == generate_program(7, 3).to_json()


def test_different_indices_differ():
    batch = generate_batch(7, 20)
    assert len({spec.to_json() for spec in batch}) > 1


def test_batch_prefix_independent_of_count():
    """Program *i* is a pure function of (seed, i): growing the batch
    must not perturb earlier programs."""
    small = generate_batch(11, 5)
    large = generate_batch(11, 20)
    assert large[:5] == small


def test_json_roundtrip():
    for spec in generate_batch(3, 10):
        assert ProgramSpec.from_json(spec.to_json()) == spec


def test_max_depth_bound():
    for depth in (1, 2, 3):
        for spec in generate_batch(5, 15, max_depth=depth):
            assert spec.depth() <= depth


def test_max_depth_validation():
    with pytest.raises(ValueError, match="max_depth"):
        generate_program(1, 0, max_depth=0)


def test_children_strictly_later():
    """The class graph is a DAG: children always have a larger index."""
    for spec in generate_batch(9, 20):
        for index, cd in enumerate(spec.classes):
            assert all(child > index for child in cd.children)


def test_exception_free_methods_cannot_raise():
    """The generator only flags raise-free, call-free methods, so the
    ``@exception_free`` assertion is honest by construction."""
    for spec in generate_batch(13, 30):
        for cd in spec.classes:
            for md in cd.methods:
                if md.exception_free:
                    assert not md.declares
                    assert not any(
                        op[0]
                        in (OP_RAISE, OP_CALL, OP_GUARDED_CALL, OP_SELF_CALL)
                        for op in md.ops
                    )


def test_render_is_deterministic():
    spec = generate_program(7, 0)
    assert render_source(spec) == render_source(spec)


def test_built_program_runs_and_is_fresh():
    """Each build yields fresh classes (no shared state between builds),
    and the rendered workload survives its own genuine exceptions."""
    spec = generate_program(7, 0)
    first = build_program(spec)
    second = build_program(spec)
    assert first.classes[0] is not second.classes[0]
    first.body()  # genuine FuzzDeclaredError sites are caught inside
    second.body()


def test_workload_only_catches_declared_error():
    """Only FuzzDeclaredError is swallowed by workload try blocks — any
    other exception must escape, or injections would be hidden."""
    spec = ProgramSpec(
        name="hand-escape",
        classes=(
            ClassDef("F0", (), (MethodDef("m0", ((OP_RAISE,),)),)),
        ),
        workload=(0,),
    )
    program = build_program(spec)
    program.body()  # the genuine FuzzDeclaredError is caught

    def boom(self):
        raise ValueError("not declared")

    program.classes[0].m0 = boom
    with pytest.raises(ValueError):
        program.body()
    assert issubclass(FuzzDeclaredError, Exception)


def test_generate_program_is_pinned():
    """Guarded batch programs come from a second stream: the specs and
    sources of generate_program, which the service benchmark's fixed
    corpus is drawn from, never change."""
    digest = hashlib.sha256()
    for seed in (2003, 20260806):
        for index in range(100):
            spec = generate_program(seed, index)
            digest.update(spec.to_json().encode())
            digest.update(render_source(spec).encode())
    assert digest.hexdigest() == (
        "8955d755a29c2bd63b24db8ac9eb5fa2534251226f7fdc1fc1d58556ef95c18f"
    )


def test_batches_carry_every_guard_and_a_rebind():
    specs = generate_batch(20260806, 25)
    assert specs == [generate_guarded(20260806, i) for i in range(25)]
    ops = [
        op for spec in specs for cd in spec.classes for md in cd.methods
        for op in md.ops
    ]
    assert {op[3] for op in ops if op[0] == OP_GUARDED_CALL} == set(GUARDS)
    assert any(op[0] == OP_REBIND for op in ops)


def test_guarded_program_runs_and_resets_the_alias():
    """A method rebinds the alias for the rest of its run, and every
    workload execution starts with the alias bound alike, so a
    rebinding program stays deterministic run after run."""
    spec = next(
        spec for spec in generate_batch(20260806, 50)
        if any(
            op[0] == OP_REBIND
            for cd in spec.classes for md in cd.methods for op in md.ops
        )
    )
    program = build_program(spec)
    namespace = vars(program.classes[0])["__init__"].__globals__
    program.body()
    assert namespace["FuzzAlias"] is not FuzzDeclaredError
    plain = build_program(generate_program(7, 0))
    namespace = vars(plain.classes[0])["__init__"].__globals__
    namespace["FuzzAlias"] = KeyError
    plain.body()
    assert namespace["FuzzAlias"] is FuzzDeclaredError
