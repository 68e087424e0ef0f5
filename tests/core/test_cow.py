"""Tests for the undo-log (copy-on-write) checkpoint extension."""

import pytest

from repro.core.cow import UndoLog, install_write_barrier, remove_write_barrier
from repro.core.masking import failure_atomic


class Counter:
    def __init__(self):
        self.value = 0
        self.history = 0

    def bump_then_fail(self, amount):
        self.value += amount
        self.history += 1
        if amount < 0:
            raise ValueError("negative")


@pytest.fixture
def barriered():
    install_write_barrier(Counter)
    yield
    remove_write_barrier(Counter)


def test_undo_log_rollback(barriered):
    counter = Counter()
    log = UndoLog()
    with log:
        counter.value = 42
        counter.extra = "new"
    assert log.recorded_writes == 2
    log.rollback()
    assert counter.value == 0
    assert not hasattr(counter, "extra")


def test_undo_log_first_write_wins(barriered):
    counter = Counter()
    log = UndoLog()
    with log:
        counter.value = 1
        counter.value = 2
        counter.value = 3
    assert log.recorded_writes == 1
    log.rollback()
    assert counter.value == 0


def test_writes_outside_log_not_recorded(barriered):
    counter = Counter()
    counter.value = 5  # no active log
    log = UndoLog()
    with log:
        pass
    assert log.recorded_writes == 0
    assert counter.value == 5


def test_nested_logs_innermost_records(barriered):
    counter = Counter()
    outer = UndoLog()
    inner = UndoLog()
    with outer:
        counter.value = 1
        with inner:
            counter.value = 2
        inner.rollback()
        assert counter.value == 1
    outer.rollback()
    assert counter.value == 0


def test_nested_commit_absorbed_into_outer(barriered):
    """A nested log that commits hands its entries to the enclosing log:
    the outer rollback must undo the inner region's writes too."""
    counter = Counter()
    outer = UndoLog()
    with outer:
        counter.value = 1
        with UndoLog():
            counter.history = 7  # inner region commits
    assert outer.recorded_writes == 2
    outer.rollback()
    assert counter.value == 0
    assert counter.history == 0


def test_absorb_keeps_oldest_saved_value(barriered):
    """When both logs recorded the same attribute, the outer log's own
    (older) saved value wins over the absorbed child entry."""
    counter = Counter()
    outer = UndoLog()
    with outer:
        counter.value = 1  # outer records old value 0
        with UndoLog():
            counter.value = 2  # inner records old value 1, then commits
    outer.rollback()
    assert counter.value == 0  # not 1


def test_nested_masked_commit_then_outer_failure_restores_all(barriered):
    """Regression: an outer masked method must roll back the writes of an
    inner masked method that completed successfully before the outer
    failure (absent commit-to-parent, history stayed at 1)."""

    def inner(counter):
        counter.history += 1

    def outer_body(counter):
        counter.value = 10
        failure_atomic(inner, strategy="undolog")(counter)
        raise ValueError("late failure")

    counter = Counter()
    with pytest.raises(ValueError):
        failure_atomic(outer_body, strategy="undolog")(counter)
    assert counter.value == 0
    assert counter.history == 0


def test_failure_atomic_undolog_wrapper(barriered):
    wrapped = failure_atomic(Counter.bump_then_fail, strategy="undolog")
    counter = Counter()
    wrapped(counter, 5)
    assert counter.value == 5
    with pytest.raises(ValueError):
        wrapped(counter, -1)
    assert counter.value == 5
    assert counter.history == 1


def test_undolog_wrapper_success_keeps_changes(barriered):
    wrapped = failure_atomic(Counter.bump_then_fail, strategy="undolog")
    counter = Counter()
    wrapped(counter, 1)
    wrapped(counter, 2)
    assert counter.value == 3
    assert counter.history == 2


def test_barrier_install_idempotent():
    install_write_barrier(Counter)
    first = Counter.__setattr__
    install_write_barrier(Counter)
    assert Counter.__setattr__ is first
    remove_write_barrier(Counter)
    remove_write_barrier(Counter)
    remove_write_barrier(Counter)  # one more than installed: a no-op


def test_barrier_removal_restores_plain_setattr():
    install_write_barrier(Counter)
    remove_write_barrier(Counter)
    counter = Counter()
    log = UndoLog()
    with log:
        counter.value = 9
    assert log.recorded_writes == 0  # barrier gone


def test_barrier_removal_restores_the_class_dict_exactly():
    class Fresh:
        pass

    class OwnSetattr:
        def __setattr__(self, name, value):
            object.__setattr__(self, name, value)

    for cls in (Fresh, OwnSetattr):
        before = dict(vars(cls))
        install_write_barrier(cls)
        assert vars(cls)["__setattr__"] is not before.get("__setattr__")
        remove_write_barrier(cls)
        assert dict(vars(cls)) == before


def test_barrier_removal_restores_a_subclass_barriered_after_its_base():
    for base_first in (True, False):

        class Base:
            pass

        class Derived(Base):
            pass

        install_write_barrier(Base)
        install_write_barrier(Derived)  # inherits Base's barrier at install
        for cls in [Base, Derived] if base_first else [Derived, Base]:
            remove_write_barrier(cls)
        for cls in (Base, Derived):
            assert "__setattr__" not in vars(cls), (cls.__name__, base_first)
            assert "__delattr__" not in vars(cls), (cls.__name__, base_first)


def test_barrier_stays_until_every_install_is_removed():
    install_write_barrier(Counter)
    install_write_barrier(Counter)
    remove_write_barrier(Counter)  # the other owner still needs it
    try:
        counter = Counter()
        log = UndoLog()
        with log:
            counter.value = 9
        assert log.recorded_writes == 1
    finally:
        remove_write_barrier(Counter)
    assert "__setattr__" not in vars(Counter)


def test_container_mutations_not_covered(barriered):
    """Documented limitation: container mutation bypasses the barrier."""

    class Holder:
        def __init__(self):
            self.items = []

    install_write_barrier(Holder)
    try:
        holder = Holder()
        log = UndoLog()
        with log:
            holder.items.append(1)  # not an attribute write
        log.rollback()
        assert holder.items == [1]  # rollback cannot undo it
    finally:
        remove_write_barrier(Holder)


def test_undo_log_records_deletes(barriered):
    counter = Counter()
    log = UndoLog()
    with log:
        del counter.value
    log.rollback()
    assert counter.value == 0


def test_barrier_removal_restores_delattr():
    install_write_barrier(Counter)
    remove_write_barrier(Counter)
    counter = Counter()
    log = UndoLog()
    with log:
        del counter.value  # barrier gone: unrecorded
    assert log.recorded_writes == 0


class SlotsAndDict:
    """A slot next to a ``__dict__``: both must roll back, the slot
    through its descriptor rather than as a missing dict entry."""

    __slots__ = ("s", "__dict__")

    def __init__(self):
        self.s = 1
        self.d = 2

    def bump(self):
        self.s = 10
        self.d = 20
        raise ValueError("boom")


@pytest.fixture
def slots_barriered():
    install_write_barrier(SlotsAndDict)
    yield
    remove_write_barrier(SlotsAndDict)


def test_undolog_restores_slot_beside_dict(slots_barriered):
    target = SlotsAndDict()
    with pytest.raises(ValueError):
        failure_atomic(SlotsAndDict.bump, strategy="undolog")(target)
    assert (target.s, target.d) == (1, 2)


def test_undolog_atomicity_wrapper_restores_slot_beside_dict(slots_barriered):
    from repro.core.analyzer import Analyzer
    from repro.core.masking import make_atomicity_wrapper

    spec = next(
        s for s in Analyzer().analyze_class(SlotsAndDict) if s.name == "bump"
    )
    wrapped = make_atomicity_wrapper(spec, strategy="undolog")
    target = SlotsAndDict()
    with pytest.raises(ValueError):
        wrapped(target)
    assert (target.s, target.d) == (1, 2)
