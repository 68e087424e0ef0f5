"""Property-based tests of the core invariants (hypothesis).

Three invariants carry the correctness of the whole system:

1. Capture is deterministic: capturing the same state twice yields equal
   graphs (otherwise detection would report spurious non-atomicity).
2. Checkpoint/restore is a left inverse of arbitrary mutation: after
   restore, the object graph equals the pre-checkpoint graph.
3. A masked method is failure atomic by construction: for any sequence of
   mutations followed by a raise, the receiver's graph is unchanged.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cow import (
    failure_atomic_undolog,
    install_write_barrier,
    remove_write_barrier,
)
from repro.core.masking import failure_atomic
from repro.core.state import capture, checkpoint, graph_diff, graphs_equal

# -- strategies ----------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.binary(max_size=8),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.sets(st.integers(-50, 50), max_size=4),
        st.tuples(children, children),
    )


values = st.recursive(scalars, containers, max_leaves=20)


class Holder:
    def __init__(self, payload):
        self.payload = payload


# -- invariant 1: deterministic capture -----------------------------------


@given(values)
def test_capture_twice_equal(value):
    holder = Holder(value)
    assert graphs_equal(capture(holder), capture(holder))


@given(values)
def test_capture_of_deepcopy_equal(value):
    # an equal-valued but physically distinct state compares equal
    a = Holder(value)
    b = Holder(copy.deepcopy(value))
    assert graphs_equal(capture(a), capture(b))


@given(values, values)
def test_unequal_payloads_generally_differ(a, b):
    ga = capture(Holder(a))
    gb = capture(Holder(b))
    if graphs_equal(ga, gb):
        # graphs may legitimately be equal only if the values are equal
        # under our semantics; spot-check via deepcopy equality
        assert type(a) is type(b)


# -- invariant 2: checkpoint/restore roundtrip -----------------------------

mutations = st.lists(
    st.sampled_from(["append", "pop", "assign", "clear", "extend", "nest"]),
    max_size=6,
)


def apply_mutations(holder, ops):
    for op in ops:
        data = holder.payload
        if op == "append":
            holder.aux = getattr(holder, "aux", []) + [1]
        elif op == "pop" and isinstance(data, list) and data:
            data.pop()
        elif op == "assign":
            holder.payload = ("replaced", data)
        elif op == "clear" and isinstance(data, dict):
            data.clear()
        elif op == "extend" and isinstance(data, list):
            data.extend([99, 100])
        elif op == "nest":
            holder.payload = [holder.payload]


@given(values, mutations)
@settings(max_examples=60)
def test_checkpoint_restore_roundtrip(value, ops):
    holder = Holder(value)
    before = capture(holder)
    saved = checkpoint(holder)
    apply_mutations(holder, ops)
    saved.restore()
    diff = graph_diff(before, capture(holder))
    assert diff is None, str(diff)


# -- invariant 3: masked methods are failure atomic -------------------------


@given(values, st.lists(st.integers(-5, 5), min_size=1, max_size=6))
@settings(max_examples=60)
def test_masked_method_is_failure_atomic(value, amounts):
    class Store:
        def __init__(self, payload):
            self.payload = payload
            self.applied = []

        @failure_atomic
        def apply_all(self, items):
            for item in items:
                self.applied.append(item)
                if item < 0:
                    raise ValueError("negative item")

    store = Store(value)
    before = capture(store)
    try:
        store.apply_all(list(amounts))
    except ValueError:
        diff = graph_diff(before, capture(store))
        assert diff is None, str(diff)
    else:
        assert store.applied == list(amounts)


# -- invariant 4: the undo-log checkpoint path ------------------------------
#
# The undo log only intercepts attribute (re)assignment and deletion, so
# these mutation scripts stay within that contract: every step is a plain
# ``setattr``/``delattr`` on the barriered class.


class Record:
    def __init__(self, payload):
        self.a = payload
        self.b = 0


attr_ops = st.lists(
    st.tuples(
        st.sampled_from(["set_a", "push_b", "set_new", "del_a", "wrap_a"]),
        st.integers(-50, 50),
    ),
    max_size=6,
)


def apply_attr_ops(record, ops):
    for name, value in ops:
        if name == "set_a":
            record.a = value
        elif name == "push_b":
            record.b = (value, record.b)
        elif name == "set_new":
            setattr(record, "x%d" % (abs(value) % 3), value)
        elif name == "del_a" and hasattr(record, "a"):
            del record.a
        elif name == "wrap_a" and hasattr(record, "a"):
            record.a = [record.a]


@given(values, attr_ops)
@settings(max_examples=60)
def test_undolog_masked_failure_is_atomic(value, ops):
    """failure_atomic_undolog is a left inverse of any attribute-write
    script that ends in a raise: the receiver graph is unchanged."""
    install_write_barrier(Record)
    try:
        record = Record(value)

        def body(rec):
            apply_attr_ops(rec, ops)
            raise ValueError("forced failure")

        before = capture(record)
        with pytest.raises(ValueError):
            failure_atomic_undolog(body)(record)
        diff = graph_diff(before, capture(record))
        assert diff is None, str(diff)
    finally:
        remove_write_barrier(Record)


@given(values, attr_ops)
@settings(max_examples=60)
def test_undolog_masked_success_commits(value, ops):
    """On success the wrapper must be invisible: the masked run leaves the
    same graph as running the body unwrapped on an identical record."""
    install_write_barrier(Record)
    try:
        masked = Record(value)
        plain = Record(copy.deepcopy(value))
        failure_atomic_undolog(apply_attr_ops)(masked, ops)
        apply_attr_ops(plain, ops)
        diff = graph_diff(capture(masked), capture(plain))
        assert diff is None, str(diff)
    finally:
        remove_write_barrier(Record)


@given(values, attr_ops, attr_ops)
@settings(max_examples=60)
def test_undolog_nested_commit_then_outer_failure(value, inner_ops, outer_ops):
    """An inner masked call that succeeds commits into the enclosing log,
    so an outer failure still restores the pre-call graph exactly."""
    install_write_barrier(Record)
    try:
        record = Record(value)

        def outer(rec):
            apply_attr_ops(rec, outer_ops)
            failure_atomic_undolog(apply_attr_ops)(rec, inner_ops)
            raise RuntimeError("late failure")

        before = capture(record)
        with pytest.raises(RuntimeError):
            failure_atomic_undolog(outer)(record)
        diff = graph_diff(before, capture(record))
        assert diff is None, str(diff)
    finally:
        remove_write_barrier(Record)


@given(st.lists(st.integers(), max_size=5), st.integers(0, 10))
def test_checkpoint_restore_idempotent(data, extra):
    saved = checkpoint(data)
    data.append(extra)
    saved.restore()
    first = list(data)
    saved.restore()
    assert data == first
