"""Tests for checkpoint/restore (the paper's deep_copy + replace)."""

import pytest

from repro.core.state import (
    Checkpoint,
    capture,
    checkpoint,
    graphs_equal,
    restore,
)


class Node:
    def __init__(self, value, next_node=None):
        self.value = value
        self.next = next_node


class Slotted:
    __slots__ = ("a", "b")

    def __init__(self, a):
        self.a = a


def roundtrip_preserved(obj, mutate):
    """Checkpoint, mutate, restore; return True if state returned."""
    before = capture(obj)
    saved = checkpoint(obj)
    mutate(obj)
    assert not graphs_equal(before, capture(obj)), "mutation had no effect"
    saved.restore()
    return graphs_equal(before, capture(obj))


def test_restore_plain_object():
    n = Node(1)
    assert roundtrip_preserved(n, lambda o: setattr(o, "value", 99))


def test_restore_added_attribute_removed():
    n = Node(1)
    assert roundtrip_preserved(n, lambda o: setattr(o, "extra", "x"))


def test_restore_deleted_attribute_recreated():
    n = Node(1)
    assert roundtrip_preserved(n, lambda o: delattr(o, "value"))


def test_restore_list():
    data = [1, 2, 3]
    assert roundtrip_preserved(data, lambda lst: lst.append(4))
    assert roundtrip_preserved(data, lambda lst: lst.clear())
    assert roundtrip_preserved(data, lambda lst: lst.reverse())


def test_restore_dict():
    data = {"a": 1}
    assert roundtrip_preserved(data, lambda d: d.update(b=2))
    assert roundtrip_preserved(data, lambda d: d.clear())


def test_restore_set():
    data = {1, 2}
    assert roundtrip_preserved(data, lambda s: s.add(3))
    assert roundtrip_preserved(data, lambda s: s.discard(1))


def test_restore_bytearray():
    data = bytearray(b"abc")
    assert roundtrip_preserved(data, lambda b: b.extend(b"d"))


def test_restore_nested_object_tree():
    root = Node(1, Node(2, Node(3)))
    assert roundtrip_preserved(root, lambda n: setattr(n.next.next, "value", 0))


def test_restore_preserves_root_identity():
    n = Node(1)
    saved = checkpoint(n)
    n.value = 2
    saved.restore()
    assert n.value == 1  # same object, state rewound


def test_restore_preserves_interior_identity():
    inner = Node(2)
    outer = Node(1, inner)
    saved = checkpoint(outer)
    outer.next = Node(99)  # replace the child
    inner.value = -1  # and mutate the old child
    saved.restore()
    assert outer.next is inner, "interior identity must survive rollback"
    assert inner.value == 2


def test_restore_preserves_aliasing():
    shared = [0]
    holder = {"a": shared, "b": shared}
    saved = checkpoint(holder)
    holder["a"] = [0]  # break aliasing
    saved.restore()
    assert holder["a"] is holder["b"]


def test_new_objects_discarded_on_restore():
    root = Node(1)
    saved = checkpoint(root)
    root.next = Node(2, Node(3))
    saved.restore()
    assert root.next is None


def test_restore_through_tuple():
    inner = [1]
    root = Node((inner, 5))
    saved = checkpoint(root)
    inner.append(2)
    saved.restore()
    assert inner == [1]
    # the tuple itself is immutable and must be the same object
    assert root.value[0] is inner


def test_restore_cycle():
    a = Node(1)
    a.next = a
    saved = checkpoint(a)
    a.value = 9
    a.next = None
    saved.restore()
    assert a.value == 1
    assert a.next is a


def test_restore_slots():
    s = Slotted(1)
    saved = checkpoint(s)
    s.a = 2
    s.b = 3
    saved.restore()
    assert s.a == 1
    assert not hasattr(s, "b")  # unset slot rewound to unset


def test_restore_multiple_times():
    data = [1]
    saved = checkpoint(data)
    data.append(2)
    saved.restore()
    data.append(3)
    saved.restore()
    assert data == [1]


def test_multiple_roots():
    a, b = [1], {"k": 2}
    saved = checkpoint(a, b)
    a.append(9)
    b["k"] = 0
    saved.restore()
    assert a == [1] and b == {"k": 2}


def test_ignore_attrs_not_saved_nor_clobbered():
    n = Node(1)
    n._repro_meta = "keep-me"
    saved = checkpoint(n)
    n.value = 9
    n._repro_meta = "changed"
    saved.restore()
    assert n.value == 1
    assert n._repro_meta == "changed"  # instrumentation state untouched


def test_dict_with_object_keys():
    key = Node("k")
    mapping = {key: [1]}
    saved = checkpoint(mapping)
    mapping[key].append(2)
    key.value = "mutated"
    saved.restore()
    assert mapping[key] == [1]
    assert key.value == "k"


def test_recorded_count_reflects_mutable_objects():
    root = Node(1, Node(2))
    saved = checkpoint(root)
    # two Node objects, no containers
    assert saved.recorded_count == 2


def test_scalar_roots_are_noop():
    saved = checkpoint(42, "text")
    assert saved.recorded_count == 0
    saved.restore()  # must not raise


def test_roots_property():
    data = [1]
    saved = checkpoint(data)
    assert saved.roots == [data]


def test_module_level_restore_function():
    data = [1]
    saved = checkpoint(data)
    data.append(2)
    restore(saved)
    assert data == [1]


def test_restore_object_with_container_attributes():
    class Bag:
        def __init__(self):
            self.items = []
            self.index = {}

    bag = Bag()
    bag.items.append("a")
    bag.index["a"] = 0
    saved = checkpoint(bag)
    bag.items.append("b")
    bag.index["b"] = 1
    bag.items[0] = "z"
    saved.restore()
    assert bag.items == ["a"]
    assert bag.index == {"a": 0}


def test_restore_dict_with_mutated_custom_hash_key():
    """Keys' cached hashes and restored key state must stay coherent.

    The saved dict copy carries the checkpoint-time entry hashes (CPython
    reuses them in dict.update), and the key object itself is restored to
    its checkpoint-time state, so lookups work after rollback even when
    the failed method mutated the key's hash-relevant state.
    """

    class Key:
        def __init__(self, v):
            self.v = v

        def __hash__(self):
            return hash(self.v)

        def __eq__(self, other):
            return isinstance(other, Key) and self.v == other.v

    key = Key(1)
    mapping = {key: "x"}
    saved = checkpoint(mapping)
    key.v = 2  # hash-relevant mutation
    mapping[Key(3)] = "y"
    saved.restore()
    assert key.v == 1
    assert mapping[Key(1)] == "x"
    assert Key(3) not in mapping


def test_restore_set_with_mutated_custom_hash_member():
    class Member:
        def __init__(self, v):
            self.v = v

        def __hash__(self):
            return hash(self.v)

        def __eq__(self, other):
            return isinstance(other, Member) and self.v == other.v

    member = Member(1)
    group = {member}
    saved = checkpoint(group)
    member.v = 9
    group.add(Member(5))
    saved.restore()
    assert member.v == 1
    assert Member(1) in group
    assert Member(5) not in group
