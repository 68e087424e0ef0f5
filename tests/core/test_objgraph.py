"""Tests for object graph capture and comparison (paper Definition 1/2)."""

import math

import pytest

from repro.core.state import (
    GraphDifference,
    ObjectGraph,
    capture,
    capture_frame,
    graph_diff,
    graphs_equal,
    is_opaque,
    is_scalar,
)


class Point:
    def __init__(self, x, y):
        self.x = x
        self.y = y


class Slotted:
    __slots__ = ("a", "b")

    def __init__(self, a, b=None):
        self.a = a
        if b is not None:
            self.b = b


class SlottedChild(Slotted):
    __slots__ = ("c",)

    def __init__(self, a, c):
        super().__init__(a)
        self.c = c


class WithDictAndSlots:
    __slots__ = ("s", "__dict__")

    def __init__(self):
        self.s = 1
        self.d = 2


def test_scalar_predicates():
    assert is_scalar(None)
    assert is_scalar(True)
    assert is_scalar(42)
    assert is_scalar(3.14)
    assert is_scalar(1 + 2j)
    assert is_scalar("text")
    assert is_scalar(b"bytes")
    assert not is_scalar([1])
    assert not is_scalar(Point(1, 2))


def test_opaque_predicates():
    assert is_opaque(Point)
    assert is_opaque(len)
    assert is_opaque(math)
    assert not is_opaque(Point(1, 2))


def test_capture_scalar_root():
    graph = capture(5)
    assert graph.size() == 1
    assert graph.node(graph.root).value == 5


def test_equal_objects_produce_equal_graphs():
    assert graphs_equal(capture(Point(1, 2)), capture(Point(1, 2)))


def test_attribute_value_change_detected():
    p = Point(1, 2)
    before = capture(p)
    p.x = 99
    diff = graph_diff(before, capture(p))
    assert diff is not None
    assert "attr" in str(diff)


def test_attribute_added_detected():
    p = Point(1, 2)
    before = capture(p)
    p.z = 3
    assert not graphs_equal(before, capture(p))


def test_attribute_removed_detected():
    p = Point(1, 2)
    before = capture(p)
    del p.y
    assert not graphs_equal(before, capture(p))


def test_attribute_insertion_order_ignored():
    a = Point(1, 2)
    b = Point.__new__(Point)
    b.y = 2  # reversed insertion order, same state
    b.x = 1
    assert graphs_equal(capture(a), capture(b))


def test_type_change_detected():
    class Other:
        def __init__(self):
            self.x = 1
            self.y = 2

    p = Point(1, 2)
    assert not graphs_equal(capture(p), capture(Other()))


def test_bool_vs_int_distinguished():
    assert not graphs_equal(capture(True), capture(1))


def test_float_vs_int_distinguished():
    assert not graphs_equal(capture(1.0), capture(1))


def test_nan_equal_to_itself():
    # The *state* didn't change even though nan != nan.
    p = Point(float("nan"), 0)
    assert graphs_equal(capture(p), capture(p))


def test_list_contents_and_order():
    assert graphs_equal(capture([1, 2, 3]), capture([1, 2, 3]))
    assert not graphs_equal(capture([1, 2, 3]), capture([1, 3, 2]))
    assert not graphs_equal(capture([1, 2]), capture([1, 2, 3]))


def test_tuple_vs_list_distinguished():
    assert not graphs_equal(capture((1, 2)), capture([1, 2]))


def test_dict_insertion_order_ignored_for_scalar_keys():
    a = {"x": 1, "y": 2}
    b = {"y": 2, "x": 1}
    assert graphs_equal(capture(a), capture(b))


def test_dict_value_change_detected():
    a = {"x": 1}
    b = {"x": 2}
    assert not graphs_equal(capture(a), capture(b))


def test_dict_key_type_matters():
    assert not graphs_equal(capture({1: "v"}), capture({"1": "v"}))


def test_set_is_order_insensitive():
    a = {3, 1, 2}
    b = {2, 3, 1}
    assert graphs_equal(capture(a), capture(b))
    assert not graphs_equal(capture({1, 2}), capture({1, 2, 3}))


def test_frozenset_vs_set_distinguished():
    assert not graphs_equal(capture(frozenset({1})), capture({1}))


def test_bytearray_compared_by_content():
    assert graphs_equal(capture(bytearray(b"ab")), capture(bytearray(b"ab")))
    assert not graphs_equal(capture(bytearray(b"ab")), capture(bytearray(b"ac")))


def test_aliasing_shared_child_is_one_node():
    shared = [1, 2]
    root = {"a": shared, "b": shared}
    graph = capture(root)
    # root + one shared list + leaves; the list node must appear once
    list_nodes = [n for n in graph.nodes if n.kind == "list"]
    assert len(list_nodes) == 1


def test_aliasing_break_is_detected():
    shared = [1, 2]
    a = {"a": shared, "b": shared}
    b = {"a": [1, 2], "b": [1, 2]}  # equal values, different sharing
    diff = graph_diff(capture(a), capture(b))
    assert diff is not None
    assert "sharing" in diff.reason


def test_aliasing_introduced_is_detected():
    a = {"a": [1], "b": [1]}
    shared = [1]
    b = {"a": shared, "b": shared}
    assert not graphs_equal(capture(a), capture(b))


def test_cycle_capture_and_equality():
    a = Point(1, None)
    a.y = a  # self cycle
    b = Point(1, None)
    b.y = b
    assert graphs_equal(capture(a), capture(b))


def test_cycle_difference_detected():
    a = Point(1, None)
    a.y = a
    c = Point(1, None)
    d = Point(1, None)
    c.y = d
    d.y = c  # two-cycle instead of self-cycle
    assert not graphs_equal(capture(a), capture(c))


def test_deep_structure_no_recursion_error():
    head = None
    for value in range(5000):
        head = {"value": value, "next": head}
    graph = capture(head)
    assert graph.size() > 5000
    assert graphs_equal(graph, capture(head))


def test_slots_captured():
    a = Slotted(1, 2)
    b = Slotted(1, 2)
    assert graphs_equal(capture(a), capture(b))
    b.b = 3
    assert not graphs_equal(capture(a), capture(b))


def test_unset_slot_versus_set_slot():
    assert not graphs_equal(capture(Slotted(1)), capture(Slotted(1, 2)))


def test_inherited_slots_captured():
    a = SlottedChild(1, 2)
    before = capture(a)
    a.a = 9
    assert not graphs_equal(before, capture(a))


def test_dict_and_slots_combination():
    a = WithDictAndSlots()
    b = WithDictAndSlots()
    assert graphs_equal(capture(a), capture(b))
    b.s = 5
    assert not graphs_equal(capture(a), capture(b))


def test_ignored_attrs_not_captured():
    p = Point(1, 2)
    before = capture(p)
    p._repro_probe = "internal"
    assert graphs_equal(before, capture(p))


def test_opaque_function_attribute_compared_by_name():
    a = Point(len, 0)
    b = Point(len, 0)
    assert graphs_equal(capture(a), capture(b))
    b.x = max
    assert not graphs_equal(capture(a), capture(b))


def test_capture_frame_multiple_roots():
    target = Point(1, 2)
    arg = [1]
    before = capture_frame([("self", target), (("arg", 0), arg)])
    arg.append(2)
    after = capture_frame([("self", target), (("arg", 0), arg)])
    assert not graphs_equal(before, after)


def test_capture_frame_label_mismatch():
    a = capture_frame([("self", 1)])
    b = capture_frame([(("arg", 0), 1)])
    assert not graphs_equal(a, b)


def test_graph_eq_operator():
    assert capture([1]) == capture([1])
    assert capture([1]) != capture([2])
    assert capture([1]).__eq__(42) is NotImplemented


def test_describe_smoke():
    text = capture(Point(1, [2, 3])).describe()
    assert "Point" in text
    assert "attr" in text


def test_graph_difference_str():
    diff = graph_diff(capture([1]), capture([2]))
    assert isinstance(diff, GraphDifference)
    assert "index" in str(diff)


def test_snapshot_is_materialized():
    data = [1, 2]
    graph = capture(data)
    data.append(3)
    assert not graphs_equal(graph, capture(data))
    # the original snapshot still matches an equal-valued fresh list
    assert graphs_equal(graph, capture([1, 2]))
